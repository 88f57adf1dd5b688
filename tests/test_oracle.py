"""Exhaustive-enumeration ground truth and the perfect-information evaluator."""

import itertools
import random

import pytest

from atlir.checker import check, evaluate
from atlir.errors import EnumerationCapExceeded, IncompleteStrategy
from atlir.formula import TRUE, Atom, CanNext, CanUntil, Not, normalize, parse
from atlir.icgs import gamma_closure, with_perfect_information
from atlir.oracle import (
    UniformStrategy,
    count_uniform,
    enumerate_uniform,
    oracle_eval,
    perfect_info_eval,
    strategy_sat_u,
)

from corpus import make_model, random_coalition, random_formula, random_model


def player_strategy(cardgame, on_a, on_k, on_q):
    assignment = [("start", "wait"), ("holding_A", on_a), ("holding_K", on_k),
                  ("holding_Q", on_q)]
    for token in sorted(cardgame.observation["player"].values()):
        if token.startswith("show"):
            assignment.append((token, "noop"))
    return UniformStrategy(("player",), (tuple(sorted(assignment)),))


# -- enumeration ----------------------------------------------------------------

def test_card_player_has_eight_uniform_strategies(cardgame):
    assert count_uniform(cardgame, ["player"]) == 8
    listed = list(enumerate_uniform(cardgame, ["player"]))
    assert len(listed) == 8
    assert len(set(listed)) == 8  # each exactly once


def test_single_state_model_has_one_strategy_per_action():
    protocol = {"ag": {"s0": ["a", "b", "c"]}}
    transition = {("s0", (act,)): "s0" for act in "abc"}
    model = make_model(["ag"], ["s0"], protocol, transition,
                       {"ag": {"s0": "o"}})
    assert count_uniform(model, ["ag"]) == 3
    assert len(list(enumerate_uniform(model, ["ag"]))) == 3


def test_identity_observations_enumerate_all_memoryless_strategies():
    rng = random.Random(109)
    for _ in range(10):
        model = with_perfect_information(random_model(rng, max_agents=2))
        ag = rng.choice(model.agents)
        expected = 1
        for q in model.states:
            expected *= len(model.protocol[ag][q])
        assert count_uniform(model, [ag]) == expected


def test_enumeration_order_is_deterministic(cardgame):
    first = list(enumerate_uniform(cardgame, ["player"]))
    second = list(enumerate_uniform(cardgame, ["player"]))
    assert first == second


def test_enumeration_cap(cardgame):
    with pytest.raises(EnumerationCapExceeded):
        enumerate_uniform(cardgame, ["player"], cap=7)


def test_enumerated_strategies_are_uniform_and_total():
    from atlir.moveops import is_conflicting
    rng = random.Random(139)
    done = 0
    while done < 10:
        model = random_model(rng, max_states=4)
        gamma = random_coalition(rng, model)
        if count_uniform(model, gamma) > 500:
            continue
        done += 1
        for strategy in enumerate_uniform(model, gamma):
            ms = strategy.move_set(model)
            assert not is_conflicting(model, ms)
            assert ms.covered_states() == model.all_states()


# -- strategy_sat_u ---------------------------------------------------------------

def test_target_states_always_satisfy(cardgame):
    s = player_strategy(cardgame, "keep", "keep", "keep")
    wins = cardgame.labeled("win")
    assert wins <= strategy_sat_u(cardgame, s, cardgame.all_states(), wins)


def test_empty_target_never_satisfied(cardgame):
    s = player_strategy(cardgame, "keep", "keep", "keep")
    empty = cardgame.state_set([])
    assert len(strategy_sat_u(cardgame, s, cardgame.all_states(), empty)) == 0


def test_swap_only_with_q_wins_on_part_of_the_class(cardgame):
    s = player_strategy(cardgame, "keep", "keep", "swap")
    wins = cardgame.labeled("win")
    sat = strategy_sat_u(cardgame, s, cardgame.all_states(), wins)
    assert "deal_QK" in sat  # swapping Q against K picks up the ace
    assert "deal_QA" not in sat  # swapping Q against A picks up the king


def test_incomplete_strategy_rejected(cardgame):
    s = UniformStrategy(("player",), ((("start", "wait"),),))
    with pytest.raises(IncompleteStrategy):
        strategy_sat_u(cardgame, s, cardgame.all_states(), cardgame.labeled("win"))


def test_fixpoint_stabilizes_within_state_count():
    rng = random.Random(113)
    for _ in range(20):
        model = random_model(rng)
        gamma = random_coalition(rng, model)
        strategy = next(iter(enumerate_uniform(model, gamma)))
        q1 = model.state_set(q for q in model.states if rng.random() < 0.6)
        q2 = model.state_set(q for q in model.states if rng.random() < 0.4)
        succ = {}  # per state, read from its row: the joints the strategy completes
        for q, row in zip(model.states, model.rows):
            ga = strategy.group_action(model, q)
            menus = [model.protocol.get(ag, {}).get(q, ()) for ag in model.agents]
            succ[q] = 0
            for joint, t in zip(itertools.product(*menus), row if row is not None else ()):
                if t >= 0 and ga.completes(model, joint):
                    succ[q] |= 1 << t
        z = q2.mask
        steps = 0
        while True:
            nz = q2.mask
            for i, q in enumerate(model.states):
                if (q1.mask >> i) & 1 and succ[q] & ~z == 0:
                    nz |= 1 << i
            steps += 1
            if nz == z:
                break
            z = nz
        assert steps <= len(model.states) + 1
        assert strategy_sat_u(model, strategy, q1, q2).mask == z


# -- oracle_eval -------------------------------------------------------------------

def test_oracle_true_is_everything(cardgame):
    assert oracle_eval(cardgame, TRUE) == cardgame.all_states()


def test_oracle_matches_backward_eval_on_card_game(cardgame):
    f = normalize(parse("<<player>> F win", cardgame))
    assert oracle_eval(cardgame, f) == evaluate(cardgame, cardgame.all_states(), f)


def test_oracle_results_are_closed_for_single_agents():
    rng = random.Random(127)
    checked = 0
    while checked < 20:
        model = random_model(rng)
        f = random_formula(rng, model, depth=1, max_coalition=1)
        nf = normalize(f)
        if not isinstance(nf, (CanNext, CanUntil)):
            continue
        checked += 1
        sat = oracle_eval(model, nf)
        assert gamma_closure(model, nf.coalition, sat) == sat


def test_oracle_equals_perfect_info_under_identity_observations():
    rng = random.Random(131)
    for _ in range(20):
        model = with_perfect_information(random_model(rng, max_agents=2))
        f = normalize(random_formula(rng, model, depth=2))
        assert oracle_eval(model, f) == perfect_info_eval(model, f)


@pytest.mark.parametrize("evaluator", [oracle_eval, perfect_info_eval])
def test_the_reference_evaluators_parse_text_as_check_does(cardgame, evaluator):
    for text in ("<<player>> F win", "<<dealer,player>> X !win", "win | !win"):
        assert evaluator(cardgame, text) == evaluator(cardgame, parse(text, cardgame))


# -- perfect_info_eval ----------------------------------------------------------

def test_informed_player_wins_from_the_start(cardgame):
    f = normalize(parse("<<player>> F win", cardgame))
    assert "start" in perfect_info_eval(cardgame, f)


def test_next_true_is_everything(cardgame):
    f = CanNext(("player",), TRUE)
    assert perfect_info_eval(cardgame, f) == cardgame.all_states()


def test_all_out_assault_is_a_winning_witness(castles111):
    # an explicit uniform strategy certifying that the two front castles can
    # bring the third one down: attack it whenever your own castle stands
    assignment = []
    for worker, own_digit in (("c1w1", 6), ("c2w1", 7)):
        table = {}
        for token in set(castles111.observation[worker].values()):
            own_defeated = token[own_digit] == "1"  # tokens look like cd1_df010
            table[token] = "noop" if own_defeated else "attack3"
        assignment.append(tuple(sorted(table.items())))
    witness = UniformStrategy(("c1w1", "c2w1"), tuple(assignment))

    from atlir.moveops import is_conflicting
    ms = witness.move_set(castles111)
    assert not is_conflicting(castles111, ms)
    assert ms.covered_states() == castles111.all_states()

    target = castles111.labeled("castle3_defeated")
    winning = strategy_sat_u(castles111, witness,
                             castles111.all_states(), target)
    assert castles111.initial[0] in winning
    # soundness direction: strategic formulas over Boolean operands only,
    # so both evaluators agree on the operands and inclusion is guaranteed
    rng = random.Random(137)
    for _ in range(25):
        model = random_model(rng)
        gamma = random_coalition(rng, model)
        operand = rng.choice([Atom(a) for a in sorted(model.atoms)]
                             + [TRUE, Not(Atom(sorted(model.atoms)[0]))])
        for f in (CanNext(gamma, operand), CanUntil(gamma, TRUE, operand)):
            uniform = oracle_eval(model, f)
            general = perfect_info_eval(model, f)
            assert uniform <= general


def test_an_unobserved_state_is_one_class_for_the_oracle():
    # g has no observation token for v: like the checker's index, the
    # oracle treats the token None as one class
    model = make_model(["g"], ["t", "u", "v"],
                       {"g": {"t": ["a"], "u": ["a", "b"], "v": ["a"]}},
                       {("t", ("a",)): "t", ("u", ("a",)): "t", ("u", ("b",)): "v",
                        ("v", ("a",)): "t"},
                       {"g": {"t": "t", "u": "u"}}, {"t": ["p"]})
    f = parse("<<g>> F p", model)
    assert oracle_eval(model, f) == check(model, f).sat == perfect_info_eval(model, f)
    assert check(model, f).sat.ids() == {"t", "u", "v"}
    assert count_uniform(model, ["g"]) == 2
    assert [s.assignment for s in enumerate_uniform(model, ["g"])] == [
        (((None, "a"), ("t", "a"), ("u", action)),) for action in ("a", "b")]
