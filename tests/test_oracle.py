"""Exhaustive-enumeration ground truth and the perfect-information evaluator."""

import itertools
import random
from functools import partial

import pytest

from atlir import oracle
from atlir.checker import Walk, _normalized, check, evaluate
from atlir.errors import DisabledJointAction, EnumerationCapExceeded, IncompleteStrategy
from atlir.formula import (
    TRUE,
    Atom,
    CanEventually,
    CanNext,
    CanUntil,
    Not,
    normalize,
    parse,
)
from atlir.icgs import gamma_closure, with_perfect_information
from atlir.oracle import (
    DEFAULT_CAP,
    UniformStrategy,
    _sat_u,
    _strategy_succ,
    _succ_table,
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


# -- the slot-tuple enumeration against the strategy-object reference ------------

def ref_enumerate(cap, walk, f, idx, within):
    """The oracle's solver with one :class:`UniformStrategy` per strategy:
    its successors read through ``_strategy_succ`` and its closure test
    from the coalition index."""
    model = walk.model
    full = model._all_mask
    if isinstance(f, CanNext):
        target = walk.full(f.sub)

        def winning(succ):
            good = 0
            for i in range(idx.n_states):
                if succ[i] & ~target == 0:
                    good |= 1 << i
            return good
    else:
        q1, q2 = walk.full(f.lhs), walk.full(f.rhs)

        def winning(succ):
            return _sat_u(succ, q1, q2)
    table = _succ_table(model, idx.gamma)
    sat = 0
    for strategy in enumerate_uniform(model, idx.gamma, cap):
        sat |= idx.closed_within(full & ~sat,
                                 winning(_strategy_succ(model, strategy, table)))
        if sat == full:
            break
    return sat & within


def ref_oracle_eval(model, f, cap=DEFAULT_CAP):
    walk = Walk(model, partial(ref_enumerate, cap), {})
    return walk.sat(_normalized(model, f), model._all_mask)


def _small(model, limit):
    """Whether every coalition of one or two agents has at most ``limit``
    uniform strategies."""
    return all(count_uniform(model, gamma) <= limit
               for size in (1, 2)
               for gamma in itertools.combinations(model.agents, size))


def test_oracle_matches_the_reference_on_the_corpus():
    rng = random.Random(151)
    models = pairs = 0
    while models < 300:
        model = random_model(rng)
        if not _small(model, 500):
            continue
        models += 1
        operands = [Atom(a) for a in sorted(model.atoms)] + [TRUE]
        operands.append(Not(rng.choice(operands)))
        coalitions = [(rng.choice(model.agents),)]
        if len(model.agents) > 1:
            coalitions.append(tuple(rng.sample(model.agents, 2)))
        formulas = [random_formula(rng, model, depth=2)]
        for gamma in coalitions:
            lhs, rhs = rng.choice(operands), rng.choice(operands)
            formulas += [CanNext(gamma, rhs), CanEventually(gamma, rhs),
                         CanUntil(gamma, lhs, rhs)]
        for f in formulas:
            assert oracle_eval(model, f).mask == ref_oracle_eval(model, f), f
            pairs += 1
    assert pairs > 1500


def test_oracle_matches_the_reference_on_the_card_game(cardgame):
    for text in ("<<player>> F win", "<<player>> X !win", "<<dealer>> F win",
                 "<<dealer,player>> F win", "<<dealer,player>> (!win U win)",
                 "<<player>> X <<dealer,player>> X win", "!<<player>> F !win"):
        assert oracle_eval(cardgame, text).mask == ref_oracle_eval(cardgame, text)


def test_oracle_matches_the_reference_on_castles(castles111):
    # A one-agent node of castles 1,1,1 has 82,944 strategies, and on the
    # model's atoms none but a trivial one wins every state: the whole
    # enumeration takes the reference half a minute.  Here every state's
    # successor lookup and the closure are held to the reference's along the
    # first strategies of the enumeration order, and a node that its first
    # strategy decides runs whole.
    gamma = ("c1w1",)
    slots = oracle._slots(castles111, gamma, DEFAULT_CAP)
    _, lookups, closure = oracle._strategy_tables(castles111, gamma, slots)
    assert closure == castles111.index(gamma).closure_of
    table = _succ_table(castles111, gamma)
    combos = itertools.product(*(acts for _, _, acts in slots))
    for combo, strategy in itertools.islice(
            zip(combos, enumerate_uniform(castles111, gamma)), 300):
        assert [succ[pick(combo)] for pick, succ in lookups] == _strategy_succ(
            castles111, strategy, table)
    text = "<<c1w1>> F (castle3_defeated | !castle3_defeated)"
    assert oracle_eval(castles111, text).mask == ref_oracle_eval(castles111, text)


# -- the enumeration's error paths ----------------------------------------------

def test_the_cap_stops_the_oracle_before_any_table_or_strategy(cardgame, monkeypatch):
    def untouched(*args):
        raise AssertionError("reached past the cap")
    monkeypatch.setattr(oracle, "_strategy_tables", untouched)
    monkeypatch.setattr(oracle, "_sat_u", untouched)
    for text in ("<<player>> F win", "<<player>> X win"):
        with pytest.raises(EnumerationCapExceeded,
                           match="8 uniform strategies exceed the cap of 7"):
            oracle_eval(cardgame, text, cap=7)
    monkeypatch.undo()
    assert oracle_eval(cardgame, "<<player>> F win", cap=8) == oracle_eval(
        cardgame, "<<player>> F win")


def _split_protocol(agents):
    # g cannot tell s0 from s1 but may pick b only in s0; the class's
    # actions are read in s0, so the strategy that picks b is not enabled
    # in s1.  Its first strategy, a everywhere, wins no state.
    protocol = {"g": {"s0": ["a", "b"], "s1": ["a"]}, "h": {"s0": ["c"], "s1": ["c"]}}
    transition = {}
    for q, succ in (("s0", "s1"), ("s1", "s1")):
        for joint in itertools.product(*(protocol[ag][q] for ag in agents)):
            transition[(q, joint)] = succ
    observation = {"g": {"s0": "o", "s1": "o"}, "h": {"s0": "o0", "s1": "o1"}}
    return make_model(agents, ["s0", "s1"], {ag: protocol[ag] for ag in agents},
                      transition, {ag: observation[ag] for ag in agents},
                      {"s0": ["p"]})


@pytest.mark.parametrize("agents, picks", [
    (["g"], "('b',)"), (["g", "h"], "('b', 'c')")])
def test_an_action_disabled_inside_its_class_is_reported(agents, picks):
    model = _split_protocol(agents)
    message = "coalition action %s is not enabled in state 's1'" % picks
    for f in (CanNext(tuple(agents), Atom("p")), CanEventually(tuple(agents), Atom("p"))):
        for evaluator in (oracle_eval, ref_oracle_eval):
            with pytest.raises(DisabledJointAction) as caught:
                evaluator(model, f)
            assert str(caught.value) == message
