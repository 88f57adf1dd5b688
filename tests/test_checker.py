"""Backward evaluation: Boolean cases, strategic cases, search invariants."""

import random

import pytest

from atlir.checker import EvalCache, check, eval_ceu, evaluate
from atlir.errors import PreconditionViolation, UnsupportedOperator
from atlir.formula import (
    TRUE,
    Atom,
    CanNext,
    CanUntil,
    CanWeakUntil,
    Not,
    Or,
    normalize,
    parse,
)
from atlir.icgs import MoveSet, all_moves, gamma_closure, moves_of, with_perfect_information
from atlir.modelio import gen_castles
from atlir.moveops import filter_ceu, pre_ce, split_max
from atlir.oracle import oracle_eval

from corpus import random_formula, random_model


# -- Boolean cases ------------------------------------------------------------

def test_true_evaluates_to_the_query(cardgame):
    deals = cardgame.state_set(q for q in cardgame.states if q.startswith("deal"))
    assert evaluate(cardgame, deals, TRUE) == deals


def test_atom_intersects_the_query(cardgame):
    shows = cardgame.state_set(q for q in cardgame.states if q.startswith("show"))
    assert evaluate(cardgame, shows, Atom("win")) == cardgame.labeled("win")


def test_negation_complements_within_the_query(cardgame):
    deals = cardgame.state_set(q for q in cardgame.states if q.startswith("deal"))
    assert evaluate(cardgame, deals, Not(Atom("win"))) == deals


def test_disjunction_unions(cardgame):
    full = cardgame.all_states()
    f = Or(Atom("win"), Not(Atom("win")))
    assert evaluate(cardgame, full, f) == full


def test_unsupported_operator_rejected(cardgame):
    f = CanWeakUntil(("player",), TRUE, Atom("win"))
    with pytest.raises(UnsupportedOperator):
        evaluate(cardgame, cardgame.all_states(), f)


# -- the card game ------------------------------------------------------------

def test_uniform_player_cannot_force_a_win(cardgame):
    result = check(cardgame, "<<player>> F win")
    assert not result.holds
    # exactly the win-labelled outcome states satisfy the objective
    assert result.sat == cardgame.labeled("win")


def test_informed_player_forces_a_win(cardgame_pi):
    result = check(cardgame_pi, "<<player>> F win")
    assert result.holds
    assert cardgame_pi.state_set(cardgame_pi.initial) <= result.sat


def test_next_operator_on_card_game(cardgame):
    # one step after a deal the player can surely hold the winning hand only
    # where keep/swap does not depend on the hidden card
    sat = evaluate(cardgame, cardgame.all_states(),
                   normalize(parse("<<player>> X win", cardgame)))
    assert sat == cardgame.labeled("win")  # only absorbing wins qualify


def test_dealer_can_hand_out_any_deal(cardgame):
    sat = evaluate(cardgame, cardgame.all_states(),
                   normalize(parse("<<dealer>> X true", cardgame)))
    assert sat == cardgame.all_states()


# -- eval_ceu ------------------------------------------------------------------

def test_eval_ceu_win_branch_returns_interest(cardgame):
    wins = cardgame.labeled("win")
    interest = gamma_closure(cardgame, ["player"], wins)
    assert interest == wins  # outcome states are distinguishable
    strategy = moves_of(cardgame, ["player"], wins)
    empty = MoveSet.of(cardgame, ["player"], [])
    out = eval_ceu(cardgame, interest, strategy, cardgame.all_states(), wins, empty)
    assert out == interest


def test_eval_ceu_initial_state_unwinnable(cardgame):
    wins = cardgame.labeled("win")
    interest = gamma_closure(cardgame, ["player"], cardgame.state_set(["start"]))
    assert interest.ids() == {"start"}
    strategy = moves_of(cardgame, ["player"], wins)
    empty = MoveSet.of(cardgame, ["player"], [])
    out = eval_ceu(cardgame, interest, strategy, cardgame.all_states(), wins, empty)
    assert len(out) == 0


def test_eval_ceu_lose_branch_empty_compatible(cardgame):
    interest = gamma_closure(cardgame, ["player"], cardgame.state_set(["start"]))
    nothing = cardgame.state_set([])
    empty = MoveSet.of(cardgame, ["player"], [])
    out = eval_ceu(cardgame, interest, empty, cardgame.all_states(), nothing, empty)
    assert len(out) == 0


def test_eval_ceu_rejects_bad_arguments(cardgame):
    wins = cardgame.labeled("win")
    full = cardgame.all_states()
    empty = MoveSet.of(cardgame, ["player"], [])
    conflicted = moves_of(cardgame, ["player"],
                          cardgame.state_set(["deal_AK", "deal_AQ"]))
    with pytest.raises(PreconditionViolation):
        eval_ceu(cardgame, wins, conflicted, full, wins, empty)
    strategy = moves_of(cardgame, ["player"], wins)
    with pytest.raises(PreconditionViolation):
        eval_ceu(cardgame, wins, strategy, full, wins, strategy)
    not_closed = cardgame.state_set(["deal_AK"])  # misses deal_AQ
    with pytest.raises(PreconditionViolation):
        eval_ceu(cardgame, not_closed, strategy, full, wins, empty)


def test_eval_ceu_sandwiched_by_extension_enumeration():
    # lower bound: anything winnable by a total uniform extension of the
    # fragment that avoids the excluded moves; upper bound: the same without
    # the exclusion constraint (they coincide for an empty exclude)
    from atlir.oracle import count_uniform, enumerate_uniform, strategy_sat_u

    rng = random.Random(151)
    done = 0
    while done < 40:
        model = random_model(rng, max_states=5)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, min(2, len(model.agents)))))
        if count_uniform(model, gamma) > 2000:
            continue
        q2 = model.state_set(q for q in model.states if rng.random() < 0.35)
        q1 = model.state_set(q for q in model.states if rng.random() < 0.75)
        seeds = list(split_max(model, gamma, moves_of(model, gamma, q2)))
        if not seeds:
            continue
        done += 1
        strategy = seeds[rng.randrange(len(seeds))]
        spare = all_moves(model, gamma) - strategy
        exclude = MoveSet.of(model, gamma,
                             [mv for mv in spare if rng.random() < 0.25])
        interest = model.all_states()
        while True:
            bigger = gamma_closure(model, gamma, interest)
            if bigger == interest:
                break
            interest = bigger

        got = eval_ceu(model, interest, strategy, q1, q2, exclude)

        lower, upper = set(), set()
        for f in enumerate_uniform(model, gamma):
            fmask = f.move_set(model).mask
            if fmask & strategy.mask != strategy.mask:
                continue
            avoids = fmask & exclude.mask == 0
            win = strategy_sat_u(model, f, q1, q2)
            for q in interest:
                if gamma_closure(model, gamma, model.state_set([q])) <= win:
                    upper.add(q)
                    if avoids:
                        lower.add(q)
        assert lower <= got.ids() <= upper
        # with nothing excluded the sandwich is an equality
        unconstrained = eval_ceu(model, interest, strategy, q1, q2,
                                 MoveSet.of(model, gamma, []))
        assert unconstrained.ids() == upper


def test_eval_ceu_antitone_in_exclude():
    rng = random.Random(79)
    for _ in range(30):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, min(2, len(model.agents)))))
        q2 = model.state_set(q for q in model.states if rng.random() < 0.4)
        q1 = model.all_states()
        seeds = list(split_max(model, gamma, moves_of(model, gamma, q2)))
        if not seeds:
            continue
        strategy = seeds[0]
        interest = gamma_closure(model, gamma, model.all_states())
        nothing = MoveSet.of(model, gamma, [])
        spare = all_moves(model, gamma) - strategy
        some = MoveSet.of(model, gamma,
                          [mv for mv in spare if rng.random() < 0.5])
        wide = eval_ceu(model, interest, strategy, q1, q2, nothing)
        narrow = eval_ceu(model, interest, strategy, q1, q2, some)
        assert narrow <= wide


# -- whole-model invariants -----------------------------------------------------

def test_eval_matches_oracle_smoke():
    rng = random.Random(83)
    for _ in range(40):
        model = random_model(rng)
        f = normalize(random_formula(rng, model, depth=2))
        assert evaluate(model, model.all_states(), f) == oracle_eval(model, f)


def test_single_agent_sat_sets_are_closed():
    # For one agent the indistinguishability relation is an equivalence, so
    # the satisfying set of a strategic formula is a union of its classes.
    rng = random.Random(89)
    checked = 0
    while checked < 30:
        model = random_model(rng)
        f = random_formula(rng, model, depth=1, max_coalition=1)
        if not isinstance(f, (CanNext, CanUntil)):
            continue
        checked += 1
        nf = normalize(f)
        sat = evaluate(model, model.all_states(), nf)
        assert gamma_closure(model, nf.coalition, sat) == sat


def chain_model():
    """g1 confuses a/b, g2 confuses b/c; a and b step to the good sink,
    c to the bad one.  Nobody has any choice."""
    from corpus import make_model
    states = ["a", "b", "c", "good", "bad"]
    protocol = {ag: {q: ["x"] for q in states} for ag in ("g1", "g2")}
    successor = {"a": "good", "b": "good", "c": "bad", "good": "good",
                 "bad": "bad"}
    transition = {(q, ("x", "x")): successor[q] for q in states}
    observation = {
        "g1": {"a": "ab", "b": "ab", "c": "c", "good": "g", "bad": "n"},
        "g2": {"a": "a", "b": "bc", "c": "bc", "good": "g", "bad": "n"},
    }
    return make_model(["g1", "g2"], states, protocol, transition, observation,
                      labels={"good": ["p"]})


def test_multi_agent_sat_sets_need_not_be_closed():
    # b is confused with a by g1, yet b does not satisfy the objective: g2
    # confuses b with c, whose only step leads to the bad sink.  The mate
    # relation of a coalition is a union of equivalences, not transitive,
    # so satisfaction does not propagate along it.
    model = chain_model()
    f = CanNext(("g1", "g2"), Atom("p"))
    sat = evaluate(model, model.all_states(), f)
    assert sat.ids() == {"a", "good"}
    assert oracle_eval(model, f) == sat
    closed = gamma_closure(model, ("g1", "g2"), sat)
    assert "b" in closed and "b" not in sat


def test_query_restriction_property():
    rng = random.Random(97)
    for _ in range(40):
        model = random_model(rng)
        f = normalize(random_formula(rng, model, depth=2))
        full = evaluate(model, model.all_states(), f)
        query = model.state_set(q for q in model.states if rng.random() < 0.5)
        assert evaluate(model, query, f) == full & query


def test_perfect_information_reduction_smoke():
    rng = random.Random(101)
    for _ in range(25):
        model = with_perfect_information(random_model(rng))
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, min(2, len(model.agents)))))
        lhs = normalize(random_formula(rng, model, depth=1))
        rhs = normalize(random_formula(rng, model, depth=1))
        full = model.all_states()
        sat_lhs = evaluate(model, full, lhs)
        sat_rhs = evaluate(model, full, rhs)
        until = evaluate(model, full, CanUntil(gamma, lhs, rhs))
        assert until == filter_ceu(model, gamma, sat_lhs, sat_rhs)
        nxt = evaluate(model, full, CanNext(gamma, rhs))
        assert nxt == pre_ce(model, gamma, sat_rhs)


def test_search_depth_bounded_by_move_count():
    rng = random.Random(103)
    for _ in range(20):
        model = random_model(rng)
        f = random_formula(rng, model, depth=2)
        result = check(model, f)
        bound = max((len(all_moves(model, gamma))
                     for gamma in (model.coalition(model.agents),)), default=0)
        assert result.stats.max_depth <= max(bound, 1)


def test_eval_cache_entries_match_fresh_evaluation(cardgame):
    cache = EvalCache()
    f = normalize(parse("!(<<player>> F win) | win", cardgame))
    evaluate(cardgame, cardgame.all_states(), f, cache)
    assert len(cache) > 0
    cached = cache.get(normalize(parse("<<player>> F win", cardgame)))
    assert cached == evaluate(cardgame, cardgame.all_states(),
                              normalize(parse("<<player>> F win", cardgame)))


def test_check_reports_holds_and_stats():
    from atlir.modelio import gen_cardgame
    model = gen_cardgame()
    result = check(model, "true")
    assert result.holds
    assert result.sat == model.all_states()
    result = check(model, "<<player>> F win")
    assert result.stats.strategies_explored > 0
    assert result.stats.fixpoint_iterations > 0


def test_check_stats_do_not_depend_on_history():
    from atlir.modelio import gen_cardgame
    model = gen_cardgame()
    first = check(model, "<<player>> F win").stats
    second = check(model, "<<player>> F win").stats
    assert first.fixpoint_iterations > 0
    assert second == first


def test_backward_search_reproduces_perfect_info_castles(castles111, castles112):
    # With identity observations the backward search must agree with the
    # plain reach-through fixpoint; at full benchmark scale this drives the
    # whole seed/extend/backtrack machinery, not just toy instances.
    expectations = {(1, 1, 1): True, (1, 1, 2): False}
    for model, counts in ((castles111, (1, 1, 1)), (castles112, (1, 1, 2))):
        pi = with_perfect_information(model)
        f = parse("<<c1w1,c2w1>> F all_defeated", pi)
        init = pi.state_set(pi.initial)
        result = check(pi, f, query=init)
        assert result.holds == expectations[counts]
        reach = filter_ceu(pi, ("c1w1", "c2w1"),
                           pi.all_states(),
                           evaluate(pi, pi.all_states(), Atom("all_defeated")))
        assert result.holds == (pi.initial[0] in reach)
        assert check(pi, parse("<<c1w1,c2w1>> F castle3_defeated", pi),
                     query=init).holds


def test_stats_counters_are_non_negative(cardgame):
    result = check(cardgame, "<<player>> F win")
    s = result.stats
    assert min(s.strategies_explored, s.split_calls,
               s.fixpoint_iterations, s.max_depth) >= 0


def test_check_with_initial_query_matches_full_verdict():
    rng = random.Random(107)
    for _ in range(25):
        model = random_model(rng)
        f = random_formula(rng, model, depth=2)
        full = check(model, f)
        restricted = check(model, f, query=model.state_set(model.initial))
        assert full.holds == restricted.holds
        assert restricted.sat == full.sat & model.state_set(model.initial)


# The search visits the same fragments in the same order whatever the
# predecessor engine costs.  Counts: strategies explored, split calls,
# fixpoint iterations, depth.  A change of the predecessor engine must not move
# them; a change of the pruning may, and re-pins them.  The fixpoint count pins
# the rounds of the delta worklist, run once per query; that filter alone
# decides the FAILS rows of 1,1,2 and 1,1,3, before any seed is split.  Each
# case builds its own model, as ``atlir check`` does.  Counters do not depend
# on what ran on a model before (see the history test above), so this only
# keeps each row self-contained.
SEARCH_ORDER = [
    ((1, 1, 1), "<<c1w1,c2w1>> F castle3_defeated", True, (5, 5, 7, 5)),
    ((1, 1, 1), "<<c1w1,c2w1>> F all_defeated", False, (1387, 324, 6, 7)),
    ((1, 1, 2), "<<c1w1,c2w1>> F castle3_defeated", True, (37, 5, 5, 5)),
    ((1, 1, 2), "<<c1w1,c2w1>> F all_defeated", False, (0, 0, 6, 0)),
    ((1, 2, 2), "<<c1w1,c2w1,c2w2>> F castle3_defeated", True, (495, 29, 5, 7)),
    ((1, 1, 3), "<<c1w1,c2w1>> F castle3_defeated", False, (0, 0, 3, 0)),
]


@pytest.mark.parametrize("counts,text,holds,expected", SEARCH_ORDER)
def test_castles_search_order_is_pinned(counts, text, holds, expected):
    model = gen_castles(*counts)
    result = check(model, text, query=model.state_set(model.initial))
    s = result.stats
    assert result.holds == holds
    assert (s.strategies_explored, s.split_calls, s.fixpoint_iterations,
            s.max_depth) == expected
