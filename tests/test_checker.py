"""Backward evaluation: Boolean cases, strategic cases, search invariants."""

import random
import sys

import pytest

import atlir.checker
from atlir.checker import EvalCache, check, eval_ceu, evaluate
from atlir.errors import (
    FormulaError,
    ModelError,
    PreconditionViolation,
    UnknownAgent,
    UnsupportedOperator,
)
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
from atlir.modelio import gen_cardgame, gen_castles
from atlir.moveops import filter_ceu, pre_ce, split_max
from atlir.oracle import oracle_eval, perfect_info_eval

from corpus import make_model, random_formula, random_model, random_move_set


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


def test_evaluate_parses_text_as_check_does(cardgame):
    text = "<<player>> F win"
    full = cardgame.all_states()
    assert evaluate(cardgame, full, text) == evaluate(cardgame, full, parse(text, cardgame))
    assert evaluate(cardgame, full, text) == check(cardgame, text).sat


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


EVALUATORS = [lambda m, f: check(m, f).sat, oracle_eval, perfect_info_eval]


@pytest.mark.parametrize("evaluate_with", EVALUATORS,
                         ids=["check", "oracle_eval", "perfect_info_eval"])
def test_hand_built_coalitions_are_checked_like_parsed_ones(evaluate_with):
    model = gen_cardgame()  # fresh: its index cache is inspected below
    with pytest.raises(UnknownAgent):
        evaluate_with(model, CanNext(("ghost",), Atom("win")))
    with pytest.raises(FormulaError):
        evaluate_with(model, CanUntil((), TRUE, Atom("win")))
    for make in (lambda c: CanNext(c, Not(Atom("win"))),
                 lambda c: CanUntil(c, TRUE, Atom("win"))):
        assert (evaluate_with(model, make(("player", "dealer")))
                == evaluate_with(model, make(("dealer", "player"))))
    # only the canonical coalition gets an index
    assert set(model._indexes) == {("dealer", "player")}


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


def test_eval_cache_serves_one_model():
    rng = random.Random(3)
    m1, m2 = [random_model(rng) for _ in range(4)][2:]
    cache = EvalCache()
    first = check(m1, "!q", cache=cache)
    assert first.sat == check(m1, "!q").sat
    # m1's memo would answer {s3}; a fresh check of m2 gives {s0, s1}
    assert [q for q in check(m2, "!q").sat] == ["s0", "s1"]
    with pytest.raises(ModelError):
        check(m2, "!q", cache=cache)
    with pytest.raises(ModelError):
        evaluate(m2, m2.all_states(), normalize(parse("!q", m2)), cache)
    assert check(m1, "!q", cache=cache).sat == first.sat


def test_search_goes_deeper_than_the_recursion_limit():
    # One agent walks a chain to a p-labelled sink: the only strategy adds
    # one move per chain state, one frame deeper each time.
    n = sys.getrecursionlimit() + 200
    states = ["c%d" % i for i in range(n)] + ["sink"]
    model = make_model(
        ["a"], states, {"a": {q: ["go"] for q in states}},
        {(q, ("go",)): states[min(i + 1, n)] for i, q in enumerate(states)},
        {"a": {q: q for q in states}}, {"sink": ["p"]})
    result = check(model, "<<a>> F p", query=model.state_set(model.initial))
    assert result.holds
    assert result.stats.max_depth == n + 1


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
# fragments pruned, fixpoint iterations, depth.  A change of the predecessor
# engine must not move them; a change of the pruning may, and re-pins them.
# The fixpoint count sums the rounds of the delta worklist over every search
# frame.  The root frame's not-lose set, the perfect-information filter,
# alone decides the FAILS rows of 1,1,2 and 1,1,3: the root returns unsplit,
# one pruned fragment at depth 1.  Each case builds its own model, as ``atlir check`` does.
# Counters do not depend on what ran on a model before (see the history test
# above), so this only keeps each row self-contained.
SEARCH_ORDER = [
    ((1, 1, 1), "<<c1w1,c2w1>> F castle3_defeated", True, (4, 4, 0, 22, 5)),
    ((1, 1, 1), "<<c1w1,c2w1>> F all_defeated", False, (10, 2, 9, 61, 3)),
    ((1, 1, 2), "<<c1w1,c2w1>> F castle3_defeated", True, (13, 4, 9, 23, 5)),
    ((1, 1, 2), "<<c1w1,c2w1>> F all_defeated", False, (0, 0, 1, 6, 1)),
    ((1, 2, 2), "<<c1w1,c2w1,c2w2>> F castle3_defeated", True, (8, 2, 6, 13, 3)),
    ((1, 1, 3), "<<c1w1,c2w1>> F castle3_defeated", False, (0, 0, 1, 3, 1)),
]


@pytest.mark.parametrize("counts,text,holds,expected", SEARCH_ORDER)
def test_castles_search_order_is_pinned(counts, text, holds, expected):
    model = gen_castles(*counts)
    result = check(model, text, query=model.state_set(model.initial))
    s = result.stats
    assert result.holds == holds
    assert (s.strategies_explored, s.split_calls, s.fragments_pruned,
            s.fixpoint_iterations, s.max_depth) == expected


# -- the per-fragment prune against the filtered, unpruned search -------------

def ref_ceu_search(idx, interest, strategy, cov, moves_q1, exclude, stats):
    """The search without the per-fragment prune: every frame with candidate
    moves splits them.  It grows ``strategy`` from ``cov`` over ``moves_q1``
    and returns the states of ``interest`` it wins, but every frame computes
    ``pre_move`` of its coverage from scratch, so the reference shares no
    incremental protocol with the search."""
    won = 0

    def grow(strategy, exclude, cov, added, blocked):
        nonlocal won
        won |= idx.closed_within(interest & ~won, cov)
        if interest & ~won == 0:
            return
        new_moves = idx.pre_move(cov) & moves_q1 & ~strategy & ~exclude
        if new_moves:
            blocked |= idx.clash(added)
        comp = new_moves & ~blocked
        if comp == 0:
            return
        stats.split_calls += 1
        for sub in idx.split_all(comp, False):
            if sub == 0:
                continue
            stats.strategies_explored += 1
            yield grow(strategy | sub, exclude | (new_moves & ~sub),
                       cov | idx.cover(sub), sub, blocked)
            if interest & ~won == 0:
                return

    stack = [grow(strategy, exclude, cov, strategy, 0)]
    while stack:
        stats.max_depth = max(stats.max_depth, len(stack))
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(child)
    return won


def _swapped(monkeypatch, name, reference):
    """Run a thunk with the checker's function ``name`` swapped for a reference."""
    def run(thunk):
        with monkeypatch.context() as patch:
            patch.setattr(atlir.checker, name, reference)
            return thunk()
    return run


def ref_filter(idx, q1, cov, stats):
    """The perfect-information filter on the root coverage, its rounds
    counted as the checker counted them before every frame ran its own
    fixpoint."""
    table = idx.move_table(idx.moves_of(q1))
    left, entered = idx.counts(table, cov)
    z, rounds = idx.reach(table, left, cov, entered)
    stats.fixpoint_iterations += rounds
    assert z == idx.filter_ceu(q1, cov)
    return z


def ref_filtered_search(idx, interest, q1, strategy, cov, exclude, stats):
    """The earlier design of ``_ceu_search``, same arguments and result: the
    filter runs once, on the root coverage, then the unpruned search grows
    the fragment over the moves of the ``q1`` states outside it."""
    won = idx.closed_within(interest, cov)
    if won == interest:
        return won
    remaining = idx.closed_within(interest, ref_filter(idx, q1, cov, stats)) & ~won
    if remaining == 0:
        return won
    return won | ref_ceu_search(idx, remaining, strategy, cov,
                                idx.moves_of(q1 & ~cov), exclude, stats)


@pytest.fixture
def unpruned(monkeypatch):
    return _swapped(monkeypatch, "_ceu_search", ref_filtered_search)


def root_rounds(calls):
    """The rounds of the recorded root-frame ``reach`` calls."""
    return sum(rounds for *_, (_, rounds) in calls)


def test_pruned_search_agrees_with_the_unpruned_one_on_the_corpus(unpruned, root_calls):
    rng = random.Random(167)
    pruned = explored = reference_explored = 0
    for _ in range(40):
        model = random_model(rng, max_states=7)
        for _ in range(6):
            f = random_formula(rng, model, depth=2)
            root_calls.clear()
            got = check(model, f)
            root = root_rounds(root_calls)
            expected = unpruned(lambda: check(model, f))
            assert got.sat == expected.sat, f
            assert got.stats.strategies_explored <= expected.stats.strategies_explored
            # the reference counts only its filter's rounds
            assert root == expected.stats.fixpoint_iterations
            pruned += got.stats.fragments_pruned
            explored += got.stats.strategies_explored
            reference_explored += expected.stats.strategies_explored
    # pinned like SEARCH_ORDER: a weaker prune explores more fragments
    assert (explored, pruned, reference_explored) == (365, 49, 365)


@pytest.mark.parametrize("counts", [(1, 1, 1), (1, 1, 2)])
@pytest.mark.parametrize("goal", ["castle3_defeated", "all_defeated"])
def test_pruned_search_agrees_with_the_unpruned_one_on_castles(counts, goal, unpruned):
    model = gen_castles(*counts)
    text = "<<c1w1,c2w1>> F " + goal
    init = model.state_set(model.initial)
    got = check(model, text, query=init)
    expected = unpruned(lambda: check(model, text, query=init))
    assert (got.holds, got.sat) == (expected.holds, expected.sat)
    assert got.stats.strategies_explored <= expected.stats.strategies_explored


def test_eval_ceu_prunes_without_changing_its_answer(monkeypatch):
    searched = []  # the stats of every search eval_ceu runs, and the reference's

    def recorded(search):
        def run(idx, interest, q1, strategy, cov, exclude, stats):
            searched.append(stats)
            return search(idx, interest, q1, strategy, cov, exclude, stats)
        return run
    unpruned = _swapped(monkeypatch, "_ceu_search", recorded(ref_filtered_search))
    monkeypatch.setattr(atlir.checker, "_ceu_search",
                        recorded(atlir.checker._ceu_search))
    rng = random.Random(173)
    done = 0
    while done < 150:
        model = random_model(rng, max_states=7)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, min(2, len(model.agents)))))
        strategy = rng.choice(list(split_max(model, gamma, random_move_set(
            rng, model, gamma, rng.choice((0.1, 0.3, 0.6))))))
        spare = all_moves(model, gamma) - strategy
        exclude = MoveSet.of(model, gamma,
                             [mv for mv in spare if rng.random() < 0.2])
        q1 = model.state_set(q for q in model.states if rng.random() < 0.8)
        q2 = model.state_set(q for q in model.states if rng.random() < 0.3)
        interest = model.state_set(q for q in model.states if rng.random() < 0.6)
        while gamma_closure(model, gamma, interest) != interest:
            interest = gamma_closure(model, gamma, interest)
        got = eval_ceu(model, interest, strategy, q1, q2, exclude)
        assert got == unpruned(
            lambda: eval_ceu(model, interest, strategy, q1, q2, exclude))
        mine, reference = searched[-2:]
        assert mine.strategies_explored <= reference.strategies_explored
        done += 1
    assert sum(stats.fragments_pruned for stats in searched[::2]) > 0


# -- the one until tree against the forest of maximal seeds ------------------

_search = atlir.checker._search  # the checker's solver, for coalition-next


def ref_seeded_until(stats, walk, f, idx, qmask):
    """The until search as a forest: the moves of the target are split into
    maximal conflict-free seeds, and each seed grows in its own unpruned
    search from its own coverage over every move of ``q1``.  The filter runs
    once, on the target, since in a valid model every maximal seed covers the
    whole target.  Coalition-next goes to the checker's own solver."""
    if isinstance(f, CanNext):
        return _search(stats, walk, f, idx, qmask)
    interest = idx.closure(qmask)
    q1 = walk.full(f.lhs)
    q2 = walk.full(f.rhs)
    sat = idx.closed_within(interest, q2)
    if sat != interest:
        interest = idx.closed_within(interest, ref_filter(idx, q1, q2, stats))
    remaining = interest & ~sat
    if remaining == 0:
        return sat & qmask
    moves_q1 = idx.moves_of(q1)
    stats.split_calls += 1
    for seed in idx.split_all(idx.moves_of(q2), True):
        stats.strategies_explored += 1
        sat |= ref_ceu_search(idx, remaining, seed, idx.cover(seed), moves_q1, 0, stats)
        remaining = interest & ~sat
        if remaining == 0:
            break
    return sat & qmask


@pytest.fixture
def seeded(monkeypatch):
    return _swapped(monkeypatch, "_search", ref_seeded_until)


def test_one_tree_agrees_with_the_seed_forest_on_the_corpus(seeded, root_calls):
    rng = random.Random(179)
    for _ in range(40):
        model = random_model(rng, max_states=7)
        for _ in range(6):
            f = random_formula(rng, model, depth=2)
            root_calls.clear()
            got = check(model, f)
            root = root_rounds(root_calls)
            expected = seeded(lambda: check(model, f))
            assert got.sat == expected.sat, f
            assert got.stats.strategies_explored <= expected.stats.strategies_explored
            assert root == expected.stats.fixpoint_iterations


@pytest.mark.parametrize("counts", [(1, 1, 1), (1, 1, 2)])
@pytest.mark.parametrize("goal", ["castle3_defeated", "all_defeated"])
def test_one_tree_agrees_with_the_seed_forest_on_castles(counts, goal, seeded):
    model = gen_castles(*counts)
    text = "<<c1w1,c2w1>> F " + goal
    init = model.state_set(model.initial)
    got = check(model, text, query=init)
    expected = seeded(lambda: check(model, text, query=init))
    assert (got.holds, got.sat) == (expected.holds, expected.sat)
    assert got.stats.strategies_explored <= expected.stats.strategies_explored
