"""Move algebra: conflicts, compatibility, predecessors, splitting."""

import itertools
import random

import pytest

from atlir.errors import AgentNotInCoalition, CoalitionMismatch
from atlir.icgs import GroupAction, Move, MoveSet, all_moves, moves_of
from atlir.moveops import (
    compatible,
    conflicting,
    filter_ceu,
    is_conflicting,
    pre_ce,
    pre_move,
    split_agent,
    split_all,
    split_max,
    split_nonempty,
)

from corpus import brute_force_class_unions, make_model, random_model, random_move_set


def player_move(state, action):
    return Move(state, GroupAction(("player",), (action,)))


def pair_model():
    """Two agents, two mutually indistinguishable states, two actions each."""
    states = ["u", "v"]
    protocol = {"g1": {q: ["a", "b"] for q in states},
                "g2": {q: ["x", "y"] for q in states}}
    transition = {(q, (p1, p2)): q
                  for q in states for p1 in "ab" for p2 in "xy"}
    observation = {"g1": {"u": "t", "v": "t"}, "g2": {"u": "s", "v": "s"}}
    return make_model(["g1", "g2"], states, protocol, transition, observation)


def pair_moves(model, specs):
    return MoveSet.of(model, ("g1", "g2"),
                      [Move(q, GroupAction(("g1", "g2"), picks))
                       for q, picks in specs])


# -- conflicts ---------------------------------------------------------------

def test_keep_and_swap_on_confused_deals_conflict(cardgame):
    m1 = player_move("deal_AK", "keep")
    m2 = player_move("deal_AQ", "swap")
    assert conflicting(cardgame, m1, m2)


def test_same_move_never_conflicts(cardgame):
    m = player_move("deal_AK", "keep")
    assert not conflicting(cardgame, m, m)


def test_distinguishable_states_never_conflict(cardgame):
    # different own card: the player tells these deals apart
    m1 = player_move("deal_AK", "keep")
    m2 = player_move("deal_KA", "swap")
    assert not conflicting(cardgame, m1, m2)


def test_conflicting_without_an_observation_map():
    # h has no observation map, so it tells no states apart, as in the index
    states = ["u", "v"]
    protocol = {"g": {q: ["a"] for q in states}, "h": {q: ["c", "d"] for q in states}}
    transition = {(q, ("a", x)): q for q in states for x in "cd"}
    model = make_model(["g", "h"], states, protocol, transition, {"g": {"u": "u", "v": "v"}})
    m1 = Move("u", GroupAction(("h",), ("c",)))
    m2 = Move("v", GroupAction(("h",), ("d",)))
    assert conflicting(model, m1, m2)
    assert is_conflicting(model, MoveSet.of(model, ("h",), [m1, m2]))
    assert not conflicting(model, m1, Move("v", GroupAction(("h",), ("c",))))


def test_conflicting_requires_same_coalition(cardgame):
    m1 = player_move("deal_AK", "keep")
    m2 = Move("deal_AK", GroupAction(("dealer",), ("noop",)))
    with pytest.raises(CoalitionMismatch):
        conflicting(cardgame, m1, m2)


def test_is_conflicting_cases(cardgame):
    empty = MoveSet.of(cardgame, ["player"], [])
    single = MoveSet.of(cardgame, ["player"], [player_move("deal_AK", "keep")])
    pair = MoveSet.of(cardgame, ["player"], [player_move("deal_AK", "keep"),
                                             player_move("deal_AQ", "swap")])
    assert not is_conflicting(cardgame, empty)
    assert not is_conflicting(cardgame, single)
    assert is_conflicting(cardgame, pair)


# -- compatibility -----------------------------------------------------------

def test_compatible_with_empty_base_is_identity(cardgame):
    candidates = all_moves(cardgame, ["player"])
    base = MoveSet.of(cardgame, ["player"], [])
    assert compatible(cardgame, candidates, base) == candidates


def test_set_is_compatible_with_itself(cardgame):
    base = MoveSet.of(cardgame, ["player"], [player_move("deal_QA", "swap"),
                                             player_move("deal_AK", "keep")])
    assert compatible(cardgame, base, base) == base


def test_compatible_filters_conflicting_candidates(cardgame):
    base = MoveSet.of(cardgame, ["player"], [player_move("deal_QA", "swap")])
    candidates = MoveSet.of(cardgame, ["player"],
                            [player_move("deal_QK", "keep"),
                             player_move("deal_QK", "swap")])
    kept = compatible(cardgame, candidates, base)
    assert set(kept) == {player_move("deal_QK", "swap")}


def test_compatible_antitone_in_base():
    rng = random.Random(37)
    for _ in range(30):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, len(model.agents))))
        cand = random_move_set(rng, model, gamma)
        small = random_move_set(rng, model, gamma, density=0.3)
        big = small | random_move_set(rng, model, gamma, density=0.3)
        assert compatible(model, cand, small) <= cand
        assert compatible(model, cand, big) <= compatible(model, cand, small)


# -- controllable predecessors ----------------------------------------------

def test_pre_ce_edges(cardgame):
    assert len(pre_ce(cardgame, ["player"], cardgame.state_set([]))) == 0
    assert pre_ce(cardgame, ["player"], cardgame.all_states()) == cardgame.all_states()


def test_every_deal_state_is_controllable_to_a_win(cardgame):
    wins = cardgame.labeled("win")
    controllable = pre_ce(cardgame, ["player"], wins)
    deals = {q for q in cardgame.states if q.startswith("deal")}
    assert deals <= controllable.ids()


def test_pre_move_edges(cardgame):
    empty = MoveSet.of(cardgame, ["player"], [])
    assert len(pre_move(cardgame, ["player"], empty)) == 0
    everything = all_moves(cardgame, ["player"])
    assert pre_move(cardgame, ["player"], everything) == everything


def test_pre_move_from_winning_outcomes_covers_all_deals(cardgame):
    wins = cardgame.labeled("win")
    base = moves_of(cardgame, ["player"], wins)
    covered = pre_move(cardgame, ["player"], base).covered_states()
    deals = {q for q in cardgame.states if q.startswith("deal")}
    assert deals <= covered.ids()


def test_pre_move_projects_to_pre_ce():
    rng = random.Random(41)
    for _ in range(30):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, len(model.agents))))
        target = model.state_set(q for q in model.states if rng.random() < 0.5)
        base = moves_of(model, gamma, target)
        projected = pre_move(model, gamma, base).covered_states()
        assert projected == pre_ce(model, gamma, target)


# -- reach-through fixpoint ---------------------------------------------------

def test_filter_empty_target_is_empty(cardgame):
    empty = cardgame.state_set([])
    assert len(filter_ceu(cardgame, ["player"], cardgame.all_states(), empty)) == 0


def test_filter_contains_target():
    rng = random.Random(43)
    for _ in range(30):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, len(model.agents))))
        q1 = model.state_set(q for q in model.states if rng.random() < 0.6)
        q2 = model.state_set(q for q in model.states if rng.random() < 0.4)
        assert q2 <= filter_ceu(model, gamma, q1, q2)


def test_player_wins_card_game_with_perfect_information(cardgame):
    # general-strategy reachability of a win covers the whole game
    wins = cardgame.labeled("win")
    reach = filter_ceu(cardgame, ["player"], cardgame.all_states(), wins)
    assert "start" in reach


def test_filter_monotone_and_stabilizes_quickly():
    rng = random.Random(47)
    for _ in range(30):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, len(model.agents))))
        q1a = model.state_set(q for q in model.states if rng.random() < 0.5)
        q1b = q1a | model.state_set(q for q in model.states if rng.random() < 0.3)
        q2a = model.state_set(q for q in model.states if rng.random() < 0.4)
        q2b = q2a | model.state_set(q for q in model.states if rng.random() < 0.3)
        assert filter_ceu(model, gamma, q1a, q2a) <= filter_ceu(model, gamma, q1b, q2a)
        assert filter_ceu(model, gamma, q1a, q2a) <= filter_ceu(model, gamma, q1a, q2b)

        # independent Kleene iteration, counting steps to stabilisation
        z = q2a
        steps = 0
        while True:
            nz = q2a | (q1a & pre_ce(model, gamma, z))
            steps += 1
            if nz == z:
                break
            z = nz
        assert steps <= len(model.states) + 1
        assert z == filter_ceu(model, gamma, q1a, q2a)


# -- splitting: hand-run instances -------------------------------------------

def test_split_agent_two_conflicting_moves(cardgame):
    ms = MoveSet.of(cardgame, ["player"], [player_move("deal_AK", "keep"),
                                           player_move("deal_AQ", "swap")])
    largest = list(split_agent(cardgame, "player", ["player"], ms, True))
    assert {frozenset(s) for s in largest} == {
        frozenset({player_move("deal_AK", "keep")}),
        frozenset({player_move("deal_AQ", "swap")}),
    }
    everything = list(split_agent(cardgame, "player", ["player"], ms, False))
    assert {frozenset(s) for s in everything} == {
        frozenset({player_move("deal_AK", "keep")}),
        frozenset({player_move("deal_AQ", "swap")}),
        frozenset(),
    }


def test_split_agent_non_conflicting_is_identity(cardgame):
    ms = MoveSet.of(cardgame, ["player"], [player_move("deal_AK", "keep"),
                                           player_move("deal_AQ", "keep"),
                                           player_move("deal_KA", "swap")])
    assert list(split_agent(cardgame, "player", ["player"], ms, True)) == [ms]


def test_split_agent_requires_member_agent(cardgame):
    ms = all_moves(cardgame, ["player"])
    with pytest.raises(AgentNotInCoalition):
        next(split_agent(cardgame, "dealer", ["player"], ms, True))


def test_split_all_singleton_coalition_matches_split_agent(cardgame):
    ms = MoveSet.of(cardgame, ["player"], [player_move("deal_AK", "keep"),
                                           player_move("deal_AQ", "swap"),
                                           player_move("deal_KQ", "keep")])
    via_all = {frozenset(s) for s in split_all(cardgame, ["player"], ms, False)}
    via_agent = {frozenset(s)
                 for s in split_agent(cardgame, "player", ["player"], ms, False)}
    assert via_all == via_agent


def test_split_all_two_agent_cross_product():
    model = pair_model()
    ms = pair_moves(model, [("u", ("a", "x")), ("v", ("b", "x")),
                            ("u", ("a", "y")), ("v", ("b", "y"))])
    outputs = {frozenset(s) for s in split_all(model, ("g1", "g2"), ms, True)}
    # one conflict per agent: the split is the product of per-agent choices
    assert outputs == {
        frozenset({Move("u", GroupAction(("g1", "g2"), ("a", "x")))}),
        frozenset({Move("u", GroupAction(("g1", "g2"), ("a", "y")))}),
        frozenset({Move("v", GroupAction(("g1", "g2"), ("b", "x")))}),
        frozenset({Move("v", GroupAction(("g1", "g2"), ("b", "y")))}),
    }


def test_split_nonempty_edges(cardgame):
    empty = MoveSet.of(cardgame, ["player"], [])
    assert list(split_nonempty(cardgame, ["player"], empty)) == []
    single = MoveSet.of(cardgame, ["player"], [player_move("deal_AK", "keep")])
    assert list(split_nonempty(cardgame, ["player"], single)) == [single]
    ms = MoveSet.of(cardgame, ["player"], [player_move("deal_AK", "keep"),
                                           player_move("deal_AQ", "swap")])
    assert {frozenset(s) for s in split_nonempty(cardgame, ["player"], ms)} == {
        frozenset({player_move("deal_AK", "keep")}),
        frozenset({player_move("deal_AQ", "swap")}),
    }


def test_split_max_on_a_whole_observation_class(cardgame):
    a_deals = cardgame.state_set(["deal_AK", "deal_AQ"])
    ms = moves_of(cardgame, ["player"], a_deals)
    outputs = {frozenset(s) for s in split_max(cardgame, ["player"], ms)}
    assert outputs == {
        frozenset({player_move("deal_AK", "keep"), player_move("deal_AQ", "keep")}),
        frozenset({player_move("deal_AK", "swap"), player_move("deal_AQ", "swap")}),
    }


def test_split_max_count_is_product_of_class_action_counts():
    rng = random.Random(53)
    for _ in range(40):
        model = random_model(rng)
        ag = rng.choice(model.agents)
        gamma = model.coalition([ag])
        ms = random_move_set(rng, model, gamma)
        if not ms:
            continue
        per_class = {}
        for mv in ms:
            token = model.observation[ag][mv.state]
            per_class.setdefault(token, set()).add(mv.action.picks[0])
        expected = 1
        for acts in per_class.values():
            expected *= len(acts)
        assert sum(1 for _ in split_max(model, gamma, ms)) == expected


# -- splitting: general properties --------------------------------------------

def test_split_outputs_are_non_conflicting_subsets():
    rng = random.Random(59)
    for _ in range(60):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, min(2, len(model.agents)))))
        ms = random_move_set(rng, model, gamma)
        for maximal in (True, False):
            for sub in split_all(model, gamma, ms, maximal):
                assert sub <= ms
                assert not is_conflicting(model, sub)


def test_split_max_outputs_cannot_be_extended():
    rng = random.Random(61)
    for _ in range(60):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, min(2, len(model.agents)))))
        ms = random_move_set(rng, model, gamma)
        for sub in split_max(model, gamma, ms):
            for extra in ms - sub:
                extended = sub | MoveSet.of(model, gamma, [extra])
                assert is_conflicting(model, extended)


def test_split_all_equals_brute_force_class_unions():
    rng = random.Random(67)
    done = 0
    while done < 40:
        model = random_model(rng, max_states=4)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, min(2, len(model.agents)))))
        ms = random_move_set(rng, model, gamma, density=0.4)
        if len(ms) > 10:
            continue
        done += 1
        produced = {frozenset(s) for s in split_all(model, gamma, ms, False)}
        assert produced == brute_force_class_unions(model, ms)


def test_split_max_is_the_maximal_outputs_of_split_all():
    rng = random.Random(71)
    done = 0
    while done < 30:
        model = random_model(rng, max_states=4)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, min(2, len(model.agents)))))
        ms = random_move_set(rng, model, gamma, density=0.4)
        if len(ms) > 10 or not ms:
            continue
        done += 1
        every = {frozenset(s) for s in split_all(model, gamma, ms, False)}
        maximal = {s for s in every if not any(s < t for t in every)}
        assert {frozenset(s) for s in split_max(model, gamma, ms)} == maximal


def test_split_max_preserves_coverage_of_whole_class_inputs():
    # the enabled moves over a state set always offer every class a common
    # action, so each largest conflict-free subset still covers every state
    rng = random.Random(149)
    for _ in range(40):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, min(2, len(model.agents)))))
        qs = model.state_set(q for q in model.states if rng.random() < 0.5)
        ms = moves_of(model, gamma, qs)
        for sub in split_max(model, gamma, ms):
            assert sub.covered_states() == qs


def _corpus_models():
    rng = random.Random(151)
    return [random_model(rng) for _ in range(30)]


# castles 1,1,1 stops at coalitions of two, <<c1w1,c2w1>> among them (20,736
# seeds over castle3_defeated); the three-agent split would double the cost
@pytest.mark.parametrize("source,max_size",
                         [("corpus", 3), ("cardgame", 2), ("castles111", 2)])
def test_every_maximal_seed_covers_the_whole_target(source, max_size, request):
    # The checker filters once per query, on the whole until target, because
    # in a valid model every maximal seed over moves_of(q2) covers q2: a
    # state left uncovered could still take the action its class uses.
    models = (_corpus_models() if source == "corpus"
              else [request.getfixturevalue(source)])
    for model in models:
        atoms = sorted({p for q in model.states for p in model.labels[q]})
        for size in range(1, max_size + 1):
            for gamma in itertools.combinations(model.agents, size):
                for atom in atoms:
                    seeds = moves_of(model, gamma, model.labeled(atom))
                    covered = seeds.covered_states()
                    for seed in split_all(model, gamma, seeds, True):
                        assert seed.covered_states() == covered


def test_split_streams_are_deterministic():
    rng = random.Random(73)
    model = random_model(rng)
    gamma = model.coalition(rng.sample(model.agents,
                                       rng.randint(1, len(model.agents))))
    ms = random_move_set(rng, model, gamma)
    first = [frozenset(s) for s in split_all(model, gamma, ms, False)]
    second = [frozenset(s) for s in split_all(model, gamma, ms, False)]
    assert first == second


def test_split_rejects_foreign_move_sets(cardgame):
    ms = all_moves(cardgame, ["player"])
    with pytest.raises(CoalitionMismatch):
        next(split_all(cardgame, ["dealer"], ms, True))
