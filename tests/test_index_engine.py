"""The index's mask engine against plain sweeps and per-move definitions.

The index answers ``pre_move``, ``pre_ce``, ``reach``, ``filter_ceu`` and
``moves_of`` backwards over a reverse index and successor counts,
incrementally along growing targets, and every conflict question through
the one mask operator ``clash``.  The references below are the direct
definitions, each a sweep over all moves or states, over successor masks
built from the model's rows, or a per-agent table rebuilt from the moves of
a mask, kept here so that every shortcut is held to them.
"""

import itertools
import random
import sys
import tracemalloc
import weakref
from array import array

import pytest

from atlir import modelio
from atlir._index import CoalitionIndex
from atlir.checker import check, eval_ceu
from atlir.icgs import Icgs, MoveSet, StateSet, bits

from corpus import make_model, random_formula, random_model


def ref_moves_of(idx, qmask):
    out = 0
    for m, si in enumerate(idx.move_state):
        if qmask >> si & 1:
            out |= 1 << m
    return out


def ref_succ(idx):
    """Per move, the mask of its successors: the index's moves, read from
    the reference tables built joint by joint from the model's rows."""
    if idx not in _SUCC:
        _SUCC[idx] = ref_tables(idx.model, idx.gamma)["succ"]
    return _SUCC[idx]


_SUCC = weakref.WeakKeyDictionary()


def ref_pre_move(idx, target):
    out = 0
    for m, succ in enumerate(ref_succ(idx)):
        if succ & ~target == 0:
            out |= 1 << m
    return out


def ref_pre_ce(idx, target):
    out = 0
    for m, succ in enumerate(ref_succ(idx)):
        if succ & ~target == 0:
            out |= 1 << idx.move_state[m]
    return out


def ref_filter_ceu(idx, q1, q2):
    z = q2
    while True:
        nz = q2 | (q1 & ref_pre_ce(idx, z))
        if nz == z:
            return z
        z = nz


def ref_reach(idx, allowed, z):
    """Grow ``z`` by the state of every allowed move all of whose successors
    lie in it, sweeping every move each round, until nothing is added.
    Return the fixpoint and the number of sweeps that added a state."""
    growing = 0
    while True:
        grown = z
        for m, succ in enumerate(ref_succ(idx)):
            if allowed >> m & 1 and succ & ~z == 0:
                grown |= 1 << idx.move_state[m]
        if grown == z:
            return z, growing
        z = grown
        growing += 1


def ref_counts(idx, allowed, z):
    """Per allowed move, its number of successors outside ``z``."""
    return {m: bin(succ & ~z).count("1") for m, succ in enumerate(ref_succ(idx))
            if allowed >> m & 1}


def table_mask(table):
    """The move mask of a table of one byte per move."""
    return sum(1 << m for m, member in enumerate(table) if member)


def ref_token(idx, a, m):
    """The observation token of move ``m``'s state for coalition agent ``a``,
    read from the model."""
    model = idx.model
    return model.observation.get(idx.gamma[a], {}).get(model.states[idx.move_state[m]])


def ref_is_conflicting(idx, movemask):
    for a in range(len(idx.gamma)):
        seen = {}
        for m in bits(movemask):
            t = ref_token(idx, a, m)
            act = idx.move_action[m][a]
            prev = seen.get(t)
            if prev is None:
                seen[t] = act
            elif prev != act:
                return True
    return False


def ref_compatible(idx, candidates, base):
    k = len(idx.gamma)
    assigned = [dict() for _ in range(k)]
    for m in bits(base):
        for a in range(k):
            acts = assigned[a].setdefault(ref_token(idx, a, m), set())
            acts.add(idx.move_action[m][a])
    out = 0
    for m in bits(candidates):
        for a in range(k):
            acts = assigned[a].get(ref_token(idx, a, m))
            if acts and (len(acts) > 1 or idx.move_action[m][a] not in acts):
                break
        else:
            out |= 1 << m
    return out


def ref_is_maximal(idx, mask, movemask):
    k = len(idx.gamma)
    assigned = [dict() for _ in range(k)]
    for m in bits(mask):
        for a in range(k):
            assigned[a][ref_token(idx, a, m)] = idx.move_action[m][a]
    for x in bits(movemask & ~mask):
        for a in range(k):
            act = assigned[a].get(ref_token(idx, a, x))
            if act is not None and act != idx.move_action[x][a]:
                break
        else:
            return False  # x could be added without any conflict
    return True


def ref_clash(idx, movemask):
    """Moves sharing some agent's observation class with a move of the mask
    but assigning that agent another action, pair by pair."""
    k = len(idx.gamma)
    ms = list(bits(movemask))
    out = 0
    for x in range(len(idx.move_state)):
        if any(ref_token(idx, a, x) == ref_token(idx, a, m)
               and idx.move_action[x][a] != idx.move_action[m][a]
               for m in ms for a in range(k)):
            out |= 1 << x
    return out


def ref_split_options(idx, a, movemask, maximal):
    """Agent ``a``'s options per class of a mask: the moves grouped by the
    token read from the model, classes peeled by least move id, one option
    per action the class assigns (sorted), plus dropping the class (0) when
    not maximal."""
    classes = {}
    for m in bits(movemask):  # ascending, so classes appear by least move id
        classes.setdefault(ref_token(idx, a, m), []).append(m)
    options = []
    for moves in classes.values():
        by_action = {}
        for m in moves:
            act = idx.move_action[m][a]
            by_action[act] = by_action.get(act, 0) | 1 << m
        options.append([by_action[act] for act in sorted(by_action)]
                       + ([] if maximal else [0]))
    return options


def ref_split_agent(idx, a, movemask, maximal):
    """Agent ``a``'s split of a mask: one option per class."""
    return [sum(combo) for combo in itertools.product(
        *ref_split_options(idx, a, movemask, maximal))]


def ref_split_paths(idx, movemask, maximal):
    """Every path of the per-agent fold of ``ref_split_agent``, in order: its
    leaf and the class options it kept (did not drop)."""
    paths = [(movemask, [])]
    for a in range(len(idx.gamma)):
        paths = [(sum(combo), kept + [opt for opt in combo if opt])
                 for mask, kept in paths
                 for combo in itertools.product(*ref_split_options(idx, a, mask, maximal))]
    return paths


def ref_split_first(idx, movemask, maximal):
    """The leaves of the fold, each in the place it first occurs."""
    return list(dict.fromkeys(leaf for leaf, _ in ref_split_paths(idx, movemask, maximal)))


def ref_split_fold(idx, movemask):
    """The leaves of the non-maximal fold on its clean paths, those whose
    every kept class option keeps a move in the leaf, in order."""
    return [leaf for leaf, kept in ref_split_paths(idx, movemask, False)
            if all(opt & leaf for opt in kept)]


def ref_split_max(idx, movemask):
    """The maximal fold, with every output held to ``ref_is_maximal``."""
    return [mask for mask in ref_split_first(idx, movemask, True)
            if ref_is_maximal(idx, mask, movemask)]


def ref_tables(model, gamma):
    """The move, successor-count and reverse tables built joint by joint:
    each entry of the model's rows projected onto the coalition and its move
    found.  Beside them, under ``succ``, each move's successor mask; under
    ``post``, each state's successor mask; and under ``lookup``, the move id
    of each (state position, coalition action)."""
    n = len(model.states)
    move_state, move_action, moves_at, lookup = [], [], [], {}
    for i, q in enumerate(model.states):
        first = len(move_state)
        picks = [model.protocol[ag].get(q, ()) for ag in gamma]
        for combo in sorted(itertools.product(*picks)):
            lookup[(i, combo)] = len(move_state)
            move_state.append(i)
            move_action.append(combo)
        moves_at.append(range(first, len(move_state)))
    gamma_pos = [model._agent_pos[ag] for ag in gamma]
    succ = [0] * len(move_state)
    pred = [array("i") for _ in range(n)]
    post = [0] * n
    for i, (q, row) in enumerate(zip(model.states, model.rows)):
        if row is None:
            continue
        proto = [model.protocol[ag].get(q, ()) for ag in model.agents]
        for joint, t in zip(itertools.product(*proto), row):
            if t < 0:  # missing, or into an undeclared state
                continue
            bit = 1 << t
            post[i] |= bit
            mid = lookup[(i, tuple(joint[p] for p in gamma_pos))]
            if not succ[mid] & bit:
                succ[mid] |= bit
                pred[t].append(mid)
    n_succ = array("i", [bin(s).count("1") for s in succ])
    stuck_moves = sum(1 << m for m, count in enumerate(n_succ) if not count)
    return {"move_state": move_state, "move_action": move_action,
            "moves_at": moves_at, "n_succ": n_succ, "pred_moves": pred,
            "stuck_moves": stuck_moves, "succ": succ, "post": post, "lookup": lookup}


def ref_key_tables(model, gamma, move_state, move_action):
    """Per coalition agent, the conflict keys move by move: the (token,
    action) pairs, with tokens ranked by first appearance over the states and
    the actions of one token sorted; and the per-state closure."""
    n = len(model.states)
    out = {"move_key": [], "key_moves": [], "class_mask": [], "key_range": []}
    closure = [0] * n
    for a, ag in enumerate(gamma):
        obs = model.observation.get(ag, {})
        tok = [obs.get(q) for q in model.states]
        keys = []
        for t in dict.fromkeys(tok):
            keys += [(t, act) for act in sorted({move_action[m][a]
                                                 for m, si in enumerate(move_state)
                                                 if tok[si] == t})]
        move_key = [keys.index((tok[si], move_action[m][a]))
                    for m, si in enumerate(move_state)]
        out["move_key"].append(array("i", move_key))
        out["key_moves"].append([sum(1 << m for m, key in enumerate(move_key) if key == k)
                                 for k in range(len(keys))])
        out["class_mask"].append([sum(1 << m for m, si in enumerate(move_state) if tok[si] == t)
                                  for t, _ in keys])
        class_keys = [[k for k, key in enumerate(keys) if key[0] == t] for t, _ in keys]
        out["key_range"].append([range(ks[0], ks[-1] + 1) for ks in class_keys])
        for i in range(n):
            closure[i] |= sum(1 << j for j in range(n) if tok[j] == tok[i])
    out["closure_of"] = closure
    return out


def assert_tables_match(idx, label):
    model, gamma = idx.model, idx.gamma
    ref = ref_tables(model, gamma)
    del ref["succ"]
    post, lookup = ref.pop("post"), ref.pop("lookup")
    ref.update(ref_key_tables(model, gamma, ref["move_state"], ref["move_action"]))
    for name, expected in ref.items():
        assert getattr(idx, name) == expected, (label, name)
    # every key is used by some move, and a class's keys are contiguous
    for key_moves, key_range in zip(idx.key_moves, idx.key_range):
        assert all(key_moves) and all(k in key_range[k] for k in range(len(key_range)))
    assert idx.all_moves_mask == (1 << len(ref["move_state"])) - 1
    for (i, combo), m in lookup.items():
        assert idx.move_id(model.states[i], combo) == m, label
    assert [model.post_mask(1 << i) for i in range(len(model.states))] == post, label


def random_mask(rng, n, density):
    mask = 0
    for i in range(n):
        if rng.random() < density:
            mask |= 1 << i
    return mask


def random_indexes():
    """(label, index) over corpus models, the card game and castles 1,1,1."""
    rng = random.Random(211)
    out = []
    for k in range(25):
        model = random_model(rng)
        gamma = model.coalition(rng.sample(model.agents,
                                           rng.randint(1, len(model.agents))))
        out.append(("corpus %d" % k, model.index(gamma)))
    cardgame = modelio.gen_cardgame()
    out.append(("cardgame player", cardgame.index(("player",))))
    out.append(("cardgame dealer,player", cardgame.index(("dealer", "player"))))
    castles = modelio.gen_castles(1, 1, 1)
    out.append(("castles 1,1,1", castles.index(castles.coalition(["c1w1", "c2w1"]))))
    # c2w1 sits between the coalition's agents: the digits of a pair key
    # interleave with an outsider's picks
    castles = modelio.gen_castles(1, 1, 2)
    out.append(("castles 1,1,2 <<c1w1,c3w2>>",
                castles.index(castles.coalition(["c1w1", "c3w2"]))))
    return out


INDEXES = random_indexes()


def random_moves(rng, idx, size):
    """About ``size`` random moves, often with two moves of one observation
    class that assign its agent different actions."""
    n_moves = len(idx.move_state)
    mask = 0
    for _ in range(size):
        mask |= 1 << rng.randrange(n_moves)
    if idx.gamma and rng.random() < 0.5:
        m = rng.randrange(n_moves)
        a = rng.randrange(len(idx.gamma))
        other = [x for x in range(n_moves)
                 if ref_token(idx, a, x) == ref_token(idx, a, m)
                 and idx.move_action[x][a] != idx.move_action[m][a]]
        if other:
            mask |= 1 << m | 1 << rng.choice(other)
    return mask


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_incremental_pre_move_along_growing_targets(label, idx):
    rng = random.Random(label)
    n = idx.n_states
    for _ in range(6):
        target = random_mask(rng, n, rng.choice((0.0, 0.05, 0.2)))
        assert idx.pre_move(target) == ref_pre_move(idx, target)
        while target != idx.full_states:
            grown = target | random_mask(rng, n, rng.choice((0.02, 0.1, 0.3)))
            assert idx.pre_move(grown) == ref_pre_move(idx, grown), label
            target = grown


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_pre_ce_and_moves_of_match_sweeps(label, idx):
    rng = random.Random(label)
    for density in (0.0, 0.1, 0.5, 0.9, 1.0):
        qmask = random_mask(rng, idx.n_states, density)
        assert idx.pre_ce(qmask) == ref_pre_ce(idx, qmask)
        assert idx.moves_of(qmask) == ref_moves_of(idx, qmask)


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_filter_ceu_from_a_closed_floor(label, idx):
    """The fixpoint of ``small`` is a closed floor: every target ``t`` with
    ``small <= t <= filter_ceu(q1, small)`` has the same fixpoint.  The
    search filters once per query, on the whole target, on this."""
    rng = random.Random(label)
    n = idx.n_states
    for _ in range(4):
        q1 = random_mask(rng, n, rng.choice((0.5, 0.9, 1.0)))
        small = random_mask(rng, n, 0.05)
        fixpoint = idx.filter_ceu(q1, small)
        assert fixpoint == ref_filter_ceu(idx, q1, small)
        for _ in range(3):
            grown = small | random_mask(rng, n, rng.choice((0.0, 0.05, 0.2)))
            expected = ref_filter_ceu(idx, q1, grown)
            assert idx.filter_ceu(q1, grown) == expected, label
            between = small | (fixpoint & random_mask(rng, n, rng.choice((0.1, 0.5))))
            assert ref_filter_ceu(idx, q1, between) == fixpoint, label
        assert ref_filter_ceu(idx, q1, fixpoint) == fixpoint, label


def test_reach_from_a_frames_new_coverage_is_the_fixpoint_from_scratch(monkeypatch):
    """A search frame below the root carries its parent's successor counts
    and walks only the states it adds to its parent's coverage; its
    ``reach`` continues from those counts.  Every recorded call is held to
    the sweep from ``z``, rounds included, and to per-move tallies: the
    counts it is given are the successors outside ``z`` of every allowed
    move, and those it leaves the successors outside the fixpoint."""
    rng = random.Random(223)
    models = [random_model(rng, max_states=7) for _ in range(40)]
    formulas = [[random_formula(rng, model, depth=2) for _ in range(5)]
                for model in models]
    calls = []  # (index, allowed, z, counts given, counts left, (fixpoint, rounds))
    below_the_root = 0
    reach = CoalitionIndex.reach

    def recording(idx, table, left, z, entered):
        nonlocal below_the_root
        below_the_root += sys._getframe(1).f_locals.get("new", z) != z
        given = left[:]
        answer = reach(idx, table, left, z, entered)
        calls.append((idx, table_mask(table), z, given, left[:], answer))
        return answer
    monkeypatch.setattr(CoalitionIndex, "reach", recording)
    for model, fs in zip(models, formulas):
        for f in fs:
            check(model, f)
    for counts in ((1, 1, 1), (1, 1, 2)):
        castles = modelio.gen_castles(*counts)
        for goal in ("castle3_defeated", "all_defeated"):
            check(castles, "<<c1w1,c2w1>> F " + goal,
                  query=castles.state_set(castles.initial))
    # u wins only through its move without successor
    check(make_model(["g"], ["u", "v", "t"],
                     {"g": {"u": ["a", "b"], "v": ["a"], "t": ["a"]}},
                     {("u", ("a",)): "v", ("v", ("a",)): "v", ("t", ("a",)): "t"},
                     {"g": {"u": "u", "v": "v", "t": "t"}}, {"t": ["p"]}),
          "<<g>> F p")

    for idx, allowed, z, given, left, (fixpoint, rounds) in calls:
        expected, growing = ref_reach(idx, allowed, z)
        assert fixpoint == expected
        # one round per sweep that added states, and a last that adds none
        assert rounds == (growing + 1 if expected else 0)
        for m, count in ref_counts(idx, allowed, z).items():
            assert given[m] == count
        for m, count in ref_counts(idx, allowed, fixpoint).items():
            assert left[m] == count
    assert below_the_root > 50


def test_search_frames_start_reach_from_their_candidates_states(monkeypatch):
    """Every ``reach`` call of a search frame starts from the frame's coverage,
    ``z == cov``, with the frame's candidates ``entered``: the allowed moves
    whose successors all lie in ``cov`` and not all in the parent's
    coverage ``cov & ~new``, and at the root the allowed moves without
    successors.  One walk of ``new`` finds them all: every allowed move with
    successors, all of them in the parent's coverage, already has its state
    in ``cov``.  Held to a per-move sweep on the corpus, on castles 1,1,1
    and on ``eval_ceu`` with random fragments, the empty one included."""
    calls = []  # (index, allowed, z, new, candidates) of every frame's call
    reach = CoalitionIndex.reach

    def recording(idx, table, left, z, entered):
        frame = sys._getframe(1).f_locals
        assert z == frame["cov"] and entered is frame["entered"]
        calls.append((idx, table_mask(table), z, frame["new"], sorted(entered)))
        return reach(idx, table, left, z, entered)
    monkeypatch.setattr(CoalitionIndex, "reach", recording)
    rng = random.Random(229)
    for _ in range(40):
        model = random_model(rng, max_states=7)
        for _ in range(5):
            check(model, random_formula(rng, model, depth=2))
    castles = modelio.gen_castles(1, 1, 1)
    for goal in ("castle3_defeated", "all_defeated"):
        check(castles, "<<c1w1,c2w1>> F " + goal,
              query=castles.state_set(castles.initial))
    checked = len(calls)
    empty = 0
    for _ in range(150):
        model = random_model(rng, max_states=7)
        idx = model.index(rng.sample(model.agents, rng.randint(1, min(2, len(model.agents)))))
        n, n_moves = idx.n_states, len(idx.move_state)
        strategy = 0
        if rng.random() < 0.7:
            strategy = next(idx.split_all(random_mask(rng, n_moves, rng.choice((0.1, 0.3, 0.6))),
                                          True), 0)
        empty += strategy == 0
        exclude = random_mask(rng, n_moves, 0.2) & ~strategy
        interest = random_mask(rng, n, 0.6)
        while idx.closure(interest) != interest:
            interest = idx.closure(interest)
        eval_ceu(model, StateSet(model, interest), MoveSet(model, idx.gamma, strategy),
                 StateSet(model, random_mask(rng, n, 0.8)),
                 StateSet(model, random_mask(rng, n, 0.3)), MoveSet(model, idx.gamma, exclude))
    # an empty fragment over an empty coverage wins u by its move without successors
    stuck = stuck_model()
    everything = stuck.all_states()
    nothing = MoveSet(stuck, ("g",), 0)
    assert eval_ceu(stuck, everything, nothing, everything, everything, nothing).ids() == {"u"}
    assert checked > 50 and len(calls) > checked + 20 and empty > 20
    last = calls[-1]
    assert last[2:4] == (0, 0) and last[4] == [stuck.index(("g",)).move_id("u", ("b",))]
    below_the_root = with_stuck = 0

    for idx, allowed, z, new, entered in calls:
        below_the_root += new != z
        known = z & ~new
        candidates = []
        for m, succ in enumerate(ref_succ(idx)):
            if not allowed >> m & 1:
                continue
            if succ and succ & ~known == 0:
                assert z >> idx.move_state[m] & 1
            if succ & ~z == 0 and (succ & new if succ else not z >> idx.move_state[m] & 1):
                candidates.append(m)
                with_stuck += not succ
        assert entered == candidates
    assert below_the_root > 40 and with_stuck > 0


def test_the_root_frames_not_lose_set_is_the_filter(root_calls):
    """The root frame of every until query, whose fragment is empty and whose
    coverage is the target, runs the perfect-information filter: its
    ``reach`` returns ``filter_ceu(q1, target)`` in the rounds of the sweep
    from the target.  Held on the corpus, castles 1,1,1 and 1,1,2 and the
    card game."""
    rng = random.Random(233)
    for _ in range(40):
        model = random_model(rng, max_states=7)
        for _ in range(6):
            check(model, random_formula(rng, model, depth=2))
    for counts in ((1, 1, 1), (1, 1, 2)):
        castles = modelio.gen_castles(*counts)
        for goal in ("castle3_defeated", "all_defeated"):
            check(castles, "<<c1w1,c2w1>> F " + goal,
                  query=castles.state_set(castles.initial))
    check(modelio.gen_cardgame(), "<<player>> F win")
    assert len(root_calls) > 40
    for idx, q1, target, (fixpoint, rounds) in root_calls:
        expected, growing = ref_reach(idx, idx.moves_of(q1), target)
        assert fixpoint == expected == idx.filter_ceu(q1, target)
        assert rounds == (growing + 1 if expected else 0)


def stuck_model():
    """Move (u, b) of agent g has no successor: its transition is missing.

    The index is built without validation, as for any model handed to it.
    """
    states = ["u", "v"]
    protocol = {"g": {"u": ["a", "b"], "v": ["a"]}}
    transition = {("u", ("a",)): "v", ("v", ("a",)): "v"}
    observation = {"g": {"u": "u", "v": "v"}}
    return make_model(["g"], states, protocol, transition, observation)


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_conflict_operators_match_per_move_definitions(label, idx):
    rng = random.Random(label)
    n_moves = len(idx.move_state)
    two_actions = 0
    for _ in range(30):
        base = random_moves(rng, idx, rng.choice((0, 1, 2, 4, 8)))
        candidates = random_mask(rng, n_moves, rng.choice((0.1, 0.5, 1.0)))
        clash = idx.clash(base)
        assert clash == ref_clash(idx, base), label
        assert idx.compatible(candidates, base) == ref_compatible(
            idx, candidates, base), label
        assert idx.is_conflicting(base) == ref_is_conflicting(idx, base), label
        two_actions += ref_is_conflicting(idx, base)
        other = random_moves(rng, idx, 3)
        assert idx.clash(base | other) == clash | idx.clash(other), label
    # some class offers its agent two actions: a base must have hit one
    assert two_actions or not ref_is_conflicting(idx, idx.all_moves_mask), label


def split_shapes(rng, idx, sizes):
    """Random move masks, and the moves of a few whole states (every class
    offers all its actions)."""
    shapes = [random_moves(rng, idx, rng.choice(sizes)) for _ in range(12)]
    for _ in range(4):
        states = rng.sample(range(idx.n_states), min(idx.n_states, 3))
        shapes.append(idx.moves_of(sum(1 << i for i in states)))
    return shapes


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_maximal_split_matches_the_per_move_filter(label, idx):
    rng = random.Random(label)
    shapes = split_shapes(rng, idx, (1, 3, 6, 10))
    shapes.append(idx.all_moves_mask if len(idx.move_state) <= 24 else 0)
    for movemask in shapes:
        assert list(idx.split_all(movemask, True)) == ref_split_max(
            idx, movemask), label


def assert_splits_match(idx, shapes, label):
    for movemask in shapes:
        for a in range(len(idx.gamma)):
            for maximal in (True, False):
                assert list(idx.split_agent(a, movemask, maximal)) == ref_split_agent(
                    idx, a, movemask, maximal), (label, a, maximal)
        assert list(idx.split_all(movemask, False)) == ref_split_fold(idx, movemask), label


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_splits_match_the_token_reference(label, idx):
    assert_splits_match(idx, split_shapes(random.Random(label), idx, (1, 3, 6)), label)


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_the_split_yields_each_subset_of_the_fold_once(label, idx):
    """The non-maximal split keeps no set of its outputs, yet yields every
    subset the fold reaches exactly once: the same subsets as the fold's
    first occurrences."""
    rng = random.Random(label)
    repeated = 0
    for movemask in split_shapes(rng, idx, (1, 3, 6, 10)):
        produced = list(idx.split_all(movemask, False))
        first = ref_split_first(idx, movemask, False)
        assert len(set(produced)) == len(produced), label
        assert set(produced) == set(first), label
        repeated += len(ref_split_paths(idx, movemask, False)) > len(first)
    # the fold reaches some subset on more than one path
    assert repeated or len(idx.gamma) < 2, label


def test_drawing_root_children_keeps_no_memory():
    """The non-maximal split keeps nothing per output.  The root of the
    castles 1,2,2 query ``<<c1w1,c2w1,c2w2>> F all_defeated`` splits the
    moves that surely enter the target from outside it; drawing 2,000 of
    its children grows traced memory by less than 100 KB, where a set of
    the children drawn would hold about 3 MB."""
    model = modelio.gen_castles(1, 2, 2)
    idx = model.index(model.coalition(["c1w1", "c2w1", "c2w2"]))
    target = model.label_mask("all_defeated")
    stream = idx.split_all(idx.pre_move(target) & idx.moves_of(idx.full_states & ~target),
                           False)
    next(stream)
    tracemalloc.start()
    try:
        for _ in range(2000):
            next(stream)
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown < 100_000


def ranking_model():
    """Agent g leaves u1 and u4 unobserved (token None) beside the tokens
    "z" and "a", which first appear in the reverse of their sorted order;
    the protocols list their actions out of sorted order."""
    states = ["u0", "u1", "u2", "u3", "u4"]
    protocol = {"g": {"u0": ["y", "b"], "u1": ["c", "a"], "u2": ["b"],
                      "u3": ["y", "b", "a"], "u4": ["a", "c"]},
                "h": {q: ["s", "r"] for q in states}}
    transition = {}
    for i, q in enumerate(states):
        for j, joint in enumerate(itertools.product(protocol["g"][q], protocol["h"][q])):
            transition[(q, joint)] = states[(i + j) % len(states)]
    observation = {"g": {"u0": "z", "u2": "a", "u3": "z"},
                   "h": {"u0": "o", "u1": "o", "u2": "p", "u3": "o", "u4": "p"}}
    return make_model(["g", "h"], states, protocol, transition, observation)


@pytest.mark.parametrize("gamma", [("g",), ("g", "h")])
def test_keys_rank_classes_by_first_appearance(gamma):
    idx = CoalitionIndex(ranking_model(), gamma)
    assert_tables_match(idx, "ranking %r" % (gamma,))
    # g's classes "z", None, "a" in that order; sorted actions within each
    first_keys = [idx.move_key[0][idx.moves_at[i][0]] for i in range(5)]
    assert [idx.key_range[0][k] for k in first_keys] == [
        range(0, 3), range(3, 5), range(5, 6), range(0, 3), range(3, 5)]
    z_keys = {idx.move_action[m][0]: idx.move_key[0][m]
              for m in (*idx.moves_at[0], *idx.moves_at[3])}
    assert z_keys == {"a": 0, "b": 1, "y": 2}
    rng = random.Random(7)
    for _ in range(20):
        base = random_moves(rng, idx, rng.choice((1, 2, 4)))
        assert idx.clash(base) == ref_clash(idx, base)
    assert_splits_match(idx, split_shapes(rng, idx, (1, 3, 6)) + [idx.all_moves_mask],
                        "ranking")


def test_tables_match_past_the_narrow_mask_width():
    # more than 4096 moves: the key masks come from per-key id arrays
    model = modelio.gen_castles(1, 1, 1)
    idx = model.index(model.coalition(["c1w1", "c2w1", "c3w1"]))
    assert len(idx.move_state) > 4096
    assert_tables_match(idx, "castles 1,1,1 wide")
    rng = random.Random(5)
    for _ in range(3):
        base = random_moves(rng, idx, 4)
        assert idx.clash(base) == ref_clash(idx, base)


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_tables_match_the_per_joint_construction(label, idx):
    assert_tables_match(idx, label)
    empty = CoalitionIndex(idx.model, ())
    assert_tables_match(empty, label + " empty coalition")


def test_tables_match_with_a_missing_transition_and_a_stuck_agent():
    # u: g has a, b and h has c, d, with the transition of (b, d) missing;
    # v: h has no enabled action, so every move of g there is stuck.
    states = ["u", "v", "w"]
    protocol = {"g": {"u": ["a", "b"], "v": ["a"], "w": ["b", "a"]},
                "h": {"u": ["d", "c"], "w": ["c"]}}
    transition = {("u", ("a", "c")): "v", ("u", ("a", "d")): "w",
                  ("u", ("b", "c")): "w", ("w", ("a", "c")): "u",
                  ("w", ("b", "c")): "w"}
    observation = {"g": {"u": "o", "v": "p", "w": "o"},
                   "h": {"u": "u", "v": "v", "w": "w"}}
    model = make_model(["g", "h"], states, protocol, transition, observation)
    rows = model.rows
    assert list(rows[0]) == [1, 2, 2, -1] and rows[1] is None
    assert list(rows[2]) == [0, 2]
    for gamma in [(), ("g",), ("h",), ("g", "h")]:
        idx = CoalitionIndex(model, gamma)
        assert_tables_match(idx, "stuck %r" % (gamma,))
    idx = model.index(("g",))
    assert idx.moves_at[1] == range(2, 3) and idx.n_succ[2] == 0
    assert idx.stuck_moves >> 2 & 1


def test_tables_match_with_transitions_into_undeclared_states():
    # -2 slots decode to a successor below 0 under the +2 offset of a pair
    # key, first in a row (key 0) and later; (w, a) of g reaches only one.
    states = ["u", "v", "w"]
    protocol = {"g": {"u": ["a", "b"], "v": ["a"], "w": ["a", "b"]},
                "h": {"u": ["c", "d"], "v": ["c"], "w": ["c"]}}
    transition = {("u", ("a", "c")): "x", ("u", ("a", "d")): "v",
                  ("u", ("b", "c")): "w", ("u", ("b", "d")): "y",
                  ("v", ("a", "c")): "w", ("w", ("a", "c")): "x",
                  ("w", ("b", "c")): "u"}
    observation = {"g": {"u": "o", "v": "p", "w": "o"},
                   "h": {"u": "u", "v": "v", "w": "w"}}
    model = make_model(["g", "h"], states, protocol, transition, observation)
    assert [list(row) for row in model.rows] == [[-2, 1, 2, -2], [2], [-2, 0]]
    for gamma in [(), ("g",), ("h",), ("g", "h")]:
        assert_tables_match(CoalitionIndex(model, gamma), "undeclared %r" % (gamma,))
    idx = model.index(("g",))
    stuck = idx.move_id("w", ("a",))
    assert idx.n_succ[stuck] == 0 and idx.stuck_moves >> stuck & 1
    assert idx.n_succ[idx.move_id("u", ("a",))] == 1


def test_index_takes_its_joint_tables_once_per_menu_tuple(monkeypatch):
    model = modelio.gen_castles(1, 1, 2)
    product = itertools.product
    calls = []

    def counted(*iterables):
        calls.append(len(iterables))
        return product(*iterables)

    monkeypatch.setattr(itertools, "product", counted)
    gamma = model.coalition(["c1w1", "c3w2"])
    idx = CoalitionIndex(model, gamma)
    menus = {tuple(model.protocol[ag][q] for ag in model.agents)
             for q in model.states}
    # per distinct tuple of all agents' menus: its coalition actions and its
    # pair keys, where a product per state took one more per state
    assert len(calls) == 2 * len(menus) < len(model.states)
    monkeypatch.undo()
    assert_tables_match(idx, "castles 1,1,2 counted")


def test_tables_match_on_an_incomplete_castles_model():
    model = modelio.gen_castles(1, 1, 1)
    transition = dict(model.transition)
    for key in list(transition)[::97]:
        del transition[key]
    broken = Icgs(model.agents, model.states, model.initial, model.actions,
                  model.protocol, transition, model.observation, model.labels)
    assert any(-1 in row for row in broken.rows)
    for names in (["c1w1", "c2w1"], ["c3w1"]):
        assert_tables_match(broken.index(broken.coalition(names)), str(names))


def test_move_without_successor_is_in_pre_move_of_every_target():
    model = stuck_model()
    idx = model.index(("g",))
    stuck = 1 << idx.move_id("u", ("b",))
    assert idx.pre_move(0) == stuck == ref_pre_move(idx, 0)
    u, v = 1, 2
    assert idx.pre_move(v) == ref_pre_move(idx, v)
    assert idx.pre_ce(0) == u == ref_pre_ce(idx, 0)
    assert idx.filter_ceu(idx.full_states, 0) == u == ref_filter_ceu(idx, idx.full_states, 0)


def test_reverse_index_lists_each_move_once_per_successor():
    for label, idx in INDEXES:
        for s, moves in enumerate(idx.pred_moves):
            assert len(set(moves)) == len(moves), label
            assert sorted(moves) == [m for m, succ in enumerate(ref_succ(idx))
                                     if succ >> s & 1], label
        assert sum(len(moves) for moves in idx.pred_moves) == sum(idx.n_succ)


@pytest.mark.parametrize("width", [0, 1, 64, 4096, 4097, 50000])
def test_bits_lists_set_positions_lowest_first(width):
    # Masks longer than 4096 bits take the binary-text scan.
    rng = random.Random(width)
    for density in (0.0, 0.001, 0.3, 1.0):
        positions = sorted(i for i in range(width) if rng.random() < density)
        if width:
            positions = sorted(set(positions) | {width - 1})
        mask = sum(1 << i for i in positions)
        assert list(bits(mask)) == positions
