"""The index's mask engine against plain sweeps and per-move definitions.

The index answers ``pre_move``, ``pre_ce``, ``filter_ceu`` and ``moves_of``
backwards over a reverse index and incrementally along growing targets, and
every conflict question through the one mask operator ``clash``.  The
references below are the direct definitions, each a sweep over all moves or
states or a per-agent table rebuilt from the moves of a mask, kept here so
that every shortcut is held to them.
"""

import itertools
import random
from array import array

import pytest

from atlir import modelio
from atlir._index import CoalitionIndex
from atlir.icgs import Icgs, bits

from corpus import make_model, random_model


def ref_moves_of(idx, qmask):
    out = 0
    for m, si in enumerate(idx.move_state):
        if qmask >> si & 1:
            out |= 1 << m
    return out


def ref_pre_move(idx, target):
    out = 0
    for m, succ in enumerate(idx.succ_mask):
        if succ & ~target == 0:
            out |= 1 << m
    return out


def ref_pre_ce(idx, target):
    out = 0
    for m, succ in enumerate(idx.succ_mask):
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


def ref_is_conflicting(idx, movemask):
    for a in range(len(idx.gamma)):
        seen = {}
        for m in bits(movemask):
            t = idx.move_tok[a][m]
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
            acts = assigned[a].setdefault(idx.move_tok[a][m], set())
            acts.add(idx.move_action[m][a])
    out = 0
    for m in bits(candidates):
        for a in range(k):
            acts = assigned[a].get(idx.move_tok[a][m])
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
            assigned[a][idx.move_tok[a][m]] = idx.move_action[m][a]
    for x in bits(movemask & ~mask):
        for a in range(k):
            act = assigned[a].get(idx.move_tok[a][x])
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
        if any(idx.move_tok[a][x] == idx.move_tok[a][m]
               and idx.move_action[x][a] != idx.move_action[m][a]
               for m in ms for a in range(k)):
            out |= 1 << x
    return out


def ref_split_max(idx, movemask):
    """The per-agent maximal fold, deduplicated, with every output held to
    ``ref_is_maximal`` (no product shortcut)."""
    masks = [movemask]
    for a in range(len(idx.gamma)):
        masks = [sub for mask in masks for sub in idx.split_agent(a, mask, True)]
    out = []
    for mask in dict.fromkeys(masks):
        if ref_is_maximal(idx, mask, movemask):
            out.append(mask)
    return out


def ref_tables(model, gamma):
    """The move, successor and reverse tables built joint by joint: each
    transition looked up, projected onto the coalition and its move found."""
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
    transition = model.transition
    for i, q in enumerate(model.states):
        proto = [model.protocol[ag].get(q, ()) for ag in model.agents]
        if any(not acts for acts in proto):
            continue
        for joint in itertools.product(*proto):
            target = transition.get((q, joint))
            if target is None:
                continue
            t = model._state_pos[target]
            bit = 1 << t
            post[i] |= bit
            mid = lookup[(i, tuple(joint[p] for p in gamma_pos))]
            if not succ[mid] & bit:
                succ[mid] |= bit
                pred[t].append(mid)
    stuck_moves = stuck_states = 0
    for m, s in enumerate(succ):
        if not s:
            stuck_moves |= 1 << m
            stuck_states |= 1 << move_state[m]
    return {"move_state": move_state, "move_action": move_action,
            "moves_at": moves_at, "_lookup": lookup, "succ_mask": succ,
            "pred_moves": pred, "post_mask": post, "stuck_moves": stuck_moves,
            "stuck_states": stuck_states}


def ref_observation_tables(model, gamma, move_state, move_action):
    """Per coalition agent, the token and class tables, move by move, and the
    per-state closure."""
    n = len(model.states)
    out = {"tok": [], "class_states": [], "move_tok": [], "class_moves": [],
           "class_action_moves": []}
    closure = [0] * n
    for a, ag in enumerate(gamma):
        obs = model.observation.get(ag, {})
        tok = [obs.get(q) for q in model.states]
        cstates = {}
        for i in range(n):
            cstates[tok[i]] = cstates.get(tok[i], 0) | (1 << i)
        cmoves, camoves = {}, {}
        for m, si in enumerate(move_state):
            cmoves[tok[si]] = cmoves.get(tok[si], 0) | (1 << m)
            key = (tok[si], move_action[m][a])
            camoves[key] = camoves.get(key, 0) | (1 << m)
        for i in range(n):
            closure[i] |= cstates[tok[i]]
        out["tok"].append(tok)
        out["class_states"].append(cstates)
        out["move_tok"].append([tok[si] for si in move_state])
        out["class_moves"].append(cmoves)
        out["class_action_moves"].append(camoves)
    out["closure_of"] = closure
    return out


def assert_tables_match(idx, label):
    model, gamma = idx.model, idx.gamma
    ref = ref_tables(model, gamma)
    ref.update(ref_observation_tables(model, gamma, ref["move_state"],
                                      ref["move_action"]))
    for name, expected in ref.items():
        assert getattr(idx, name) == expected, (label, name)
    # list order, not only content
    for name in ("class_states", "class_moves", "class_action_moves"):
        assert [list(d) for d in getattr(idx, name)] == [
            list(d) for d in ref[name]], (label, name)
    assert idx.all_moves_mask == (1 << len(ref["move_state"])) - 1
    for (i, combo), m in ref["_lookup"].items():
        assert idx.move_id(model.states[i], combo) == m, label


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
        cls = idx.class_moves[a][idx.move_tok[a][m]]
        other = [x for x in bits(cls)
                 if idx.move_action[x][a] != idx.move_action[m][a]]
        if other:
            mask |= 1 << m | 1 << rng.choice(other)
    return mask


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_incremental_pre_move_along_growing_targets(label, idx):
    rng = random.Random(label)
    n = idx.n_states
    for _ in range(6):
        target = random_mask(rng, n, rng.choice((0.0, 0.05, 0.2)))
        good = idx.pre_move(target)
        assert good == ref_pre_move(idx, target)
        while target != idx.full_states:
            grown = target | random_mask(rng, n, rng.choice((0.02, 0.1, 0.3)))
            good = idx.pre_move(grown, target, good)
            assert good == ref_pre_move(idx, grown), label
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
    search filters once per seed on this."""
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


@pytest.mark.parametrize("label,idx", INDEXES, ids=[lab for lab, _ in INDEXES])
def test_maximal_split_matches_the_per_move_filter(label, idx):
    rng = random.Random(label)
    n_moves = len(idx.move_state)
    shapes = [random_moves(rng, idx, rng.choice((1, 3, 6, 10))) for _ in range(12)]
    # full action products over a few states take the uniform-product path
    for _ in range(4):
        states = rng.sample(range(idx.n_states), min(idx.n_states, 3))
        shapes.append(idx.moves_of(sum(1 << i for i in states)))
    shapes.append(idx.all_moves_mask if n_moves <= 24 else 0)
    for movemask in shapes:
        assert list(idx.split_all(movemask, True)) == ref_split_max(
            idx, movemask), label


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
    assert idx.moves_at[1] == range(2, 3) and idx.succ_mask[2] == 0
    assert idx.stuck_moves >> 2 & 1


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
    assert idx.pre_move(v, 0, 0) & stuck
    assert idx.pre_move(u | v, v, idx.pre_move(v)) == idx.all_moves_mask
    assert idx.pre_ce(0) == u == ref_pre_ce(idx, 0)
    assert idx.filter_ceu(idx.full_states, 0) == u == ref_filter_ceu(idx, idx.full_states, 0)


def test_reverse_index_lists_each_move_once_per_successor():
    for label, idx in INDEXES:
        for s, moves in enumerate(idx.pred_moves):
            assert len(set(moves)) == len(moves), label
            assert sorted(moves) == [m for m, succ in enumerate(idx.succ_mask)
                                     if succ >> s & 1], label
        assert sum(len(moves) for moves in idx.pred_moves) == sum(
            len(list(bits(succ))) for succ in idx.succ_mask)


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
