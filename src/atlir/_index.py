"""Internal per-coalition index: integer move tables and bit-mask operators.

Everything here works on plain ints: a state set is a bit mask over state
positions, a move set a bit mask over move ids.  Move ids are assigned in
canonical order (state-major, then lexicographic on the coalition action
tuple), so ascending bit order *is* canonical iteration order and the moves
of one state form a contiguous id range.

The tables are built from the model's successor rows, ``Icgs.rows``, the
model's only store of its transitions.  A row lists its state's joint
actions in ``itertools.product`` order over the agents' protocols.  The
position of a joint action in its row fixes each agent's pick as one digit,
so its move id is the state's first move id plus the coalition's digits read
as a mixed-radix number over the coalition's protocol sizes.  The ids of a
whole row come from ``map(sum, product(...))``, with no lookup or projection
per joint action.

The predecessor operators run backwards over a reverse index, the moves that
can reach each state, so a caller whose target only grows pays for the
states it adds instead of a sweep over every move.

Conflicts are masks as well.  Every coalition agent gives each move one
integer key: the (observation class, action) pair that the move assigns the
agent.  Classes are ranked by first appearance over the states, so tokens
are never compared and the token ``None`` of an unobserved state is a class
like any other.  Keys run class by class and by sorted action within a
class, so the keys of one class form one range.  Per agent the index keeps
the key of each move and, per key, its moves, its class's moves and its
class's key range.  ``clash(mask)``, the moves that conflict with some move
of the mask, is the union over the keys the mask uses of their class's moves
with another key; compatibility, conflict and the maximality of a split are
each one mask expression over it.  It distributes over union, so a search
can carry the clash of its fragment down its stack.
"""

from __future__ import annotations

import functools
import itertools
from array import array

from .errors import DisabledJointAction
from .icgs import bits


class CoalitionIndex:
    """Move tables and mask operators for one model and one coalition."""

    def __init__(self, model, gamma):
        self.model = model
        self.gamma = gamma
        n = len(model.states)
        self.n_states = n
        self.full_states = (1 << n) - 1

        # Enumerate coalition moves in canonical order: protocols are sorted
        # tuples, so their product is.  From the model's successor rows, the
        # successors of each move over all completions by the other agents;
        # the reverse index: per state, the moves with that state among their
        # successors, each listed once; and the plain post relation.
        protocol = model.protocol
        coalition_protocols = [protocol.get(ag, {}) for ag in gamma]
        # last agent first: its protocol, and whether it is in the coalition
        radix = [(protocol.get(ag, {}), ag in gamma) for ag in reversed(model.agents)]
        rows = model.rows
        move_state, move_action = [], []
        moves_at = []  # per state: the range of its move ids
        # states with equal coalition menus share their action tuples
        combos_of = functools.cache(lambda menus: list(itertools.product(*menus)))
        succ = self.succ_mask = []
        pred = self.pred_moves = [array("i") for _ in range(n)]
        post = self.post_mask = [0] * n
        for i, q in enumerate(model.states):
            first = len(move_state)
            combos = combos_of(tuple(per_state.get(q, ())
                                     for per_state in coalition_protocols))
            move_state += [i] * len(combos)
            move_action.extend(combos)
            moves_at.append(range(first, first + len(combos)))
            succ += [0] * len(combos)
            row = rows[i]
            if row is None:
                continue
            # A joint action's move id: ``first`` plus the coalition's picks
            # read as a mixed-radix number over the coalition's protocol
            # sizes.  One term per agent, 0 for the others, summed in the
            # product order of the row.
            terms = []
            weight = 1
            for per_state, inside in radix:
                size = len(per_state[q])
                if inside:
                    terms.append(range(0, weight * size, weight))
                    weight *= size
                else:
                    terms.append((0,) * size)
            terms.append((first,))
            move_ids = map(sum, itertools.product(*reversed(terms)))
            reached = 0
            # each (move, successor) pair once, in the order first reached
            for m, t in dict.fromkeys(zip(move_ids, row)):
                if t >= 0:
                    bit = 1 << t
                    reached |= bit
                    succ[m] |= bit
                    pred[t].append(m)
            post[i] = reached
        self.move_state = move_state
        self.move_action = move_action
        self.moves_at = moves_at
        n_moves = len(move_state)
        self.all_moves_mask = (1 << n_moves) - 1
        self._move_bytes = (n_moves + 7) // 8
        # A move without successors surely enters every target, the empty
        # one included.
        self.stuck_moves = self.stuck_states = 0
        for m, s in enumerate(succ):
            if not s:
                self.stuck_moves |= 1 << m
                self.stuck_states |= 1 << move_state[m]

        # Conflict keys (see above).  Per agent: the key of each move, an
        # array; per key: its moves, its class's moves and its class's key
        # range.  The closure of a state is the union of its classes, empty
        # for the empty coalition.
        self.move_key, self.key_moves, self.class_mask, self.key_range = [], [], [], []
        closure = [0] * n
        for a, (ag, acts) in enumerate(zip(gamma, coalition_protocols)):
            obs = model.observation.get(ag, {})
            rank = {}
            state_class = [rank.setdefault(obs.get(q), len(rank)) for q in model.states]
            members = [0] * len(rank)  # per class: its states
            class_keys = [{} for _ in rank]  # per class: action -> key
            for i, c in enumerate(state_class):
                members[c] |= 1 << i
                if moves_at[i]:
                    class_keys[c].update(dict.fromkeys(acts[model.states[i]]))
            closure = [mask | members[c] for mask, c in zip(closure, state_class)]
            key_range = []
            for keys in class_keys:
                span = range(len(key_range), len(key_range) + len(keys))
                keys.update(zip(sorted(keys), span))
                key_range += [span] * len(span)
            move_key = array("i", [class_keys[state_class[si]][act[a]]
                                   for si, act in zip(move_state, move_action)])
            if len(move_key) <= 4096:  # narrow masks: one OR per move
                key_moves = [0] * len(key_range)
                for m, k in enumerate(move_key):
                    key_moves[k] |= 1 << m
            else:  # OR-ing bit by bit would copy a wide mask per move
                ids = [array("i") for _ in key_range]
                for m, k in enumerate(move_key):
                    ids[k].append(m)
                key_moves = list(map(self._mask, ids))
            class_mask = []
            for keys in class_keys:  # a class's keys have disjoint moves
                class_mask += [sum(map(key_moves.__getitem__, keys.values()))] * len(keys)
            self.move_key.append(move_key)
            self.key_moves.append(key_moves)
            self.class_mask.append(class_mask)
            self.key_range.append(key_range)
        self.closure_of = closure

    # -- state-level operators ----------------------------------------------

    @functools.cached_property
    def _lookup(self):  # (state position, coalition action) -> move id
        return dict(zip(zip(self.move_state, self.move_action), itertools.count()))

    def move_id(self, state, picks):
        i = self.model.state_position(state)
        try:
            return self._lookup[(i, tuple(picks))]
        except KeyError:
            raise DisabledJointAction(
                "coalition action %r is not enabled in state %r"
                % (tuple(picks), state)) from None

    def moves_of(self, qmask):
        # One range per run of consecutive states: their moves are adjacent.
        out = 0
        moves_at = self.moves_at
        while qmask:
            low = qmask & -qmask
            carry = qmask + low  # clears the run of set bits starting at low
            first = low.bit_length() - 1
            stop = (carry & -carry).bit_length() - 1
            out |= (1 << moves_at[stop - 1].stop) - (1 << moves_at[first].start)
            qmask &= carry
        return out

    def cover(self, movemask):
        out = 0
        for m in bits(movemask):
            out |= 1 << self.move_state[m]
        return out

    def post(self, qmask):
        out = 0
        for i in bits(qmask):
            out |= self.post_mask[i]
        return out

    def closure(self, qmask):
        out = 0
        for i in bits(qmask):
            out |= self.closure_of[i]
        return out

    def closed_within(self, qmask, inside):
        """States of ``qmask`` whose whole closure lies inside ``inside``."""
        out = 0
        outside = ~inside
        for i in bits(qmask):
            if self.closure_of[i] & outside == 0:
                out |= 1 << i
        return out

    def _mask(self, move_ids):
        """The move mask of an iterable of move ids, built in one pass."""
        buf = bytearray(self._move_bytes)
        for m in move_ids:
            buf[m >> 3] |= 1 << (m & 7)
        return int.from_bytes(buf, "little")

    def pre_move(self, target_states, known=0, known_moves=0):
        """Moves all of whose completions land in ``target_states``.

        ``known`` is an optional subset of the target whose answer
        ``known_moves == pre_move(known)`` the caller already holds, e.g.
        from the target it grew from.  A move that surely enters the target
        but not ``known`` has a successor among the added states, so only
        their predecessors are examined.  With ``known == 0`` the answer
        starts from the moves without any successor, which belong to the
        answer for every target.
        """
        if not known:
            known_moves = self.stuck_moves
        outside = ~target_states
        succ = self.succ_mask
        pred = self.pred_moves
        found = [m for s in bits(target_states & ~known) for m in pred[s]
                 if succ[m] & outside == 0]
        if not found:
            return known_moves
        return known_moves | self._mask(found)

    def pre_ce(self, target_states):
        """States with some enabled coalition action surely entering the target."""
        return self.cover(self.pre_move(target_states))

    def filter_ceu(self, q1mask, target, stats=None):
        """Least fixpoint of ``Z -> target | (q1 & pre_ce(Z))``.

        The worklist starts from ``target`` and the states of ``q1`` with a
        move without successors; each round examines only the predecessors
        of the states the round before added.  ``stats.fixpoint_iterations``
        counts these rounds.  Every target between ``target`` and the result
        has the same result, so the search calls it once per query, on the
        whole until target: every maximal seed covers that target, and every
        coverage a fragment grows to lies inside the result.
        """
        z = frontier = target | (q1mask & self.stuck_states)
        succ = self.succ_mask
        pred = self.pred_moves
        move_state = self.move_state
        rounds = 0
        while frontier:
            rounds += 1
            open_states = q1mask & ~z
            outside = ~z
            gain = 0
            for s in bits(frontier):
                for m in pred[s]:
                    bit = 1 << move_state[m]
                    if open_states & bit and succ[m] & outside == 0:
                        gain |= bit
                        open_states ^= bit
            z |= gain
            frontier = gain
        if stats is not None:
            stats.fixpoint_iterations += rounds
        return z

    # -- conflicts ----------------------------------------------------------

    def clash(self, movemask):
        """The moves that conflict with some move of ``movemask``.

        A move conflicts with a move of the mask when some agent observes
        both states alike but is asked to act differently: the union, over
        each key the mask uses, of its class's moves with another key.
        ``clash(a | b) == clash(a) | clash(b)``.
        """
        out = 0
        moves = list(bits(movemask))
        for move_key, class_mask, key_moves in zip(
                self.move_key, self.class_mask, self.key_moves):
            for k in set(map(move_key.__getitem__, moves)):
                out |= class_mask[k] ^ key_moves[k]
        return out

    def is_conflicting(self, movemask):
        return movemask & self.clash(movemask) != 0

    def compatible(self, candidates, base):
        """Candidates that conflict with no move of ``base``."""
        return candidates & ~self.clash(base)

    # -- splitting ----------------------------------------------------------

    def split_agent(self, a, movemask, maximal):
        """Stream the subsets of non-conflicting classes of one agent.

        The classes of ``movemask`` for agent ``a`` are peeled in canonical
        order (by least move id); each contributes one option per key of the
        class that ``movemask`` uses, in key order (the sorted actions), plus
        a drop option when not maximal.
        """
        move_key, key_moves = self.move_key[a], self.key_moves[a]
        options = []
        rem = movemask
        while rem:
            k = move_key[(rem & -rem).bit_length() - 1]
            rem &= ~self.class_mask[a][k]
            opts = [sub for sub in (key_moves[j] & movemask for j in self.key_range[a][k])
                    if sub]
            if not maximal:
                opts.append(0)
            options.append(opts)
        for combo in itertools.product(*options):
            yield sum(combo)  # the options of distinct classes are disjoint

    def split_all(self, movemask, maximal):
        """Stream the per-agent split fold over the whole coalition.

        Outputs are deduplicated structurally.  For ``maximal`` runs, outputs
        that are not genuinely maximal (a dropped input move could be added
        back without a conflict, which per-agent folds cannot rule out on
        ragged inputs) are filtered away.
        """
        k = len(self.gamma)
        if k == 0:
            yield movemask
            return
        seen = set()

        def rec(mask, ai):
            if ai == k:
                if mask in seen:
                    return
                seen.add(mask)
                # maximal: no dropped input move can be added back
                if maximal and movemask & ~mask & ~self.clash(mask):
                    return
                yield mask
                return
            for sub in self.split_agent(ai, mask, maximal):
                yield from rec(sub, ai + 1)

        yield from rec(movemask, 0)
