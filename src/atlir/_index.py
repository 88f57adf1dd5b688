"""Internal per-coalition index: integer move tables and bit-mask operators.

Everything here works on plain ints: a state set is a bit mask over state
positions, a move set a bit mask over move ids.  Move ids are assigned in
canonical order (state-major, then lexicographic on the coalition action
tuple), so ascending bit order *is* canonical iteration order and the moves
of one state form a contiguous id range.

The tables are built from the model's successor rows, ``Icgs.rows``.  They
are the model's only store of its transitions (``Icgs.transition`` builds a
new dict from them on every access) and list each state's joint actions in
``itertools.product`` order over the agents' protocols.  The position of a
joint action in its row fixes each agent's pick as one digit, so its move id
is the state's first move id plus the coalition's digits read as a
mixed-radix number over the coalition's protocol sizes.  The ids of a whole
row come from ``map(sum, product(...))``, with no lookup or projection per
joint action.

The predecessor operators run backwards over a reverse index, the moves that
can reach each state, so a caller whose target only grows pays for the
states it adds instead of a sweep over every move.

Conflicts are masks as well: ``clash(mask)`` is the set of moves that
conflict with some move of the mask, and compatibility, conflict and the
maximality of a split are each one mask expression over it.  It distributes
over union, so a search can carry the clash of its fragment down its stack.
"""

from __future__ import annotations

import itertools
from array import array

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
        coalition_protocols = [protocol[ag] for ag in gamma]
        # last agent first: its protocol, and whether it is in the coalition
        radix = [(protocol[ag], ag in gamma) for ag in reversed(model.agents)]
        rows = model.rows
        move_state = []
        move_action = []
        moves_at = []  # per state: the range of its move ids
        lookup = {}
        succ = []
        pred = [array("i") for _ in range(n)]
        post = [0] * n
        for i, q in enumerate(model.states):
            first = len(move_state)
            combos = list(itertools.product(
                *[per_state.get(q, ()) for per_state in coalition_protocols]))
            stop = first + len(combos)
            lookup.update(zip(zip(itertools.repeat(i), combos), range(first, stop)))
            move_state.extend(itertools.repeat(i, len(combos)))
            move_action.extend(combos)
            moves_at.append(range(first, stop))
            succ.extend(itertools.repeat(0, len(combos)))
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
        self._lookup = lookup
        n_moves = len(move_state)
        self.all_moves_mask = (1 << n_moves) - 1
        self._move_bytes = (n_moves + 7) // 8
        self.succ_mask = succ
        self.pred_moves = pred
        self.post_mask = post
        # A move without successors surely enters every target, the empty
        # one included.
        self.stuck_moves = self.stuck_states = 0
        for m, s in enumerate(succ):
            if not s:
                self.stuck_moves |= 1 << m
                self.stuck_states |= 1 << move_state[m]

        # Observation machinery per coalition agent.
        self.tok = []           # per agent: token per state position
        self.class_states = []  # per agent: token -> state mask
        self.move_tok = []      # per agent: token per move id
        self.class_moves = []   # per agent: token -> move mask
        self.class_action_moves = []  # per agent: (token, action) -> move mask
        for a, ag in enumerate(gamma):
            obs = model.observation.get(ag, {})
            tok = [obs.get(q) for q in model.states]
            cstates = {}
            for i in range(n):
                cstates[tok[i]] = cstates.get(tok[i], 0) | (1 << i)
            mtok = [tok[si] for si in move_state]
            cmoves = {}
            camoves = {}
            for m, si in enumerate(move_state):
                t = tok[si]
                cmoves[t] = cmoves.get(t, 0) | (1 << m)
                key = (t, move_action[m][a])
                camoves[key] = camoves.get(key, 0) | (1 << m)
            self.tok.append(tok)
            self.class_states.append(cstates)
            self.move_tok.append(mtok)
            self.class_moves.append(cmoves)
            self.class_action_moves.append(camoves)

        # Per-state closure mask: union over coalition agents of the state's
        # observation class.  Empty coalition: empty closure.
        closure = [0] * n
        for a in range(len(gamma)):
            cstates = self.class_states[a]
            tok = self.tok[a]
            for i in range(n):
                closure[i] |= cstates[tok[i]]
        self.closure_of = closure

    # -- state-level operators ----------------------------------------------

    def move_id(self, state, picks):
        i = self.model.state_position(state)
        try:
            return self._lookup[(i, tuple(picks))]
        except KeyError:
            from .errors import DisabledJointAction
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
        each (agent, token, action) the mask assigns, of the class's moves
        with another action.  ``clash(a | b) == clash(a) | clash(b)``.
        """
        out = 0
        seen = set()
        for m in bits(movemask):
            act = self.move_action[m]
            for a, toks in enumerate(self.move_tok):
                key = (a, toks[m], act[a])
                if key not in seen:
                    seen.add(key)
                    # the class's moves without those of the action (a subset)
                    out |= (self.class_moves[a][key[1]]
                            ^ self.class_action_moves[a][key[1:]])
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
        order (by least move id); each contributes one option per action it
        assigns to ``a`` (sorted), plus a drop option when not maximal.
        """
        if movemask == 0:
            yield 0
            return
        options = []
        rem = movemask
        while rem:
            mid = (rem & -rem).bit_length() - 1
            t = self.move_tok[a][mid]
            cls = self.class_moves[a][t] & movemask
            rem &= ~cls
            acts = sorted({self.move_action[m][a] for m in bits(cls)})
            opts = [self.class_action_moves[a][(t, act)] & movemask for act in acts]
            if not maximal:
                opts.append(0)
            options.append(opts)
        for combo in itertools.product(*options):
            out = 0
            for sub in combo:
                out |= sub
            yield out

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
