"""Internal per-coalition index: integer move tables and bit-mask operators.

Everything here works on plain ints: a state set is a bit mask over state
positions, a move set a bit mask over move ids.  Move ids are assigned in
canonical order (state-major, then lexicographic on the coalition action
tuple), so ascending bit order *is* canonical iteration order and the moves
of one state form a contiguous id range.

The tables are built from the model's successor rows, ``Icgs.rows``, the
model's only store of its transitions.  A row lists its state's joint
actions in ``itertools.product`` order over the state's menus,
``Icgs.menus``: one sorted protocol per agent, in model order.  The
position of a joint action in its row fixes each agent's pick as one digit,
so its move id is the state's first move id plus the coalition's digits read
as a mixed-radix number over the coalition's protocol sizes.  States with the
same menus share one table: per joint action, a pair key that packs that
offset above room for the successor.  Adding a row to its keys gives one int
per (move, successor) pair, so a state's pairs are one ``dict.fromkeys`` over
``map(operator.add, keys, row)``, with no lookup, product or tuple per joint
action.

The predecessor operators run backwards over a reverse index, the moves that
can reach each state, and over successor counts: ``n_succ`` holds each
move's number of distinct successors, and no move keeps a successor mask.
Adding states to a set is one walk over their predecessor lists, ``enter``,
that decrements the count of each allowed move once per successor among
them; a move whose count reaches 0 surely enters the grown set.  This is the
counter attractor of Liu and Smolka, *Simple Linear-Time Algorithms for
Minimal Fixed Points* (ICALP 1998): a caller whose set only grows pays for
the states it adds instead of a sweep over every move.  ``counts`` builds
the counts against a set from scratch with the same walk.  ``reach`` is the
one worklist fixpoint: it grows a state set
by the states of the allowed moves that the last walk entered and walks
what it added, until a round adds nothing.  The search calls it once per
frame, over the moves the frame's fragment may still add, with counts
carried down the stack.  ``filter_ceu`` is one call of it from scratch, over
the moves of ``q1``: the not-lose set of an until search's root frame.

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

The module owns :func:`bits` and imports nothing from the package but its
errors: the public wrappers of :mod:`atlir.icgs` sit on top of it.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from typing import Iterator

from .errors import DisabledJointAction

# bin() digits to the bytes of a membership table
_DIGIT_BYTE = bytes.maketrans(b"01", b"\0\1")


def _byte_table(mask: int, width: int) -> bytearray:
    """``width`` bytes, byte ``i`` 1 when bit ``i`` of ``mask`` is set, else 0."""
    return bytearray(bin(mask)[:1:-1].encode().translate(_DIGIT_BYTE)
                     .ljust(width, b"\0"))


def bits(mask: int) -> Iterator[int]:
    """Iterate over set bit positions, lowest first."""
    if mask.bit_length() > 4096:
        # Clearing bit by bit copies the whole int per bit; on move masks of
        # large models, scanning the binary text once is linear instead.  On
        # masks up to a few thousand bits the scan's fixed cost loses.
        text = bin(mask)
        last = len(text) - 1
        j = text.rfind("1")
        while j > 1:
            yield last - j
            j = text.rfind("1", 2, j)
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _joint_table(menus, inside, width):
    """The coalition actions over ``menus``, one protocol per agent in model
    order, and the pair key of each joint action in the product order of a
    row.  A coalition action's offset among the actions is its agents' picks
    read as a mixed-radix number over their protocol sizes; a pair key is
    that offset times ``width``, plus 2, so that adding a successor from
    -2 up gives a key that ``divmod(key, width)`` reads back as the offset and
    the successor plus 2."""
    combos = list(itertools.product(*itertools.compress(menus, inside)))
    if not all(menus):  # no joint action, and the state no row
        return combos, None
    terms = []  # last agent first: one term per agent, 0 for the others
    weight = width
    for menu, member in zip(reversed(menus), reversed(inside)):
        if member:
            terms.append(range(0, weight * len(menu), weight))
            weight *= len(menu)
        else:
            terms.append((0,) * len(menu))
    return combos, array("q", map(sum, itertools.product((2,), *reversed(terms))))


class CoalitionIndex:
    """Move tables and mask operators for one model and one coalition."""

    def __init__(self, model, gamma):
        self.model = model
        self.gamma = gamma
        n = len(model.states)
        self.n_states = n
        self.full_states = (1 << n) - 1

        # Enumerate coalition moves in canonical order: menus are sorted
        # tuples, so their product is.  From the model's successor rows, the
        # successors of each move over all completions by the other agents
        # and the reverse index: per state, the moves with that state among
        # their successors, each listed once.
        inside = [ag in gamma for ag in model.agents]
        state_menus = model.menus
        rows = model.rows
        move_state, move_action = [], []
        moves_at = []  # per state: the range of its move ids
        tables = {}  # all agents' menus -> (coalition actions, pair keys)
        count = []  # per move: its number of distinct successors
        pred = self.pred_moves = [array("i") for _ in range(n)]
        width = n + 2  # a pair key's successor digit runs over -2..n-1
        for i, menus in enumerate(state_menus):
            first = len(move_state)
            table = tables.get(menus)
            if table is None:
                table = tables[menus] = _joint_table(menus, inside, width)
            combos, keys = table
            move_state += [i] * len(combos)
            move_action.extend(combos)
            moves_at.append(range(first, first + len(combos)))
            count += [0] * len(combos)
            row = rows[i]
            if row is None:
                continue
            # each (move, successor) pair once, in the order first reached;
            # a remainder below 2 is a missing or undeclared successor
            for key in dict.fromkeys(map(operator.add, keys, row)):
                m, t = divmod(key, width)
                if t >= 2:
                    t -= 2
                    m += first
                    count[m] += 1
                    pred[t].append(m)
        self.move_state = move_state
        self.move_action = move_action
        self.moves_at = moves_at
        n_moves = len(move_state)
        self.all_moves_mask = (1 << n_moves) - 1
        self._move_bytes = (n_moves + 7) // 8
        self.n_succ = array("i", count)
        # A move without successors surely enters every target, the empty
        # one included.
        self.stuck_moves = self.mask_of([m for m, c in enumerate(count) if not c])

        # Conflict keys (see above).  Per agent: the key of each move, an
        # array; per key: its moves, its class's moves and its class's key
        # range.  The closure of a state is the union of its classes, empty
        # for the empty coalition.
        self.move_key, self.key_moves, self.class_mask, self.key_range = [], [], [], []
        closure = [0] * n
        where = [j for j, member in enumerate(inside) if member]
        for a, (ag, p) in enumerate(zip(gamma, where)):
            obs = model.observation.get(ag, {})
            rank = {}
            state_class = [rank.setdefault(obs.get(q), len(rank)) for q in model.states]
            members = [0] * len(rank)  # per class: its states
            class_keys = [{} for _ in rank]  # per class: action -> key
            for i, c in enumerate(state_class):
                members[c] |= 1 << i
                if moves_at[i]:
                    class_keys[c].update(dict.fromkeys(state_menus[i][p]))
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
                key_moves = list(map(self.mask_of, ids))
            class_mask = []
            for keys in class_keys:  # a class's keys have disjoint moves
                class_mask += [sum(map(key_moves.__getitem__, keys.values()))] * len(keys)
            self.move_key.append(move_key)
            self.key_moves.append(key_moves)
            self.class_mask.append(class_mask)
            self.key_range.append(key_range)
        self.closure_of = closure

    # -- state-level operators ----------------------------------------------

    def move_id(self, state, picks):
        moves = self.moves_at[self.model.state_position(state)]
        try:
            return self.move_action.index(tuple(picks), moves.start, moves.stop)
        except ValueError:
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

    def mask_of(self, move_ids):
        """The move mask of an iterable of move ids, built in one pass."""
        buf = bytearray(self._move_bytes)
        for m in move_ids:
            buf[m >> 3] |= 1 << (m & 7)
        return int.from_bytes(buf, "little")

    # -- successor counts ---------------------------------------------------

    def move_table(self, movemask):
        """One byte per move, 1 for the moves of ``movemask``: the allowed
        moves of the count walks."""
        return _byte_table(movemask, len(self.move_state))

    def enter(self, left, table, states):
        """One walk over the predecessor lists of ``states``: decrement in
        ``left`` the count of every move of ``table`` once per successor
        among them, and return, as a list of ids, the moves whose count
        reached 0.  ``states`` must be outside the set ``left`` counts
        against; the set then grows by them."""
        pred = self.pred_moves
        entered = []
        for s in bits(states):
            for m in pred[s]:
                if table[m]:
                    c = left[m] - 1
                    left[m] = c
                    if not c:
                        entered.append(m)
        return entered

    def counts(self, table, states):
        """The counts from scratch: ``left``, each move's number of
        successors outside ``states``, and the moves of ``table`` that
        surely enter ``states``, the moves without successors first and
        then those that the walk of ``states`` took to 0.  Only the counts
        of the moves of ``table`` are kept current."""
        left = self.n_succ[:]
        stuck = [m for m in bits(self.stuck_moves) if table[m]]
        return left, stuck + self.enter(left, table, states)

    def pre_move(self, target_states):
        """Moves all of whose completions land in ``target_states``, the
        moves without any successor included: they belong to the answer for
        every target."""
        table = b"\1" * len(self.move_state)
        return self.mask_of(self.counts(table, target_states)[1])

    def pre_ce(self, target_states):
        """States with some enabled coalition action surely entering the target."""
        return self.cover(self.pre_move(target_states))

    def reach(self, table, left, z, entered):
        """Grow ``z`` to the least fixpoint of ``Z -> Z | cover(allowed &
        pre_move(Z))``, ``allowed`` the moves of ``table``; return it and the
        number of worklist rounds.

        ``left`` holds the counts against ``z`` of the allowed moves and
        ``entered`` the allowed moves that surely enter ``z`` and may add a
        state: those whose count the caller's last walk took to 0 (see
        :meth:`enter` and :meth:`counts`).  That walk is the first round.
        Each round adds the states of the moves entered and walks them, and
        the moves their walk takes to 0 make the next round; the last round
        adds nothing, and an empty fixpoint takes no round.  ``left`` is
        left against the fixpoint, so a caller that keeps the counts against
        ``z`` passes a copy.  This is the engine's one fixpoint loop: every
        search frame runs it.
        """
        move_state = self.move_state
        inside = _byte_table(z, self.n_states)
        rounds = 0
        while True:
            rounds += 1
            gain = 0
            for m in entered:
                t = move_state[m]
                if not inside[t]:
                    inside[t] = 1
                    gain |= 1 << t
            if not gain:
                return z, rounds if z else 0
            z |= gain
            entered = self.enter(left, table, gain)

    def filter_ceu(self, q1mask, target):
        """Least fixpoint of ``Z -> target | (q1 & pre_ce(Z))``: the
        :meth:`reach` of the moves of ``q1`` from ``target``, the root frame's
        not-lose set of an until search."""
        table = self.move_table(self.moves_of(q1mask))
        left, entered = self.counts(table, target)
        return self.reach(table, left, target, entered)[0]

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

    def _options(self, a, movemask, maximal):
        """Per class of ``movemask`` for agent ``a``, peeled in canonical
        order (by least move id): one option per key of the class that
        ``movemask`` uses, in key order (the sorted actions), plus the drop
        option 0 when not maximal."""
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
        return options

    def split_agent(self, a, movemask, maximal):
        """Stream the subsets of non-conflicting classes of one agent: one
        option per class (see :meth:`_options`), the options of distinct
        classes disjoint."""
        for combo in itertools.product(*self._options(a, movemask, maximal)):
            yield sum(combo)

    def split_all(self, movemask, maximal):
        """Stream the per-agent split fold over the whole coalition.

        Not maximal, every subset the fold reaches is yielded once and
        nothing is kept: a subset ``M`` is yielded on its one clean path,
        where every class option kept (not dropped) keeps a move in ``M``.
        Every other path to ``M`` kept some class of an agent that ``M``
        misses, and is cut as soon as a later agent drops that option's last
        move.  The clean path reaches ``M``, since a move whose every key
        ``M`` uses survives every agent.

        Maximal, outputs are deduplicated by a set, and those that are not
        genuinely maximal (a dropped input move could be added back without
        a conflict, which per-agent folds cannot rule out on ragged inputs)
        are filtered away.  Only coalition-next asks for it, once per query.
        """
        k = len(self.gamma)
        if k == 0:
            yield movemask
            return
        if not maximal:
            yield from self._clean_paths(movemask, 0, [])
            return
        seen = set()

        def rec(mask, ai):
            if ai == k:
                if mask in seen:
                    return
                seen.add(mask)
                # maximal: no dropped input move can be added back
                if movemask & ~mask & ~self.clash(mask):
                    return
                yield mask
                return
            for sub in self.split_agent(ai, mask, True):
                yield from rec(sub, ai + 1)

        yield from rec(movemask, 0)

    def _clean_paths(self, mask, ai, kept):
        """The leaves below agent ``ai`` of the non-maximal fold of ``mask``
        on the paths whose class options kept so far, ``kept``, all keep a
        move.  The options an agent keeps are parts of its output, so only
        those of the agents before it are tested."""
        last = ai == len(self.gamma) - 1
        for combo in itertools.product(*self._options(ai, mask, False)):
            sub = sum(combo)
            if not all(map(sub.__and__, kept)):
                continue
            if last:
                yield sub
            else:
                yield from self._clean_paths(sub, ai + 1, kept + list(filter(None, combo)))
