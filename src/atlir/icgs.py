"""Imperfect-information concurrent game structures and their basic queries.

An :class:`Icgs` couples a finite multi-agent transition system with one
observation partition per agent.  Agents pick actions simultaneously; the
joint action determines the successor state deterministically.  Each agent
must behave identically in states it cannot distinguish, which is enforced
structurally: observations are stored as token functions, so the induced
indistinguishability relations are equivalence relations by construction.

All set-valued results use :class:`StateSet` and :class:`MoveSet`, thin
wrappers over bit masks with a canonical iteration order (model state order,
then lexicographic action order).  Determinism of every downstream algorithm
rests on that order.

The transition relation is stored once, as successor rows
(:attr:`Icgs.rows`): per state, an ``array('i')`` with the successor
position of each joint action in ``itertools.product`` order over the
agents' sorted protocols.  Every coalition index of the model reads them.
:attr:`Icgs.transition` derives a new dictionary from the rows on every
access, so a caller reads it once, outside any loop.
"""

from __future__ import annotations

import copy
import functools
import itertools
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    CoalitionMismatch,
    DisabledJointAction,
    ModelError,
    UnknownAgent,
    UnknownState,
)

# Validation issue kinds.
EMPTY_PROTOCOL = "EmptyProtocol"
MISSING_TRANSITION = "MissingTransition"
NONDETERMINISTIC_TRANSITION = "NondeterministicTransition"
OBSERVATION_PROTOCOL_MISMATCH = "ObservationProtocolMismatch"
DANGLING_REFERENCE = "DanglingReference"
DUPLICATE_ACTION = "DuplicateAction"


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    message: str

    def __str__(self):
        return "%s: %s" % (self.kind, self.message)


class Icgs:
    """An imperfect-information concurrent game structure.

    Parameters mirror the mathematical components: ``agents`` and ``states``
    are ordered identifier lists, ``initial`` a subset of states, ``actions``
    a per-agent alphabet, ``protocol`` a per-agent map from state to enabled
    actions, ``transition`` the successor of each (state, joint action tuple
    in agent order) key, ``observation`` a per-agent map from state to an
    observation token, and ``labels`` a map from state to atomic
    propositions.

    The transitions are kept only as :attr:`rows`: per state position, an
    ``array('i')`` with the successor position of each joint action in
    ``itertools.product`` order of the agents' protocols (sorted tuples),
    -1 where the transition is missing, -2 where it leads to an undeclared
    state; None where some agent has no enabled action.  ``transition`` is
    anything ``dict()`` accepts, a mapping or an iterable of (key, successor)
    pairs, read once straight into the rows: no way of building a model
    builds a transition dictionary, and a later pair for a key wins.  A
    generator may pass the rows instead, as the keyword-only ``rows`` with
    ``transition`` None; rows that do not fit the protocols raise
    :class:`ModelError`.  Duplicate protocol actions, keys given a second
    successor and pairs that fit no row or lead to an undeclared state are
    recorded at construction; :func:`validate` reports them with every other
    issue.  Instances are immutable once built and may be shared freely
    across threads.
    """

    def __init__(self, agents, states, initial, actions, protocol,
                 transition, observation, labels, *, rows=None):
        self.agents = tuple(agents)
        self.states = tuple(states)
        if len(set(self.agents)) != len(self.agents):
            raise ModelError("duplicate agent identifier")
        if len(set(self.states)) != len(self.states):
            raise ModelError("duplicate state identifier")
        self._state_pos = {q: i for i, q in enumerate(self.states)}
        self._agent_pos = {ag: i for i, ag in enumerate(self.agents)}
        initial_set = set(initial)
        self.initial = tuple(q for q in self.states if q in initial_set)
        self._initial_raw = tuple(initial)
        self.actions = {ag: tuple(acts) for ag, acts in dict(actions).items()}
        self._issues = issues = []
        self.protocol = {}
        for ag, per_state in dict(protocol).items():
            self.protocol[ag] = menus = {}
            for q, acts in per_state.items():
                acts = sorted(acts)
                menus[q] = unique = tuple(dict.fromkeys(acts))
                if len(unique) != len(acts):
                    issues.append(ValidationIssue(
                        DUPLICATE_ACTION, "protocol of %r in %r lists an action "
                        "more than once: %r" % (ag, q, acts)))
        if (rows is None) == (transition is None):
            raise ModelError("give the transitions either as a mapping or as rows")
        self.rows = self._fill(transition) if rows is None else self._check_rows(rows)
        self.observation = {
            ag: dict(per_state) for ag, per_state in dict(observation).items()
        }
        self.labels = {q: frozenset(labels.get(q, ())) for q in self.states}
        self.atoms = frozenset().union(*self.labels.values()) if self.labels else frozenset()
        self._indexes = {}
        self._label_masks = None
        self._all_mask = (1 << len(self.states)) - 1

    def _fill(self, transition):
        """The rows of ``transition``, filled in one pass over its pairs.  A
        key given another successor is recorded as nondeterministic when it
        comes.  Keys that fit no row slot, and slots whose last successor is
        undeclared (they read -2, so they are not reported missing too), are
        recorded as dangling after the pass."""
        code = self._state_pos.get
        protocols = [self.protocol.get(ag, {}) for ag in self.agents]
        slot_of = functools.cache(  # menus -> {joint action: row slot}
            lambda menus: dict(zip(itertools.product(*menus), itertools.count())))
        slots = [slot_of(tuple(per_state.get(q, ()) for per_state in protocols))
                 for q in self.states]
        rows = [array("i", [-1]) * len(table) if table else None for table in slots]
        odd = {}  # key -> last successor, where that has no row slot or reads -2
        issues = self._issues
        pairs = transition.items() if isinstance(transition, Mapping) else transition
        for key, succ in pairs:
            q, joint = key
            i = code(q)
            slot = None if i is None else slots[i].get(joint)
            if slot is None:
                prev = odd.get(key)
                odd[key] = succ
            else:
                prev = rows[i][slot]
                t = rows[i][slot] = code(succ, -2)
                if prev == -1 and t >= 0:
                    continue
                prev = (None if prev == -1 else odd[key] if prev == -2
                        else self.states[prev])
                if t == -2:
                    odd[key] = succ
            if prev is not None and prev != succ:
                issues.append(ValidationIssue(
                    NONDETERMINISTIC_TRANSITION,
                    "two transitions from %r under %r lead to %r and %r"
                    % (q, joint, prev, succ)))
        for (q, joint), succ in odd.items():
            i = code(q)
            if i is None or joint not in slots[i]:
                issues.append(ValidationIssue(DANGLING_REFERENCE, (
                    "transition from unknown state %r" % (q,) if i is None else
                    "transition from %r under disabled joint action %r" % (q, joint))))
            elif rows[i][slots[i][joint]] != -2:
                continue  # a later pair gave it a declared successor
            if code(succ) is None:
                issues.append(ValidationIssue(
                    DANGLING_REFERENCE,
                    "transition from %r leads to unknown state %r" % (q, succ)))
        return rows

    def _check_rows(self, rows):
        """The rows given.  Raises ModelError unless each state's row has one
        entry per joint action, or is None where some agent has no enabled
        action, and every entry is -1 or a state position."""
        if len(rows) != len(self.states):
            raise ModelError("%d rows for %d states" % (len(rows), len(self.states)))
        protocols = [self.protocol.get(ag, {}) for ag in self.agents]
        last = len(self.states) - 1
        for q, row in zip(self.states, rows):
            width = 1
            for per_state in protocols:
                width *= len(per_state.get(q, ()))
            if row is None and width == 0:
                continue
            if row is None or width == 0 or len(row) != width:
                raise ModelError("the row of %r does not fit its %d joint actions"
                                 % (q, width))
            if min(row) < -1 or max(row) > last:
                raise ModelError("the row of %r holds an entry outside -1..%d"
                                 % (q, last))
        return rows

    @functools.cached_property
    def n_transitions(self) -> int:
        """The number of entries the rows hold, the length of :attr:`transition`."""
        return sum(len(row) - row.count(-1) - row.count(-2)
                   for row in self.rows if row is not None)

    @property
    def transition(self) -> dict:
        """A new dict from (state, joint action tuple) to successor state.

        Derived from :attr:`rows` on every access, so read it once, outside
        any loop.  Transitions that were recorded as issues at construction
        (fitting no row, or leading to an undeclared state) are not in it.
        """
        states = self.states
        protocols = [self.protocol.get(ag, {}) for ag in self.agents]
        out = {}
        for q, row in zip(states, self.rows):
            if row is not None:
                keys = zip(itertools.repeat(q),
                           itertools.product(*[per_state[q] for per_state in protocols]))
                out.update((key, states[t]) for key, t in zip(keys, row) if t >= 0)
        return out

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Icgs):
            return NotImplemented
        return (self.agents == other.agents
                and self.states == other.states
                and self.initial == other.initial
                and self.actions == other.actions
                and self.protocol == other.protocol
                and self.rows == other.rows
                and self.observation == other.observation
                and self.labels == other.labels)

    __hash__ = None

    def __repr__(self):
        return "Icgs(%d agents, %d states, %d transitions)" % (
            len(self.agents), len(self.states), self.n_transitions)

    # -- lookups ------------------------------------------------------------

    def state_position(self, state):
        try:
            return self._state_pos[state]
        except KeyError:
            raise UnknownState("unknown state %r" % (state,)) from None

    def coalition(self, agents) -> tuple:
        """Canonicalise a group of agents to model order, rejecting unknowns."""
        group = set(agents)
        for ag in group:
            if ag not in self._agent_pos:
                raise UnknownAgent("unknown agent %r" % (ag,))
        return tuple(ag for ag in self.agents if ag in group)

    def state_set(self, states: Iterable[str]) -> "StateSet":
        mask = 0
        for q in states:
            mask |= 1 << self.state_position(q)
        return StateSet(self, mask)

    def all_states(self) -> "StateSet":
        return StateSet(self, self._all_mask)

    def labeled(self, atom) -> "StateSet":
        """All states carrying the given atomic proposition."""
        return StateSet(self, self.label_mask(atom))

    def label_mask(self, atom) -> int:
        if self._label_masks is None:
            masks = {}
            for i, q in enumerate(self.states):
                for p in self.labels[q]:
                    masks[p] = masks.get(p, 0) | (1 << i)
            self._label_masks = masks
        return self._label_masks.get(atom, 0)

    def require_valid(self):
        issues = validate(self)
        if issues:
            raise ModelError(
                "invalid model: " + "; ".join(str(i) for i in issues), issues)
        return self

    def index(self, gamma: tuple):
        """Internal per-coalition index (cached); ``gamma`` must be canonical."""
        idx = self._indexes.get(gamma)
        if idx is None:
            from ._index import CoalitionIndex
            idx = self._indexes[gamma] = CoalitionIndex(self, gamma)
        return idx


@dataclass(frozen=True)
class GroupAction:
    """An action tuple for a coalition, stored in model agent order."""

    coalition: tuple
    picks: tuple

    def pick(self, agent):
        try:
            return self.picks[self.coalition.index(agent)]
        except ValueError:
            raise UnknownAgent("agent %r not in coalition" % (agent,)) from None

    def completes(self, model: Icgs, joint: tuple) -> bool:
        """True iff the full joint action agrees with this one on the coalition."""
        return all(joint[model._agent_pos[ag]] == a
                   for ag, a in zip(self.coalition, self.picks))


@dataclass(frozen=True)
class Move:
    """A state together with a coalition action enabled there."""

    state: str
    action: GroupAction

    @property
    def coalition(self):
        return self.action.coalition


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


class StateSet:
    """An immutable set of states of one model, iterated in state order."""

    __slots__ = ("model", "mask", "_idcache")

    def __init__(self, model: Icgs, mask: int):
        self.model = model
        self.mask = mask
        self._idcache = None

    @classmethod
    def of(cls, model: Icgs, states: Iterable[str]) -> "StateSet":
        return model.state_set(states)

    def ids(self) -> frozenset:
        if self._idcache is None:
            self._idcache = frozenset(self.model.states[i] for i in bits(self.mask))
        return self._idcache

    def __iter__(self):
        return (self.model.states[i] for i in bits(self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __bool__(self):
        return self.mask != 0

    def __contains__(self, state):
        pos = self.model._state_pos.get(state)
        return pos is not None and (self.mask >> pos) & 1 == 1

    def _coerce(self, other):
        if not isinstance(other, StateSet):
            raise TypeError("expected a StateSet, got %r" % (other,))
        if other.model is not self.model:
            raise ModelError("state sets belong to different models")
        return other

    def __or__(self, other):
        return StateSet(self.model, self.mask | self._coerce(other).mask)

    def __and__(self, other):
        return StateSet(self.model, self.mask & self._coerce(other).mask)

    def __sub__(self, other):
        return StateSet(self.model, self.mask & ~self._coerce(other).mask)

    def __le__(self, other):
        return self.mask & ~self._coerce(other).mask == 0

    def __lt__(self, other):
        other = self._coerce(other)
        return self.mask != other.mask and self.mask & ~other.mask == 0

    def __eq__(self, other):
        if not isinstance(other, StateSet):
            return NotImplemented
        if other.model is self.model:
            return self.mask == other.mask
        return self.ids() == other.ids()

    def __hash__(self):
        return hash(self.ids())

    def __repr__(self):
        return "StateSet({%s})" % ", ".join(sorted(self.ids()))


def state_mask(model: Icgs, qs: StateSet) -> int:
    """The mask of ``qs``, which must be a state set of ``model``.

    Every public operator that takes a state set checks it here, so a set
    from another model raises :class:`ModelError` instead of indexing past
    the model's tables.
    """
    if not isinstance(qs, StateSet):
        raise TypeError("expected a StateSet, got %r" % (qs,))
    if qs.model is not model:
        raise ModelError("state set belongs to a different model")
    return qs.mask


class MoveSet:
    """An immutable set of moves of one coalition over one model.

    Iteration order is canonical: state-major (model state order), then
    lexicographic on the action tuple.
    """

    __slots__ = ("model", "coalition", "mask", "_movecache")

    def __init__(self, model: Icgs, coalition: tuple, mask: int):
        self.model = model
        self.coalition = coalition
        self.mask = mask
        self._movecache = None

    @classmethod
    def of(cls, model: Icgs, coalition, moves: Iterable[Move]) -> "MoveSet":
        gamma = model.coalition(coalition)
        idx = model.index(gamma)
        mask = 0
        for mv in moves:
            if mv.action.coalition != gamma:
                raise CoalitionMismatch(
                    "move coalition %r does not match %r"
                    % (mv.action.coalition, gamma))
            mask |= 1 << idx.move_id(mv.state, mv.action.picks)
        return cls(model, gamma, mask)

    def moves(self) -> tuple:
        if self._movecache is None:
            idx = self.model.index(self.coalition)
            self._movecache = tuple(
                Move(self.model.states[idx.move_state[m]],
                     GroupAction(self.coalition, idx.move_action[m]))
                for m in bits(self.mask))
        return self._movecache

    def covered_states(self) -> StateSet:
        """The states this move set proposes an action for."""
        idx = self.model.index(self.coalition)
        return StateSet(self.model, idx.cover(self.mask))

    def __iter__(self):
        return iter(self.moves())

    def __len__(self):
        return self.mask.bit_count()

    def __bool__(self):
        return self.mask != 0

    def __contains__(self, move):
        return isinstance(move, Move) and move in self.moves()

    def _coerce(self, other):
        if not isinstance(other, MoveSet):
            raise TypeError("expected a MoveSet, got %r" % (other,))
        if other.model is not self.model:
            raise ModelError("move sets belong to different models")
        if other.coalition != self.coalition:
            raise CoalitionMismatch(
                "move sets over different coalitions: %r vs %r"
                % (self.coalition, other.coalition))
        return other

    def __or__(self, other):
        return MoveSet(self.model, self.coalition, self.mask | self._coerce(other).mask)

    def __and__(self, other):
        return MoveSet(self.model, self.coalition, self.mask & self._coerce(other).mask)

    def __sub__(self, other):
        return MoveSet(self.model, self.coalition, self.mask & ~self._coerce(other).mask)

    def __le__(self, other):
        return self.mask & ~self._coerce(other).mask == 0

    def __eq__(self, other):
        if not isinstance(other, MoveSet):
            return NotImplemented
        if other.model is self.model and other.coalition == self.coalition:
            return self.mask == other.mask
        return set(self.moves()) == set(other.moves())

    def __hash__(self):
        return hash((self.coalition, frozenset(self.moves())))

    def __repr__(self):
        body = ", ".join("<%s, %s>" % (m.state, "/".join(m.action.picks))
                         for m in self.moves())
        return "MoveSet[%s]{%s}" % (",".join(self.coalition), body)


# ---------------------------------------------------------------------------
# Elementary queries
# ---------------------------------------------------------------------------

def validate(model: Icgs):
    """Check every structural invariant; return the list of violations.

    An empty list means the model is well formed.  Every violation carries
    the offending state/agent/action in its message.
    """
    issues = list(model._issues)

    def dangling(msg):
        issues.append(ValidationIssue(DANGLING_REFERENCE, msg))

    states = set(model.states)
    for q in model._initial_raw:
        if q not in states:
            dangling("initial state %r is not a declared state" % (q,))
    for ag in model.agents:
        if ag not in model.actions:
            dangling("agent %r has no action alphabet" % (ag,))
        if ag not in model.protocol:
            dangling("agent %r has no protocol" % (ag,))
        if ag not in model.observation:
            dangling("agent %r has no observation map" % (ag,))
    for ag in model.actions:
        if ag not in model._agent_pos:
            dangling("actions declared for unknown agent %r" % (ag,))
    for ag, per_state in model.protocol.items():
        if ag not in model._agent_pos:
            dangling("protocol declared for unknown agent %r" % (ag,))
            continue
        alphabet = set(model.actions.get(ag, ()))
        for q, acts in per_state.items():
            if q not in states:
                dangling("protocol of %r mentions unknown state %r" % (ag, q))
            for a in acts:
                if a not in alphabet:
                    dangling("protocol of %r in %r uses undeclared action %r"
                             % (ag, q, a))
    for ag, per_state in model.observation.items():
        if ag not in model._agent_pos:
            dangling("observation declared for unknown agent %r" % (ag,))
            continue
        for q in per_state:
            if q not in states:
                dangling("observation of %r mentions unknown state %r" % (ag, q))

    # Non-empty protocols.
    for ag in model.agents:
        per_state = model.protocol.get(ag, {})
        for q in model.states:
            if not per_state.get(q, ()):
                issues.append(ValidationIssue(
                    EMPTY_PROTOCOL,
                    "agent %r has no enabled action in state %r" % (ag, q)))

    # Transitions: defined for every enabled joint action.  Entries that fit
    # no row were reported at construction.
    for q, row in zip(model.states, model.rows):
        if row is not None and -1 in row:
            proto = [model.protocol[ag][q] for ag in model.agents]
            for joint, t in zip(itertools.product(*proto), row):
                if t == -1:
                    issues.append(ValidationIssue(
                        MISSING_TRANSITION,
                        "no transition from %r under joint action %r" % (q, joint)))

    # Observation-protocol consistency: same token, same enabled actions.
    for ag in model.agents:
        obs = model.observation.get(ag, {})
        proto = model.protocol.get(ag, {})
        rep = {}
        for q in model.states:
            tok = obs.get(q)
            if tok is None:
                dangling("agent %r has no observation token for state %r" % (ag, q))
                continue
            prev = rep.get(tok)
            if prev is None:
                rep[tok] = q
            elif proto.get(q, ()) != proto.get(prev, ()):
                issues.append(ValidationIssue(
                    OBSERVATION_PROTOCOL_MISMATCH,
                    "agent %r cannot distinguish %r from %r but has protocols "
                    "%r vs %r" % (ag, prev, q, proto.get(prev, ()), proto.get(q, ()))))
    return issues


def enabled_group(model: Icgs, coalition, state) -> frozenset:
    """The coalition actions enabled in ``state``: the product of protocols,
    empty where some member has no enabled action."""
    gamma = model.coalition(coalition)
    model.state_position(state)
    picks = [model.protocol.get(ag, {}).get(state, ()) for ag in gamma]
    return frozenset(GroupAction(gamma, combo)
                     for combo in itertools.product(*picks))


def all_moves(model: Icgs, coalition) -> MoveSet:
    """Every enabled coalition move of the model, over every state."""
    gamma = model.coalition(coalition)
    idx = model.index(gamma)
    return MoveSet(model, gamma, idx.all_moves_mask)


def moves_of(model: Icgs, coalition, qs: StateSet) -> MoveSet:
    """The enabled coalition moves whose state lies in ``qs``."""
    gamma = model.coalition(coalition)
    idx = model.index(gamma)
    return MoveSet(model, gamma, idx.moves_of(state_mask(model, qs)))


def post_states(model: Icgs, qs: StateSet) -> StateSet:
    """All one-step successors of states of ``qs`` (any joint action)."""
    idx = model.index(())
    return StateSet(model, idx.post(state_mask(model, qs)))


def gamma_closure(model: Icgs, coalition, qs: StateSet) -> StateSet:
    """States some coalition agent cannot distinguish from a state of ``qs``.

    Empty for the empty coalition; otherwise contains ``qs`` (reflexivity).
    Not idempotent in general: distinct agents contribute distinct
    equivalences, so closing twice can grow the set further.
    """
    gamma = model.coalition(coalition)
    idx = model.index(gamma)
    return StateSet(model, idx.closure(state_mask(model, qs)))


def step(model: Icgs, state, joint) -> str:
    """The successor of ``state`` under a full joint action.

    ``joint`` may be a mapping from agent to action or a tuple in agent
    order.  Raises :class:`DisabledJointAction` unless every component is
    enabled.
    """
    model.state_position(state)
    if isinstance(joint, Mapping):
        missing = [ag for ag in model.agents if ag not in joint]
        if missing:
            raise DisabledJointAction("joint action misses agents %r" % (missing,))
        joint = tuple(joint[ag] for ag in model.agents)
    else:
        joint = tuple(joint)
        if len(joint) != len(model.agents):
            raise DisabledJointAction(
                "joint action has %d entries for %d agents"
                % (len(joint), len(model.agents)))
    slot = 0  # the joint action's position in the state's row
    for ag, a in zip(model.agents, joint):
        acts = model.protocol.get(ag, {}).get(state, ())
        if a not in acts:
            raise DisabledJointAction(
                "action %r of agent %r is not enabled in state %r" % (a, ag, state))
        slot = slot * len(acts) + acts.index(a)
    t = model.rows[model._state_pos[state]][slot]
    if t < 0:
        raise DisabledJointAction(
            "no transition from %r under %r" % (state, joint))
    return model.states[t]


def with_perfect_information(model: Icgs) -> Icgs:
    """A copy of the model where every agent observes the exact state.

    The copy shares the model's rows, protocols and the issues recorded at
    construction, and builds its own coalition indexes.
    """
    pi = copy.copy(model)
    pi.observation = {ag: {q: q for q in model.states} for ag in model.agents}
    pi._indexes = {}
    return pi
