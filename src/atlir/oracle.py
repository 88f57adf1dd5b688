"""Ground-truth evaluators for small models.

The uniform semantics is read directly, independently of the checker's
search:

- :func:`enumerate_uniform` lists every uniform memoryless strategy of a
  coalition (one action per agent per observation class), capped because the
  count is exponential.
- :func:`strategy_sat_u` decides a reach-through objective under one fixed
  strategy with a plain least fixpoint over the pruned transition relation.
- :func:`oracle_eval`: a state satisfies a strategic formula iff some
  uniform strategy wins from every state any coalition member confuses with
  it.  It enumerates the same strategies in the same order, as flat tuples
  of one action per (agent, observation class) slot, and runs the same
  fixpoint.  Per strategic node it builds its own tables from the model:
  each state's successor masks keyed by the coalition's actions there, read
  from ``model.rows``, and each state's closure, read from the
  observations.  From the coalition index it takes only the coalition.

Beside it, :func:`perfect_info_eval` evaluates the same formulas under a
different semantics, as if every agent observed the exact state (plain
alternating fixpoints); uniform results are always a subset of its own.

Both evaluators run the checker's fold, :class:`atlir.checker.Walk`, with
their own solver for the strategic operators and a memo for one call.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import partial

from .checker import Walk, _normalized
from .errors import DisabledJointAction, EnumerationCapExceeded, IncompleteStrategy
from .formula import CanNext
from .icgs import GroupAction, Icgs, Move, MoveSet, StateSet, bits, state_mask

DEFAULT_CAP = 10 ** 6


@dataclass(frozen=True)
class UniformStrategy:
    """One action per agent per observation class, as nested sorted tuples.

    ``assignment[i]`` belongs to ``coalition[i]`` and maps every observation
    token of that agent to the chosen action.
    """

    coalition: tuple
    assignment: tuple  # per agent: tuple of (token, action), sorted by token, None first

    def action_table(self):
        return tuple(dict(per_agent) for per_agent in self.assignment)

    def group_action(self, model: Icgs, state) -> GroupAction:
        return GroupAction(self.coalition,
                           self._picks(model, self.action_table(), state))

    def _picks(self, model: Icgs, tables, state) -> tuple:
        """The coalition's actions in ``state``, read from ``action_table()``."""
        picks = []
        for ag, table in zip(self.coalition, tables):
            token = model.observation.get(ag, {}).get(state)
            if token not in table:
                raise IncompleteStrategy(
                    "strategy has no choice for agent %r in state %r" % (ag, state))
            picks.append(table[token])
        return tuple(picks)

    def move_set(self, model: Icgs) -> MoveSet:
        return MoveSet.of(model, self.coalition,
                          (Move(q, self.group_action(model, q)) for q in model.states))


def count_uniform(model: Icgs, coalition) -> int:
    """The number of uniform strategies of the coalition."""
    return math.prod(len(acts) for _, _, acts in
                     _slots(model, model.coalition(coalition), math.inf))


def _classes(model, agent):
    """(token, enabled actions) per observation class, sorted by token.  The
    states the agent does not observe, token ``None``, are one class, first."""
    obs = model.observation.get(agent, {})
    protocol = model.protocol.get(agent, {})
    reps = {}
    for q in model.states:
        reps.setdefault(obs.get(q), q)
    return [(tok, protocol.get(reps[tok], ()))
            for tok in sorted(reps, key=lambda tok: (tok is not None, tok))]


def _slots(model, gamma, cap):
    """The enumeration layout: one (agent position, token, enabled actions)
    slot per observation class of each agent of ``gamma``, agent by agent.
    A strategy is one action per slot, and strategies come in
    ``itertools.product`` order over the slots.  Raises
    :class:`EnumerationCapExceeded` when the strategy count exceeds ``cap``."""
    per_agent = [_classes(model, ag) for ag in gamma]
    total = math.prod(len(acts) for classes in per_agent for _, acts in classes)
    if total > cap:
        raise EnumerationCapExceeded(
            "%d uniform strategies exceed the cap of %d" % (total, cap))
    return [(a, tok, acts) for a, classes in enumerate(per_agent)
            for tok, acts in classes]


def enumerate_uniform(model: Icgs, coalition, cap: int = DEFAULT_CAP):
    """Iterate every uniform strategy exactly once, in deterministic order.

    Raises :class:`EnumerationCapExceeded` before yielding anything when the
    strategy count exceeds ``cap``.
    """
    gamma = model.coalition(coalition)
    slots = _slots(model, gamma, cap)

    def generate():
        for combo in itertools.product(*(acts for _, _, acts in slots)):
            assignment = [[] for _ in gamma]
            for (a, tok, _), act in zip(slots, combo):
                assignment[a].append((tok, act))
            yield UniformStrategy(gamma, tuple(tuple(per) for per in assignment))

    return generate()


def _succ_table(model, gamma):
    """Per state, from each pick tuple of the agents ``gamma`` enabled there
    to the mask of its successors over every completion, read from
    ``model.rows`` in one pass per state: the oracle's own successor table,
    shared by every strategy of the coalition."""
    model.coalition(gamma)  # unknown agents raise
    where = [model._agent_pos[ag] for ag in gamma]
    table = []
    for menus, row in zip(model.menus, model.rows):
        succ = dict.fromkeys(itertools.product(*(menus[p] for p in where)), 0)
        if row is not None:
            for joint, t in zip(itertools.product(*menus), row):
                if t >= 0:
                    succ[tuple(joint[p] for p in where)] |= 1 << t
        table.append(succ)
    return table


def _strategy_succ(model, strategy: UniformStrategy, table):
    """Per state, the successor mask over all completions of the strategy,
    looked up in a :func:`_succ_table` of its coalition."""
    tables = strategy.action_table()
    out = []
    for q, succ in zip(model.states, table):
        picks = strategy._picks(model, tables, q)
        if picks not in succ:
            raise DisabledJointAction(
                "coalition action %r is not enabled in state %r" % (picks, q))
        out.append(succ[picks])
    return out


def strategy_sat_u(model: Icgs, strategy: UniformStrategy,
                   q1: StateSet, q2: StateSet) -> StateSet:
    """States from which every outcome of the strategy reaches ``q2``
    through ``q1``: the until objective under a fixed memoryless strategy is
    the least fixpoint of ``Z -> q2 | (q1 & all-successors-in-Z)``."""
    q1mask, q2mask = state_mask(model, q1), state_mask(model, q2)
    succ = _strategy_succ(model, strategy, _succ_table(model, strategy.coalition))
    return StateSet(model, _sat_u(succ, q1mask, q2mask))


def _sat_u(succ, q1mask, q2mask):
    """The fixpoint of :func:`strategy_sat_u` over per-state successor masks."""
    z = q2mask
    while True:
        nz = q2mask
        candidates = q1mask & ~nz
        for i in bits(candidates):
            if succ[i] & ~z == 0:
                nz |= 1 << i
        if nz == z:
            return z
        z = nz


def oracle_eval(model: Icgs, f, cap: int = DEFAULT_CAP) -> StateSet:
    """Exhaustive-enumeration semantics of a formula, text or AST, over all
    states."""
    walk = Walk(model, partial(_enumerate, cap), {})
    return StateSet(model, walk.sat(_normalized(model, f), model._all_mask))


def _enumerate(cap, walk, f, idx, within):
    """The strategic node's states won by some uniform strategy of its
    coalition from every state a coalition member confuses with them.  A
    strategy is the tuple of one action per :func:`_slots` slot; the
    successor tables and the closure are the oracle's own, built once per
    node, and the index gives nothing but the coalition."""
    model = walk.model
    slots = _slots(model, idx.gamma, cap)
    picks_at, lookups, closure = _strategy_tables(model, idx.gamma, slots)
    if isinstance(f, CanNext):
        missed = ~walk.full(f.sub)

        def winning(succ):
            won = 0
            for i, s in enumerate(succ):
                if not s & missed:
                    won |= 1 << i
            return won
    else:
        q1, q2 = walk.full(f.lhs), walk.full(f.rhs)

        def winning(succ):
            return _sat_u(succ, q1, q2)
    full = model._all_mask
    sat = 0
    for combo in itertools.product(*(acts for _, _, acts in slots)):
        try:
            succ = [table[pick(combo)] for pick, table in lookups]
        except KeyError:
            raise _disabled(model, picks_at, lookups, combo) from None
        win = winning(succ)
        new = win & ~sat
        if new:
            lost = ~win
            for i in bits(new):
                if not closure[i] & lost:
                    sat |= 1 << i
            if sat == full:
                break
    return sat & within


def _strategy_tables(model, gamma, slots):
    """Per state: the slots its coalition actions are read from, a pair
    (getter of those actions from a strategy tuple, table from those actions
    to the successor mask over every completion) and the states some agent
    of ``gamma`` confuses with it (its own class per agent, token ``None``
    one class).  The tables are read from ``model.rows``; a table's keys
    are what the getter returns, an action for one agent, a tuple for more."""
    slot_of = {(a, tok): k for k, (a, tok, _) in enumerate(slots)}
    where = [model._agent_pos[ag] for ag in gamma]
    joint_key = operator.itemgetter(*where)
    pick_key = operator.itemgetter(*range(len(where)))
    tokens = [[model.observation.get(ag, {}).get(q) for q in model.states]
              for ag in gamma]
    picks_at, lookups = [], []
    for i, (menus, row) in enumerate(zip(model.menus, model.rows)):
        at = [slot_of[a, toks[i]] for a, toks in enumerate(tokens)]
        succ = dict.fromkeys(
            map(pick_key, itertools.product(*(menus[p] for p in where))), 0)
        for key, t in zip(map(joint_key, itertools.product(*menus)), row or ()):
            if t >= 0:
                succ[key] |= 1 << t
        picks_at.append(at)
        lookups.append((operator.itemgetter(*at), succ))
    closure = [0] * len(model.states)
    for toks in tokens:
        members = {}
        for i, tok in enumerate(toks):
            members[tok] = members.get(tok, 0) | 1 << i
        closure = [mask | members[tok] for mask, tok in zip(closure, toks)]
    return picks_at, lookups, closure


def _disabled(model, picks_at, lookups, combo):
    """The error for the first state where the strategy ``combo`` picks a
    coalition action that is not enabled."""
    for q, at, (pick, succ) in zip(model.states, picks_at, lookups):
        if pick(combo) not in succ:
            return DisabledJointAction(
                "coalition action %r is not enabled in state %r"
                % (tuple(combo[k] for k in at), q))


def perfect_info_eval(model: Icgs, f) -> StateSet:
    """Perfect-information semantics: one-step controllability for next,
    the reach-through fixpoint for until; the formula is text or an AST."""
    walk = Walk(model, _fixpoints, {})
    return StateSet(model, walk.sat(_normalized(model, f), model._all_mask))


def _fixpoints(walk, f, idx, within):
    if isinstance(f, CanNext):
        return within & idx.pre_ce(walk.full(f.sub))
    return within & idx.filter_ceu(walk.full(f.lhs), walk.full(f.rhs))
