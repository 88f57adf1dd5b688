"""Ground-truth evaluators for small models.

The uniform semantics is read directly, independently of the checker's
search, by two building blocks and their combination:

- :func:`enumerate_uniform` lists every uniform memoryless strategy of a
  coalition (one action per agent per observation class), capped because the
  count is exponential.
- :func:`strategy_sat_u` decides a reach-through objective under one fixed
  strategy with a plain least fixpoint over the pruned transition relation.
- :func:`oracle_eval` combines the two: a state satisfies a strategic
  formula iff some uniform strategy wins from every state any coalition
  member confuses with it.

Beside it, :func:`perfect_info_eval` evaluates the same formulas under a
different semantics, as if every agent observed the exact state (plain
alternating fixpoints); uniform results are always a subset of its own.

Both evaluators run the checker's fold, :class:`atlir.checker.Walk`, with
their own solver for the strategic operators and a memo for one call.
"""

from __future__ import annotations

import itertools
import math
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
    return math.prod(len(acts) for ag in model.coalition(coalition)
                     for _, acts in _classes(model, ag))


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


def enumerate_uniform(model: Icgs, coalition, cap: int = DEFAULT_CAP):
    """Iterate every uniform strategy exactly once, in deterministic order.

    Raises :class:`EnumerationCapExceeded` before yielding anything when the
    strategy count exceeds ``cap``.
    """
    gamma = model.coalition(coalition)
    per_agent = [_classes(model, ag) for ag in gamma]
    total = math.prod(len(acts) for classes in per_agent for _, acts in classes)
    if total > cap:
        raise EnumerationCapExceeded(
            "%d uniform strategies exceed the cap of %d" % (total, cap))

    def generate():
        slots = [(a, tok, acts)
                 for a, classes in enumerate(per_agent)
                 for tok, acts in classes]
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
    model = walk.model
    full = model._all_mask
    if isinstance(f, CanNext):
        target = walk.full(f.sub)

        def winning(succ):
            good = 0
            for i in range(idx.n_states):
                if succ[i] & ~target == 0:
                    good |= 1 << i
            return good
    else:
        q1, q2 = walk.full(f.lhs), walk.full(f.rhs)

        def winning(succ):
            return _sat_u(succ, q1, q2)
    table = _succ_table(model, idx.gamma)
    sat = 0
    for strategy in enumerate_uniform(model, idx.gamma, cap):
        sat |= idx.closed_within(full & ~sat,
                                 winning(_strategy_succ(model, strategy, table)))
        if sat == full:
            break
    return sat & within


def perfect_info_eval(model: Icgs, f) -> StateSet:
    """Perfect-information semantics: one-step controllability for next,
    the reach-through fixpoint for until; the formula is text or an AST."""
    walk = Walk(model, _fixpoints, {})
    return StateSet(model, walk.sat(_normalized(model, f), model._all_mask))


def _fixpoints(walk, f, idx, within):
    if isinstance(f, CanNext):
        return within & idx.pre_ce(walk.full(f.sub))
    return within & idx.filter_ceu(walk.full(f.lhs), walk.full(f.rhs))
