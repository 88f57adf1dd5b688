"""Ground-truth evaluators for small models.

Three independent routes to the same semantics:

- :func:`enumerate_uniform` lists every uniform memoryless strategy of a
  coalition (one action per agent per observation class), capped because the
  count is exponential.
- :func:`strategy_sat_u` decides a reach-through objective under one fixed
  strategy with a plain least fixpoint over the pruned transition relation.
- :func:`oracle_eval` combines the two into a direct reading of the
  semantics: a state satisfies a strategic formula iff some uniform strategy
  wins from every state any coalition member confuses with it.
- :func:`perfect_info_eval` evaluates the same formulas as if every agent
  observed the exact state (plain alternating fixpoints); uniform results
  are always a subset of these.

Both evaluators run the checker's fold, :class:`atlir.checker.Walk`, with
their own solver for the strategic operators and a memo for one call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

from .checker import Walk
from .errors import EnumerationCapExceeded, IncompleteStrategy
from .formula import CanNext, normalize
from .icgs import GroupAction, Icgs, Move, MoveSet, StateSet, bits, state_mask

DEFAULT_CAP = 10 ** 6


@dataclass(frozen=True)
class UniformStrategy:
    """One action per agent per observation class, as nested sorted tuples.

    ``assignment[i]`` belongs to ``coalition[i]`` and maps every observation
    token of that agent to the chosen action.
    """

    coalition: tuple
    assignment: tuple  # per agent: tuple of (token, action), sorted by token

    def action_table(self):
        return tuple(dict(per_agent) for per_agent in self.assignment)

    def group_action(self, model: Icgs, state) -> GroupAction:
        return GroupAction(self.coalition,
                           self._picks(model, self.action_table(), state))

    def _picks(self, model: Icgs, tables, state) -> tuple:
        """The coalition's actions in ``state``, read from ``action_table()``."""
        picks = []
        for ag, table in zip(self.coalition, tables):
            token = model.observation[ag].get(state)
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
    """(token, enabled actions) per observation class, sorted by token."""
    obs = model.observation[agent]
    reps = {}
    for q in model.states:
        reps.setdefault(obs[q], q)
    return [(tok, model.protocol[agent][reps[tok]]) for tok in sorted(reps)]


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


def _strategy_succ(model, strategy: UniformStrategy):
    """Per state, the successor mask over all completions of the strategy."""
    idx = model.index(strategy.coalition)
    tables = strategy.action_table()
    return [idx.succ_mask[idx.move_id(q, strategy._picks(model, tables, q))]
            for q in model.states]


def strategy_sat_u(model: Icgs, strategy: UniformStrategy,
                   q1: StateSet, q2: StateSet) -> StateSet:
    """States from which every outcome of the strategy reaches ``q2``
    through ``q1``: the until objective under a fixed memoryless strategy is
    the least fixpoint of ``Z -> q2 | (q1 & all-successors-in-Z)``."""
    q1mask, q2mask = state_mask(model, q1), state_mask(model, q2)
    succ = _strategy_succ(model, strategy)
    z = q2mask
    while True:
        nz = q2mask
        candidates = q1mask & ~nz
        for i in bits(candidates):
            if succ[i] & ~z == 0:
                nz |= 1 << i
        if nz == z:
            break
        z = nz
    return StateSet(model, z)


def oracle_eval(model: Icgs, f, cap: int = DEFAULT_CAP) -> StateSet:
    """Exhaustive-enumeration semantics of a formula over all states."""
    walk = Walk(model, partial(_enumerate, cap), {})
    return StateSet(model, walk.sat(normalize(f), model._all_mask))


def _enumerate(cap, walk, f, within):
    model = walk.model
    idx = model.index(f.coalition)
    full = model._all_mask
    if isinstance(f, CanNext):
        target = walk.full(f.sub)

        def winning(strategy):
            succ = _strategy_succ(model, strategy)
            good = 0
            for i in range(idx.n_states):
                if succ[i] & ~target == 0:
                    good |= 1 << i
            return good
    else:
        q1 = StateSet(model, walk.full(f.lhs))
        q2 = StateSet(model, walk.full(f.rhs))

        def winning(strategy):
            return strategy_sat_u(model, strategy, q1, q2).mask
    sat = 0
    for strategy in enumerate_uniform(model, f.coalition, cap):
        sat |= idx.closed_within(full & ~sat, winning(strategy))
        if sat == full:
            break
    return sat & within


def perfect_info_eval(model: Icgs, f) -> StateSet:
    """Perfect-information semantics: one-step controllability for next,
    the reach-through fixpoint for until."""
    walk = Walk(model, _fixpoints, {})
    return StateSet(model, walk.sat(normalize(f), model._all_mask))


def _fixpoints(walk, f, within):
    idx = walk.model.index(f.coalition)
    if isinstance(f, CanNext):
        return within & idx.pre_ce(walk.full(f.sub))
    return within & idx.filter_ceu(walk.full(f.lhs), walk.full(f.rhs))
