"""Move-set algebra: conflicts, compatibility, predecessors, and splitting.

A coalition move proposes one action per coalition member in one state.  Two
moves conflict when some member cannot tell their states apart yet is asked
to act differently; conflict-free move sets are exactly the fragments of
uniform strategies.  The splitting operations decompose an arbitrary move
set into such fragments and are consumed lazily (they return generators)
because the checker early-exits out of their enumeration.
"""

from __future__ import annotations

from typing import Iterator

from .errors import AgentNotInCoalition, CoalitionMismatch, ModelError
from .icgs import Icgs, Move, MoveSet, StateSet, state_mask


def _check_set(model, coalition, ms: MoveSet):
    if not isinstance(ms, MoveSet):
        raise TypeError("expected a MoveSet, got %r" % (ms,))
    if ms.model is not model:
        raise ModelError("move set belongs to a different model")
    if ms.coalition != model.coalition(coalition):
        raise CoalitionMismatch(
            "move set is over %r, expected %r" % (ms.coalition, tuple(coalition)))
    return ms


def conflicting(model: Icgs, m1: Move, m2: Move) -> bool:
    """True iff some coalition agent sees both states alike but acts differently."""
    if m1.coalition != m2.coalition:
        raise CoalitionMismatch(
            "moves over different coalitions: %r vs %r"
            % (m1.coalition, m2.coalition))
    model.state_position(m1.state)
    model.state_position(m2.state)
    for ag, a1, a2 in zip(m1.coalition, m1.action.picks, m2.action.picks):
        obs = model.observation[ag]
        if obs.get(m1.state) == obs.get(m2.state) and a1 != a2:
            return True
    return False


def is_conflicting(model: Icgs, ms: MoveSet) -> bool:
    """True iff the set contains two conflicting moves."""
    ms = _check_set(model, ms.coalition, ms)
    idx = model.index(ms.coalition)
    return idx.is_conflicting(ms.mask)


def compatible(model: Icgs, candidates: MoveSet, base: MoveSet) -> MoveSet:
    """The candidate moves that conflict with no move of ``base``."""
    candidates = _check_set(model, candidates.coalition, candidates)
    base = _check_set(model, candidates.coalition, base)
    idx = model.index(candidates.coalition)
    return MoveSet(model, candidates.coalition,
                   idx.compatible(candidates.mask, base.mask))


def pre_ce(model: Icgs, coalition, target: StateSet) -> StateSet:
    """States with an enabled coalition action that surely enters ``target``.

    Every completion of the action by the remaining agents must land in the
    target, so the empty target has no predecessors.
    """
    gamma = model.coalition(coalition)
    idx = model.index(gamma)
    return StateSet(model, idx.pre_ce(state_mask(model, target)))


def pre_move(model: Icgs, coalition, base: MoveSet) -> MoveSet:
    """The enabled moves whose every completion lands in a state ``base`` covers."""
    ms = _check_set(model, coalition, base)
    idx = model.index(ms.coalition)
    return MoveSet(model, ms.coalition, idx.pre_move(idx.cover(ms.mask)))


def filter_ceu(model: Icgs, coalition, q1: StateSet, q2: StateSet) -> StateSet:
    """States with a general (not necessarily uniform) strategy reaching
    ``q2`` through ``q1``: the least fixpoint of ``Z -> q2 | (q1 & pre(Z))``."""
    gamma = model.coalition(coalition)
    idx = model.index(gamma)
    return StateSet(model, idx.filter_ceu(state_mask(model, q1),
                                          state_mask(model, q2)))


def split_agent(model: Icgs, agent, coalition, ms: MoveSet,
                maximal: bool) -> Iterator[MoveSet]:
    """Stream the subsets of non-conflicting classes of ``ms`` for one agent.

    Classes are the groups of moves whose states the agent cannot tell apart;
    each class contributes its moves restricted to a single action for the
    agent, or (when not maximal) nothing at all.  The empty set yields the
    single subset ``{}``.  Enumeration order is canonical and deterministic.
    """
    ms = _check_set(model, coalition, ms)
    if agent not in ms.coalition:
        raise AgentNotInCoalition("agent %r is not in coalition %r"
                                  % (agent, ms.coalition))
    idx = model.index(ms.coalition)
    a = ms.coalition.index(agent)
    for mask in idx.split_agent(a, ms.mask, maximal):
        yield MoveSet(model, ms.coalition, mask)


def split_all(model: Icgs, coalition, ms: MoveSet,
              maximal: bool) -> Iterator[MoveSet]:
    """Fold the per-agent split over every coalition member.

    Every streamed subset is non-conflicting for the whole coalition.  With
    ``maximal`` the stream carries only subsets that cannot be extended by
    any dropped input move without creating a conflict.
    """
    ms = _check_set(model, coalition, ms)
    idx = model.index(ms.coalition)
    for mask in idx.split_all(ms.mask, maximal):
        yield MoveSet(model, ms.coalition, mask)


def split_nonempty(model: Icgs, coalition, ms: MoveSet) -> Iterator[MoveSet]:
    """The non-empty subsets of non-conflicting classes of ``ms``."""
    for sub in split_all(model, coalition, ms, maximal=False):
        if sub:
            yield sub


def split_max(model: Icgs, coalition, ms: MoveSet) -> Iterator[MoveSet]:
    """The largest non-conflicting subsets of ``ms``."""
    return split_all(model, coalition, ms, maximal=True)
