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

from .errors import AgentNotInCoalition
from .icgs import Icgs, Move, MoveSet, StateSet, move_mask, state_mask


def conflicting(model: Icgs, m1: Move, m2: Move) -> bool:
    """True iff some coalition agent sees both states alike but acts differently.

    Both moves are checked as :meth:`MoveSet.of` checks a move.
    """
    MoveSet.of(model, m1.coalition, (m1, m2))
    for ag, a1, a2 in zip(m1.coalition, m1.action.picks, m2.action.picks):
        obs = model.observation.get(ag, {})
        if obs.get(m1.state) == obs.get(m2.state) and a1 != a2:
            return True
    return False


def is_conflicting(model: Icgs, ms: MoveSet) -> bool:
    """True iff the set contains two conflicting moves."""
    mask = move_mask(model, None, ms)
    return model.index(ms.coalition).is_conflicting(mask)


def compatible(model: Icgs, candidates: MoveSet, base: MoveSet) -> MoveSet:
    """The candidate moves that conflict with no move of ``base``."""
    mask = move_mask(model, None, candidates)
    gamma = candidates.coalition
    idx = model.index(gamma)
    return MoveSet(model, gamma, idx.compatible(mask, move_mask(model, gamma, base)))


def pre_ce(model: Icgs, coalition, target: StateSet) -> StateSet:
    """States with an enabled coalition action that surely enters ``target``.

    Every completion of the action by the remaining agents must land in the
    target, so the empty target has no predecessors.
    """
    idx = model.index(coalition)
    return StateSet(model, idx.pre_ce(state_mask(model, target)))


def pre_move(model: Icgs, coalition, base: MoveSet) -> MoveSet:
    """The enabled moves whose every completion lands in a state ``base`` covers."""
    idx = model.index(coalition)
    mask = move_mask(model, idx.gamma, base)
    return MoveSet(model, idx.gamma, idx.pre_move(idx.cover(mask)))


def filter_ceu(model: Icgs, coalition, q1: StateSet, q2: StateSet) -> StateSet:
    """States with a general (not necessarily uniform) strategy reaching
    ``q2`` through ``q1``: the least fixpoint of ``Z -> q2 | (q1 & pre(Z))``."""
    idx = model.index(coalition)
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
    idx = model.index(coalition)
    mask = move_mask(model, idx.gamma, ms)
    if agent not in idx.gamma:
        raise AgentNotInCoalition("agent %r is not in coalition %r"
                                  % (agent, idx.gamma))
    for sub in idx.split_agent(idx.gamma.index(agent), mask, maximal):
        yield MoveSet(model, idx.gamma, sub)


def split_all(model: Icgs, coalition, ms: MoveSet,
              maximal: bool) -> Iterator[MoveSet]:
    """Fold the per-agent split over every coalition member.

    Every streamed subset is non-conflicting for the whole coalition.  With
    ``maximal`` the stream carries only subsets that cannot be extended by
    any dropped input move without creating a conflict.
    """
    idx = model.index(coalition)
    for sub in idx.split_all(move_mask(model, idx.gamma, ms), maximal):
        yield MoveSet(model, idx.gamma, sub)


def split_nonempty(model: Icgs, coalition, ms: MoveSet) -> Iterator[MoveSet]:
    """The non-empty subsets of non-conflicting classes of ``ms``."""
    for sub in split_all(model, coalition, ms, maximal=False):
        if sub:
            yield sub


def split_max(model: Icgs, coalition, ms: MoveSet) -> Iterator[MoveSet]:
    """The largest non-conflicting subsets of ``ms``."""
    return split_all(model, coalition, ms, maximal=True)
