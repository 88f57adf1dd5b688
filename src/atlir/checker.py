"""Backward model checking of coalition reachability objectives.

:class:`Walk` folds the core fragment produced by
:func:`atlir.formula.normalize`, for the checker and the reference evaluators
of :mod:`atlir.oracle` alike.  Negation complements the sub-formula's
memoised full satisfying set, because strategic sub-formulas quantify over
indistinguishable states that may fall outside the query; the strategic
operators go to a solver passed in by the caller.

The checker's solver works backwards from the target states.  For
coalition-next, the moves that surely enter the target in one step are split
into maximal conflict-free subsets; a state is satisfied when one subset
covers everything the coalition confuses with it.  For coalition-until, one
search tree grows a strategy fragment backwards from the empty fragment,
whose coverage is the target: a target state is won whatever the coalition
plays there.  At every step the moves that surely re-enter the current
coverage and do not clash with the fragment are split into conflict-free
extensions, and the search backtracks over the alternatives while excluding
moves it already set aside.  A state is won as soon as the coverage holds
its whole indistinguishability class.  Every frame first computes one
fixpoint, its not-lose set, and drops the states outside it; at the root,
with an empty fragment, that set is the perfect-information filter, so the
states that lose even under perfect information are dropped there (see
:func:`_ceu_search`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import ModelError, PreconditionViolation, UnsupportedOperator
from .formula import (
    Atom,
    CanNext,
    CanUntil,
    Formula,
    Not,
    Or,
    TrueConst,
    normalize,
    parse,
)
from .icgs import Icgs, MoveSet, StateSet, move_mask, state_mask


@dataclass
class CheckStats:
    """Best-effort search diagnostics; no semantic contract."""

    strategies_explored: int = 0
    split_calls: int = 0
    # search frames that returned unsplit with states left to decide: their
    # not-lose set wins none of them
    fragments_pruned: int = 0
    # worklist rounds of the not-lose fixpoints, summed over every frame
    fixpoint_iterations: int = 0
    max_depth: int = 0


@dataclass
class CheckResult:
    formula: Formula
    sat: StateSet
    holds: bool
    stats: CheckStats


class EvalCache:
    """Memo from a normalized sub-formula to its satisfying set over all states.

    A cache serves the first model it is used on; using it on another model
    raises :class:`ModelError`.
    """

    def __init__(self):
        self.model = None
        self.masks = {}  # the checker's walk memo: sub-formula -> mask

    def get(self, f: Formula):
        mask = self.masks.get(f)
        return None if mask is None else StateSet(self.model, mask)

    def __len__(self):
        return len(self.masks)


class Walk:
    """The Boolean fold over a normalized formula.

    ``sat(f, within)`` is the mask of the states of ``within`` that satisfy
    ``f``.  ``full(f)`` is its satisfying mask over all states, kept in
    ``memo`` (normalized sub-formula -> mask), so each distinct sub-formula
    under a negation or a strategic operator is evaluated over all states
    once.  The strategic nodes go to ``solve(walk, f, idx, within)``, with
    ``idx`` the index of the node's coalition, resolved here and nowhere else.
    """

    __slots__ = ("model", "solve", "memo")

    def __init__(self, model: Icgs, solve, memo: dict):
        self.model = model
        self.solve = solve
        self.memo = memo

    def full(self, f: Formula) -> int:
        sat = self.memo.get(f)
        if sat is None:
            sat = self.memo[f] = self.sat(f, self.model._all_mask)
        return sat

    def sat(self, f: Formula, within: int) -> int:
        if isinstance(f, TrueConst):
            return within
        if isinstance(f, Atom):
            return within & self.model.label_mask(f.name)
        if isinstance(f, Not):
            return within & ~self.full(f.sub)
        if isinstance(f, Or):
            return self.sat(f.left, within) | self.sat(f.right, within)
        if isinstance(f, (CanNext, CanUntil)):
            # hand-built nodes may name unknown, no or unordered agents
            if not f.coalition:
                raise UnsupportedOperator("empty coalition in a strategic operator")
            return self.solve(self, f, self.model.index(f.coalition), within)
        raise UnsupportedOperator("the evaluator cannot handle %r" % (f,))


def check(model: Icgs, f, cache: EvalCache = None,
          query: StateSet = None) -> CheckResult:
    """Evaluate a formula (text or AST); the model satisfies it iff every
    initial state does.

    ``query`` bounds the reported satisfying set (default: all states).  The
    verdict is the same for any query containing the initial states, since
    evaluation restricted to a query agrees with full evaluation intersected
    with it; passing the initial states alone lets the strategy search stop
    as soon as they are decided, which is dramatically cheaper on models
    whose other states have broad indistinguishability classes.
    """
    nf = _normalized(model, f)
    stats = CheckStats()
    initial = model.state_set(model.initial).mask
    qmask = model._all_mask if query is None else state_mask(model, query)
    if initial & ~qmask:
        raise PreconditionViolation("the query must contain the initial states")
    sat = _walk(model, cache, stats).sat(nf, qmask)
    return CheckResult(nf, StateSet(model, sat), initial & ~sat == 0, stats)


def evaluate(model: Icgs, query: StateSet, f, cache: EvalCache = None) -> StateSet:
    """The states of ``query`` satisfying ``f``, text or AST (normalized
    internally)."""
    qmask = state_mask(model, query)
    walk = _walk(model, cache, CheckStats())
    return StateSet(model, walk.sat(_normalized(model, f), qmask))


def _normalized(model, f):
    """The normal form of a formula given as text or as an AST."""
    return normalize(parse(f, model) if isinstance(f, str) else f)


def eval_ceu(model: Icgs, interest: StateSet, strategy: MoveSet,
             q1: StateSet, q2: StateSet, exclude: MoveSet) -> StateSet:
    """States of ``interest`` winnable by growing the ``strategy`` fragment,
    for the (q1 until q2) objective.

    Every reported state is winnable from its whole indistinguishability
    class by some total uniform strategy extending ``strategy``, and every
    state winnable by such an extension that also avoids ``exclude`` is
    reported.  The two readings coincide for an empty ``exclude``, which is
    how the evaluator seeds the search; excluded moves are never added to a
    fragment, but wins already covered without them are still reported even
    when no total extension can dodge ``exclude`` elsewhere.

    ``q2`` is not read: a state is won once the fragment covers its whole
    class, so the fragment itself carries the target (a caller seeds it with
    moves of ``q2`` states).  The search is the checker's, rooted at the
    fragment with its coverage as the root coverage.  Every frame, the root
    included, prunes with its own not-lose set; the prune only skips
    fragments that can win nothing, so the answer is the same.

    ``interest`` must be closed under coalition indistinguishability,
    ``strategy`` conflict-free and disjoint from ``exclude``; violations
    raise :class:`PreconditionViolation` since they indicate a caller bug.
    """
    smask = move_mask(model, None, strategy)
    gamma = strategy.coalition
    xmask = move_mask(model, gamma, exclude)
    imask, q1mask = state_mask(model, interest), state_mask(model, q1)
    state_mask(model, q2)  # unread, but held to the same model
    idx = model.index(gamma)
    if idx.is_conflicting(smask):
        raise PreconditionViolation("strategy is conflicting")
    if smask & xmask:
        raise PreconditionViolation("exclude overlaps the strategy")
    if idx.closure(imask) != imask:
        raise PreconditionViolation(
            "interest is not closed under coalition indistinguishability")
    won = _ceu_search(idx, imask, q1mask, smask, idx.cover(smask), xmask,
                      CheckStats())
    return StateSet(model, won)


# ---------------------------------------------------------------------------
# The backward search, as the solver of the checker's walk
# ---------------------------------------------------------------------------

def _walk(model, cache, stats):
    if cache is None:
        cache = EvalCache()
    if cache.model is None:
        cache.model = model
    elif cache.model is not model:
        raise ModelError("the evaluation cache serves a different model")
    return Walk(model, partial(_search, stats), cache.masks)


def _search(stats, walk, f, idx, qmask):
    """Decide the states of interest: for coalition-next, over the maximal
    conflict-free subsets of the moves into the target; for coalition-until,
    by one search tree rooted at the empty fragment covering the target."""
    interest = idx.closure(qmask)
    if isinstance(f, CanNext):
        # Evaluate the operand on the successors of everything any coalition
        # member confuses with the states of interest, reusing its full set.
        post = idx.post(idx.closure(interest))
        target = walk.memo.get(f.sub)
        target = walk.sat(f.sub, post) if target is None else target & post
        if interest == 0:
            return 0
        sat = 0
        stats.split_calls += 1
        for sub in idx.split_all(idx.pre_move(target), True):
            stats.strategies_explored += 1
            sat |= idx.closed_within(interest & ~sat, idx.cover(sub))
            if interest & ~sat == 0:
                break
        return sat & qmask
    # the root is the empty fragment: a target state needs no move
    return _ceu_search(idx, interest, walk.full(f.lhs), 0, walk.full(f.rhs), 0,
                       stats) & qmask


def _ceu_search(idx, interest, q1, strategy, cov, exclude, stats):
    """The states of ``interest`` won by growing the conflict-free fragment
    ``strategy`` from its root coverage ``cov`` over ``moves_q1``, the moves
    of the ``q1`` states outside ``cov``, never adding a move of ``exclude``.

    Each search frame is one generator, ``grow``, whose body runs once the
    driver first advances it.  Its locals are its states of interest still
    to decide, ``banned``, the moves that its fragment may no longer add
    (``exclude``, the moves its ancestors set aside and those that conflict
    with the fragment), its coverage ``cov`` (the root coverage and the
    states of the moves added since), the moves it adds ``added``
    (``strategy`` at the root), the states ``new`` that they add to its
    parent's coverage (all of ``cov`` at the root) and ``left``, the
    successor counts of the moves against ``cov`` (see
    :meth:`CoalitionIndex.reach`).  The driver keeps the frames on an
    explicit stack: the depth, bounded by the number of coalition moves, can
    exceed the recursion limit.  ``won`` accumulates across the whole tree.

    A frame makes one walk over the predecessor lists of ``new``: it copies
    its parent's counts and decrements those of ``allowed = moves_q1 &
    ~banned``, the only moves a uniform extension of its fragment may still
    add.  The root counts from scratch, and its candidates include the
    allowed moves without successors.  The moves that the walk takes to 0
    are the frame's candidates ``comp``: the allowed moves that surely enter
    ``cov`` and not the parent's coverage.  The counts of the other moves
    may go stale: ``banned`` only grows down the tree, so no descendant
    reads them.  An allowed move with successors, all of them in the
    parent's coverage, was a candidate of an ancestor, so it is either in
    the fragment, its state covered, or set aside, banned.

    The candidates make the first round of the frame's not-lose set ``N``,
    the ``idx.reach`` of ``cov`` over the allowed moves, which continues on
    a copy of the counts, so that ``left`` stays against ``cov`` for the
    children.  The frame keeps only the states of interest whose whole class
    lies inside ``N``.  None left, it returns unsplit and drops its counts.  The prune is sound: the
    search only adds allowed moves that surely enter the current coverage,
    and ``banned`` only grows, so every coverage in the subtree lies inside
    ``N``.  At the root, when nothing is banned, ``N`` is the
    perfect-information filter, ``filter_ceu(q1, cov)``.  A frame with
    states left splits its candidates and yields one child per non-empty
    conflict-free extension by them, until every state of interest inside
    ``N`` is won.
    """
    moves_q1 = idx.moves_of(q1 & ~cov)
    won = 0

    def grow(interest, banned, cov, added, new, left):
        nonlocal won
        # Won: the whole class is covered by the fragment.
        won |= idx.closed_within(interest, cov)
        interest &= ~won
        if interest == 0:
            return
        banned |= idx.clash(added)
        allowed = idx.move_table(moves_q1 & ~banned)
        if left is None:
            left, entered = idx.counts(allowed, new)
        else:
            left = left[:]
            entered = idx.enter(left, allowed, new)
        notlose, rounds = idx.reach(allowed, left[:], cov, entered)
        stats.fixpoint_iterations += rounds
        interest = idx.closed_within(interest, notlose)
        if interest == 0:
            stats.fragments_pruned += 1
            return
        comp = idx.mask_of(entered)
        stats.split_calls += 1
        for sub in idx.split_all(comp, False):
            if sub == 0:  # only the non-empty subsets extend the fragment
                continue
            stats.strategies_explored += 1
            new = idx.cover(sub)
            yield grow(interest, banned | (comp & ~sub), cov | new, sub, new, left)
            if interest & ~won == 0:
                return

    stack = [grow(interest, exclude, cov, strategy, cov, None)]
    while stack:
        if len(stack) > stats.max_depth:
            stats.max_depth = len(stack)
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(child)
    return won
