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
covers everything the coalition confuses with it.  For coalition-until, each
maximal conflict-free seed over the target states is grown backwards: at
every step the moves that surely re-enter the current fragment and do not
clash with it are split into conflict-free extensions, and the search
backtracks over the alternatives while excluding moves it already set aside.
Each search frame is one generator that yields its children; a driver loop
keeps the generators on an explicit stack, so the depth is not bounded by
the interpreter's recursion limit.
Before any seed is split, a state is abandoned when some indistinguishable
state loses even under perfect information (no general strategy reaches the
target through ``q1``).  That filter runs once per query: in a valid model
every maximal seed covers the whole target (protocols agree across an
observation class, so in a state a seed leaves uncovered each agent could
take the action its class already uses, or any if the class has none, and
conflict with nothing), and every state a fragment adds reaches the coverage
it grew from.  A state is won as soon as the fragment covers its whole
indistinguishability class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from .icgs import Icgs, MoveSet, StateSet, state_mask
from .moveops import _check_set


@dataclass
class CheckStats:
    """Best-effort search diagnostics; no semantic contract."""

    strategies_explored: int = 0
    split_calls: int = 0
    # worklist rounds of the reach-through fixpoint
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
    once.  The strategic nodes go to ``solve(walk, f, within)``.
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
            gamma = self.model.coalition(f.coalition)
            if not gamma:
                raise UnsupportedOperator("empty coalition in a strategic operator")
            if gamma != f.coalition:
                f = replace(f, coalition=gamma)
            return self.solve(self, f, within)
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
    if isinstance(f, str):
        f = parse(f, model)
    nf = normalize(f)
    stats = CheckStats()
    initial = model.state_set(model.initial).mask
    qmask = model._all_mask if query is None else state_mask(model, query)
    if initial & ~qmask:
        raise PreconditionViolation("the query must contain the initial states")
    sat = _walk(model, cache, stats).sat(nf, qmask)
    return CheckResult(nf, StateSet(model, sat), initial & ~sat == 0, stats)


def evaluate(model: Icgs, query: StateSet, f: Formula,
             cache: EvalCache = None) -> StateSet:
    """The states of ``query`` satisfying ``f`` (normalized internally)."""
    qmask = state_mask(model, query)
    walk = _walk(model, cache, CheckStats())
    return StateSet(model, walk.sat(normalize(f), qmask))


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
    moves of ``q2`` states).  Since the fragment is arbitrary, the
    perfect-information filter runs on its own coverage, once, before the
    search grows it.

    ``interest`` must be closed under coalition indistinguishability,
    ``strategy`` conflict-free and disjoint from ``exclude``; violations
    raise :class:`PreconditionViolation` since they indicate a caller bug.
    """
    strategy = _check_set(model, strategy.coalition, strategy)
    exclude = _check_set(model, strategy.coalition, exclude)
    imask, q1mask = state_mask(model, interest), state_mask(model, q1)
    state_mask(model, q2)  # unread, but held to the same model
    idx = model.index(strategy.coalition)
    if idx.is_conflicting(strategy.mask):
        raise PreconditionViolation("strategy is conflicting")
    if strategy.mask & exclude.mask:
        raise PreconditionViolation("exclude overlaps the strategy")
    if idx.closure(imask) != imask:
        raise PreconditionViolation(
            "interest is not closed under coalition indistinguishability")
    stats = CheckStats()
    notlose = idx.filter_ceu(q1mask, idx.cover(strategy.mask), stats)
    won = _ceu_search(idx, idx.closed_within(imask, notlose), strategy.mask,
                      idx.moves_of(q1mask), exclude.mask, stats)
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


def _search(stats, walk, f, qmask):
    """Split the seed moves into maximal conflict-free subsets and grow each
    subset until the states of interest are decided."""
    idx = walk.model.index(f.coalition)
    interest = idx.closure(qmask)
    if isinstance(f, CanNext):
        # Evaluate the operand on the successors of everything any coalition
        # member confuses with the states of interest, reusing its full set.
        post = idx.post(idx.closure(interest))
        target = walk.memo.get(f.sub)
        target = walk.sat(f.sub, post) if target is None else target & post
        seeds = idx.pre_move(target)
        sat = 0

        def grow(seed, remaining):
            return idx.closed_within(remaining, idx.cover(seed))
    else:
        q1 = walk.full(f.lhs)
        q2 = walk.full(f.rhs)
        # States whose whole indistinguishability class already satisfies
        # the target need no strategy at all.  The others are abandoned when
        # some indistinguishable state loses even under perfect information:
        # every seed covers all of q2, so this is each seed's filter too.
        sat = idx.closed_within(interest, q2)
        if sat != interest:
            interest = idx.closed_within(interest,
                                         idx.filter_ceu(q1, q2, stats))
        moves_q1 = idx.moves_of(q1)
        seeds = idx.moves_of(q2)

        def grow(seed, remaining):
            return _ceu_search(idx, remaining, seed, moves_q1, 0, stats)
    remaining = interest & ~sat
    if remaining == 0:
        return sat & qmask
    stats.split_calls += 1
    for seed in idx.split_all(seeds, True):
        stats.strategies_explored += 1
        sat |= grow(seed, remaining)
        remaining = interest & ~sat
        if remaining == 0:
            break
    return sat & qmask


def _ceu_search(idx, interest, strategy, moves_q1, exclude, stats):
    """Backtracking growth of one conflict-free strategy fragment.

    Each search frame is one generator, ``grow``.  Its locals are the
    fragment ``strategy``, the moves set aside ``exclude``, the fragment's
    coverage ``cov``, the moves the frame adds ``added``, the ``pre_move``
    answer ``good`` and ``blocked``, the moves that conflict with the
    fragment.  A frame's body runs only once the driver first advances it.
    It seeds an incremental ``pre_move`` with its parent's coverage
    (``known``) and answer, and adds the clash of ``added`` to its parent's
    ``blocked`` only when it has candidate moves to filter.  It yields one
    child frame per non-empty conflict-free extension and returns once every
    state of interest is won.

    The driver keeps the frames on an explicit stack, not the interpreter's:
    the depth is bounded by the number of coalition moves, which can exceed
    the recursion limit.  ``won`` accumulates across the whole tree, and a
    frame stops as soon as its descendants have won every state of interest.
    ``moves_q1`` is ``idx.moves_of(q1)``.

    The caller has already dropped the states that lose under perfect
    information: ``filter_ceu(q1, T)`` for the whole until target ``T``
    (which every maximal seed covers in a valid model) or for the root's
    coverage ``cov``.  No frame could prune more: a frame only adds states of
    ``q1`` with a move surely entering its parent's coverage, so every
    coverage ``X`` below the root satisfies ``cov <= X <= N`` for
    ``N = filter_ceu(q1, cov)``, and then ``filter_ceu(q1, X) == N``.
    """
    won = 0

    def grow(strategy, exclude, cov, added, known, good, blocked):
        nonlocal won
        # Won: the whole class is covered by the fragment.
        won |= idx.closed_within(interest & ~won, cov)
        if interest & ~won == 0:
            return
        good = idx.pre_move(cov, known, good)
        new_moves = good & moves_q1 & ~strategy & ~exclude
        if new_moves:
            blocked |= idx.clash(added)
        comp = new_moves & ~blocked
        if comp == 0:
            return
        stats.split_calls += 1
        for sub in idx.split_all(comp, False):
            if sub == 0:  # only the non-empty subsets extend the fragment
                continue
            stats.strategies_explored += 1
            yield grow(strategy | sub, exclude | (new_moves & ~sub),
                       cov | idx.cover(sub), sub, cov, good, blocked)
            if interest & ~won == 0:
                return

    stack = [grow(strategy, exclude, idx.cover(strategy), strategy, 0, 0, 0)]
    while stack:
        if len(stack) > stats.max_depth:
            stats.max_depth = len(stack)
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(child)
    return won
