"""The benchmark's workloads and one round of each.

A round builds fresh model objects (``Icgs`` caches its coalition indexes and
each index memoises ``filter_ceu``, a cost every ``atlir check`` invocation
pays), then makes the calls ``atlir check`` makes: generate or load the model,
parse the formulas, build the coalition index, and ``checker.check`` with the
initial states as query.  Reference verdicts are computed only after the
round's timed queries, so they cannot warm the memo the queries use.
"""

from __future__ import annotations

import gc
import re
import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

from atlir import checker, formula, modelio, oracle

from corpus import FORMULAS_PER_MODEL

clock = time.perf_counter

# A hang guard for every castles query and every corpus round; the open row
# gets a short one so that it costs a fixed, bounded share of its round.
QUERY_DEADLINE_S = 60.0
OPEN_ROW_DEADLINE_S = 5.0
STATS_FIELDS = ("strategies_explored", "split_calls", "fixpoint_iterations",
                "max_depth")


@dataclass(frozen=True)
class Query:
    text: str
    expected: bool | None  # None: no reference verdict exists yet
    source: str
    recompute: str = ""  # "oracle" or "perfect-fails": re-derived each round
    deadline_s: float = QUERY_DEADLINE_S


@dataclass(frozen=True)
class Case:
    generator: str  # "cardgame" or "castles"
    params: tuple
    via_document: bool  # written with modelio.dumps, read with modelio.loads
    queries: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    dominant: tuple  # span names predicted to have the largest self time
    cases: tuple = ()
    setups: int = 1  # set-ups per untraced round, for a median within one run


PHI1 = "<<c1w1,c2w1>> F castle3_defeated"
PHI2 = "<<c1w1,c2w1>> F all_defeated"
CRIT3 = "acceptance criterion 3"
CRIT4 = "acceptance criterion 4"
SLOW = "slow acceptance test at castles 1,2,2"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        "castles-search",
        ("index.filter_ceu", "index.pre_ce"),
        cases=(
            Case("cardgame", (), True, (
                Query("<<player>> F win", False, "oracle_eval", "oracle"),
                Query("<<dealer,player>> F win", True, "oracle_eval", "oracle"),
            )),
            Case("castles", (1, 1, 1), True, (
                Query(PHI1, True, CRIT3),
                Query(PHI2, False, CRIT4),
                Query("<<c1w1,c3w1>> F all_defeated", False,
                      "castle symmetry of criterion 4"),
                Query("<<c2w1,c3w1>> F all_defeated", False,
                      "castle symmetry of criterion 4"),
            )),
            Case("castles", (1, 1, 2), True, (
                Query(PHI1, True, CRIT3),
                Query(PHI2, False, CRIT4),
            )),
        )),
    Workload(
        "castles-large",
        ("index.pre_move",),
        cases=(
            Case("castles", (1, 2, 2), False, (
                Query("<<c1w1,c2w1,c2w2>> F castle3_defeated", True, SLOW),
                Query(PHI2, False, SLOW),
                Query("<<c1w1,c2w1,c2w2>> F all_defeated", None,
                      "none yet (perfect information holds)",
                      deadline_s=OPEN_ROW_DEADLINE_S),
            )),
        ),
        setups=2),
    Workload(
        "castles-seeds",
        ("index.moves_of",),
        cases=(
            Case("castles", (1, 1, 3), False, (
                Query(PHI1, False, "perfect information fails too",
                      "perfect-fails"),
            )),
        ),
        setups=2),
    Workload(
        "oracle-corpus",
        ("oracle.oracle_eval",)),
)}


class Deadline(BaseException):
    """Raised in the main thread by the interval timer of a query."""


def _on_alarm(signum, frame):
    raise Deadline()


def install_deadline_handler():
    signal.signal(signal.SIGALRM, _on_alarm)


class Built(NamedTuple):
    model: object
    parsed: list
    doc_bytes: int
    indexes: list


@dataclass
class Round:
    """What one round measured and decided."""

    setup_s: list = field(default_factory=list)
    check_s: float = 0.0
    total_s: float = 0.0
    oracle_s: float = 0.0
    status: Counter = field(default_factory=Counter)
    counters: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    spans: dict | None = None  # span totals of a traced round

    def add_counts(self, result):
        for name in STATS_FIELDS:
            key = "checker." + name
            value = getattr(result.stats, name, None)
            prev = self.counters.get(key, 0)
            if value is None or prev is None:
                self.counters[key] = None
            elif name == "max_depth":
                self.counters[key] = max(prev, value)
            else:
                self.counters[key] = prev + value


def _parse(model, texts):
    """Parsed formulas, and the built index of every coalition they name."""
    parsed = [formula.parse(text, model) for text in texts]
    coalitions = sorted({model.coalition(names.split(","))
                         for text in texts
                         for names in re.findall(r"<<([^>]*)>>", text)})
    return parsed, [model.index(gamma) for gamma in coalitions]


def _build(case):
    if case.generator == "cardgame":
        model = modelio.gen_cardgame()
    else:
        model = modelio.gen_castles(*case.params)
    doc_bytes = 0
    if case.via_document:
        text = modelio.dumps(model)
        doc_bytes = len(text.encode())
        model = modelio.loads(text)
    parsed, indexes = _parse(model, [q.text for q in case.queries])
    return Built(model, parsed, doc_bytes, indexes)


def _add_layout_counts(rnd, built):
    """Add the document bytes read and the coalition moves indexed."""
    counters = rnd.counters
    counters["modelio.doc_bytes"] = (counters.get("modelio.doc_bytes", 0)
                                     + sum(b.doc_bytes for b in built))
    # None once the index no longer exposes its move table.
    moves = [getattr(idx, "move_state", None) for b in built for idx in b.indexes]
    total = counters.get("icgs.coalition_moves", 0)
    counters["icgs.coalition_moves"] = (
        None if total is None or None in moves else total + sum(map(len, moves)))


def _check(model, f, query):
    """(elapsed s, CheckResult or None, error text or None)."""
    start = clock()
    try:
        result = checker.check(model, f, query=query)
    except Exception as exc:  # a raising query is a failed query
        return clock() - start, None, repr(exc)
    return clock() - start, result, None


@contextmanager
def _deadline(seconds):
    """Raise Deadline in the main thread once ``seconds`` have passed."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def castles_round(workload, setups, tracer):
    rnd = Round()
    built = None
    for _ in range(setups):
        built = None  # free the previous set-up's models before the next
        gc.collect()
        start = clock()
        built = [_build(case) for case in workload.cases]
        rnd.setup_s.append(clock() - start)
    start = clock()
    runs = []
    for case, b in zip(workload.cases, built):
        init = b.model.state_set(b.model.initial)
        for q, f in zip(case.queries, b.parsed):
            checkpoint = tracer.checkpoint() if tracer else None
            started = clock()
            try:
                with _deadline(q.deadline_s):
                    elapsed, result, error = _check(b.model, f, init)
            except Deadline:
                if tracer:
                    tracer.unwind(checkpoint)
                elapsed, result, error = clock() - started, None, None
            rnd.check_s += elapsed
            runs.append((case, b.model, q, f, elapsed, result, error))
    rnd.total_s = rnd.setup_s[-1] + clock() - start
    _add_layout_counts(rnd, built)
    with tracer.paused() if tracer else nullcontext():
        for run in runs:
            _judge_query(rnd, *run)
    return rnd


def _reference(q, model, f):
    """(reference verdict or None, problem text or None)."""
    init = model.state_set(model.initial)
    if q.recompute == "oracle":
        verdict = init <= oracle.oracle_eval(model, f)
        if verdict != q.expected:
            return None, "oracle_eval gives %s, recorded %s" % (verdict, q.expected)
    elif q.recompute == "perfect-fails":
        if init <= oracle.perfect_info_eval(model, f):
            return None, "perfect information holds, so it does not decide"
    return q.expected, None


def _judge_query(rnd, case, model, q, f, elapsed, result, error):
    label = case.generator
    if case.params:
        label += ":%d,%d,%d" % case.params
    label = "%-14s %-40s" % (label, q.text)
    if error is not None:
        rnd.status["failed"] += 1
        rnd.problems.append("%s raised %s" % (label, error))
        rnd.lines.append("%s RAISED %s" % (label, error))
        return
    if result is None:
        rnd.status["timed out"] += 1
        rnd.lines.append("%s TIMEOUT at %.3f s (deadline %g s); reference: %s"
                         % (label, elapsed, q.deadline_s, q.source))
        return
    rnd.add_counts(result)
    verdict = "HOLDS" if result.holds else "FAILS"
    try:
        expected, problem = _reference(q, model, f)
    except Exception as exc:  # a broken reference must not pass
        expected, problem = None, "reference raised %r" % exc
    if problem is None and expected is not None and expected != result.holds:
        problem = "expected %s (%s)" % ("HOLDS" if expected else "FAILS", q.source)
    if problem is not None:
        rnd.status["failed"] += 1
        rnd.problems.append("%s %s: %s" % (label, verdict, problem))
        status = "WRONG: " + problem
    elif expected is None:
        rnd.status["unverified"] += 1
        status = "decided, unverified"
    else:
        rnd.status["verified"] += 1
        status = "= " + q.source
    stats = " ".join("%s=%s" % (name, getattr(result.stats, name, "?"))
                     for name in STATS_FIELDS)
    rnd.lines.append("%s %s %8.3f s  %s  [%s]" % (label, verdict, elapsed,
                                                  status, stats))


def corpus_round(inputs, tracer):
    """Each model is loaded, checked and held to its references in turn, as
    one ``atlir check`` run per model would; ``setup_s`` sums the loads."""
    rnd = Round()
    gc.collect()
    start = clock()
    setup_s = 0.0
    # One timer guards the whole phase: arming one per pair would cost two
    # system calls, a noisy share of a check that takes tens of microseconds.
    try:
        with _deadline(QUERY_DEADLINE_S):
            for text, formulas in inputs:
                t0 = clock()
                model = modelio.loads(text)
                parsed, indexes = _parse(model, [ftext for ftext, _ in formulas])
                setup_s += clock() - t0
                built = Built(model, parsed, len(text.encode()), indexes)
                _add_layout_counts(rnd, [built])
                _corpus_pairs(rnd, built, formulas)
    except Deadline:
        pairs = len(inputs) * FORMULAS_PER_MODEL
        rnd.status["failed"] += pairs - sum(rnd.status.values())
        rnd.problems.append("the round overran its %g s deadline" % QUERY_DEADLINE_S)
    rnd.total_s = clock() - start
    rnd.setup_s.append(setup_s)
    rnd.lines.append(
        "%d models, %d formula/model pairs: checker (all states) against "
        "oracle_eval, and against perfect_info_eval by operator polarity"
        % (len(inputs), sum(rnd.status.values())))
    return rnd


def _corpus_pairs(rnd, b, formulas):
    """Check one model's formulas, then hold each result to its references."""
    # Every check on a model runs before any reference touches its memo.
    checks = [_check(b.model, f, None) for f in b.parsed]
    for f, (ftext, relation), (elapsed, result, error) in zip(
            b.parsed, formulas, checks):
        rnd.check_s += elapsed
        problem = error
        if result is not None:
            rnd.add_counts(result)
            t0 = clock()
            try:
                expected = oracle.oracle_eval(b.model, f)
                rnd.oracle_s += clock() - t0
                perfect = oracle.perfect_info_eval(b.model, f)
            except Exception as exc:  # a broken reference must not pass
                problem = "reference raised %r" % exc
            else:
                problem = _corpus_problem(result.sat, expected, perfect, relation)
        if problem is None:
            rnd.status["verified"] += 1
        else:
            rnd.status["failed"] += 1
            rnd.problems.append("%s: %s" % (ftext, problem))


def _corpus_problem(sat, expected, perfect, relation):
    if sat != expected:
        return "checker and oracle_eval disagree"
    if relation == "<=" and not sat <= perfect:
        return "checker exceeds perfect information"
    if relation == ">=" and not perfect <= sat:
        return "perfect information exceeds a negated checker set"
    if relation == "==" and sat != perfect:
        return "checker and perfect information differ without strategies"
    return None
