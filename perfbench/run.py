#!/usr/bin/env python3
"""Benchmark of the atlir checker on the paper's model families.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # each workload in its own process

Run from the root of a source checkout; the package is imported from
``src/``.  A run repeats rounds of its workload (fresh models each round)
until the next round would overrun ``--seconds``, and always completes at
least one.  With ``--trace 0`` it reports the end-to-end metrics as medians
over rounds; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones.  Every verdict is checked
against a reference; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
clock = time.perf_counter

# per-layer metric -> (unit, source table, span or counter names).  Tables:
# "self" sums self time, "calls" call spans, "yields" generator outputs,
# "runs" calls that opened a child span, "round" a round counter.
LAYER_METRICS = {
    "modelio.gen_s": ("s", "self", ("modelio.gen_castles", "modelio.gen_cardgame")),
    "modelio.dumps_s": ("s", "self", ("modelio.dumps",)),
    "modelio.loads_s": ("s", "self", ("modelio.loads",)),
    "modelio.doc_bytes": ("count", "round", ("modelio.doc_bytes",)),
    "icgs.validate_s": ("s", "self", ("icgs.validate",)),
    "icgs.index_build_s": ("s", "self", ("icgs.index",)),
    "icgs.coalition_moves": ("count", "round", ("icgs.coalition_moves",)),
    "index.pre_move_s": ("s", "self", ("index.pre_move",)),
    "index.pre_move_calls": ("count", "calls", ("index.pre_move",)),
    "index.filter_ceu_s": ("s", "self", ("index.filter_ceu",)),
    "index.pre_ce_s": ("s", "self", ("index.pre_ce",)),
    "index.filter_ceu_calls": ("count", "calls", ("index.filter_ceu",)),
    # memo misses: a miss always sweeps pre_ce, a hit never does
    "index.filter_ceu_runs": ("count", "runs", ("index.filter_ceu", "index.pre_ce")),
    "index.moves_of_s": ("s", "self", ("index.moves_of",)),
    "index.moves_of_calls": ("count", "calls", ("index.moves_of",)),
    "index.cover_s": ("s", "self", ("index.cover",)),
    "index.split_all_s": ("s", "self", ("index.split_all",)),
    "index.split_outputs": ("count", "yields", ("index.split_all",)),
    "index.compatible_s": ("s", "self", ("index.compatible",)),
    "index.closed_within_s": ("s", "self", ("index.closed_within",)),
    "checker.self_s": ("s", "self", ("checker.check",)),
    "checker.strategies_explored": ("count", "round", ("checker.strategies_explored",)),
    "checker.split_calls": ("count", "round", ("checker.split_calls",)),
    "checker.fixpoint_iterations": ("count", "round", ("checker.fixpoint_iterations",)),
    "checker.max_depth": ("count", "round", ("checker.max_depth",)),
    "oracle.eval_s": ("s", "self", ("oracle.oracle_eval",)),
    "oracle.enumerate_s": ("s", "self", ("oracle.enumerate_uniform",)),
    "oracle.strategies_enumerated": ("count", "yields", ("oracle.enumerate_uniform",)),
    "oracle.strategy_sat_s": ("s", "self", ("oracle.strategy_sat_u",)),
    "oracle.perfect_s": ("s", "self", ("oracle.perfect_info_eval",)),
}


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _layer_value(metric, rnd, missing):
    _, table, names = LAYER_METRICS[metric]
    if table == "round":
        return rnd.counters.get(names[0])
    if any(name in missing for name in names):
        return None
    if table == "runs":
        return rnd.spans["runs"].get(names[0], 0)
    return sum(rnd.spans[table].get(name, 0) for name in names)


def run_workload(name, seed, seconds, trace):
    from corpus import make_corpus
    from spans import Tracer
    from workloads import (WORKLOADS, castles_round, corpus_round,
                           install_deadline_handler)

    workload = WORKLOADS[name]
    inputs = make_corpus(seed) if not workload.cases else None
    tracer = Tracer() if trace else None
    install_deadline_handler()
    rounds = []
    begin = clock()
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        active = tracer if traced else None
        if traced:
            tracer.reset()
            tracer.install()
        started = clock()
        try:
            if inputs is not None:
                rnd = corpus_round(inputs, active)
            else:
                rnd = castles_round(workload, 1 if trace else workload.setups, active)
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, clock() - started)
        if traced:
            rnd.spans = {"self": dict(tracer.self_s), "calls": dict(tracer.calls),
                         "yields": dict(tracer.yields), "runs": dict(tracer.runs),
                         "root_self": dict(tracer.root_self_s)}
        rounds.append(rnd)
        if clock() - begin + longest > seconds and (not trace or len(rounds) % 2 == 0):
            break

    plain = [r for r in rounds if r.spans is None]
    problems = [p for r in rounds for p in r.problems]
    status = Counter()
    for r in rounds:
        status.update(r.status)
    attempted = sum(status.values())

    print("atlir benchmark: workload %s, seed %d, %d round(s) in %.1f s, %s"
          % (name, seed, len(rounds), clock() - begin,
             "alternating untraced/traced" if trace else "untraced"))
    for line in rounds[0].lines:
        print("  " + line)

    # Deterministic counters: every round of a run sees the same inputs.
    counters = plain[0].counters
    for r in rounds[1:]:
        if r.counters != counters:
            problems.append("counters differ between rounds: %s vs %s"
                            % (counters, r.counters))
            break
    print("  counters (%s): %s"
          % ("identical in all %d rounds" % len(rounds) if len(rounds) > 1
             else "one round", " ".join("%s=%s" % kv for kv in sorted(counters.items()))))

    timed_out = status["timed out"]
    print("  failed_frac %.4f ratio  (%d failed + %d timed out of %d attempted; "
          "%d verified, %d decided but unverified)"
          % ((status["failed"] + timed_out) / attempted, status["failed"],
             timed_out, attempted, status["verified"], status["unverified"]))
    if trace:
        metrics = _layer_report(workload, rounds, tracer, problems)
    else:
        metrics = _end_to_end_report(plain, inputs is not None)
    for problem in problems:
        print("  PROBLEM: %s" % problem)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": status["failed"], "metrics": metrics}))


def _row(metric, unit, values):
    """Print one metric as a median with its quartiles; return its entry."""
    q1, med, q3 = _quartiles(values)
    print("  %-12s %10.4f %-5s median of %d (q1 %.4g, q3 %.4g)"
          % (metric, med, unit, len(values), q1, q3))
    return {"value": med, "unit": unit}


def _end_to_end_report(plain, corpus):
    metrics = {
        "setup_s": _row("setup_s", "s", [s for r in plain for s in r.setup_s]),
        "check_s": _row("check_s", "s", [r.check_s for r in plain]),
        "total_s": _row("total_s", "s", [r.total_s for r in plain]),
    }
    if corpus:  # printed only: they would read 0 on the castles workloads
        pairs = sum(plain[0].status.values())
        _row("oracle_s", "s", [r.oracle_s for r in plain])
        _row("pairs_per_s", "1/s", [pairs / r.total_s for r in plain])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("  %-12s %10.4f %-5s peak resident memory of this process"
          % ("peak_rss_mb", rss, "MB"))
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return metrics


def _layer_report(workload, rounds, tracer, problems):
    plain = [r for r in rounds if r.spans is None]
    traced = [r for r in rounds if r.spans is not None]
    missing = set(tracer.missing)
    metrics = {}
    print("  per-layer metrics (self times exclude child spans), %d traced round(s):"
          % len(traced))
    for metric, (unit, _, _) in LAYER_METRICS.items():
        values = [_layer_value(metric, r, missing) for r in traced]
        if None in values:
            value = None
        elif unit == "count":
            value = values[0]
            if any(v != value for v in values):
                problems.append("%s differs between traced rounds: %s" % (metric, values))
        else:
            value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        print("  %-30s %12s %s" % (metric, "missing" if value is None
                                   else "%.6g" % value, unit))
    overhead = (statistics.median(r.total_s for r in traced)
                / statistics.median(r.total_s for r in plain) - 1)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    print("  %-30s %12.4f ratio  (traced total_s / untraced total_s - 1)"
          % ("trace.overhead_frac", overhead))
    if missing:
        print("  missing trace targets: %s" % ", ".join(sorted(missing)))

    snap = traced[0].spans
    top = max(snap["self"], key=snap["self"].get)
    print("  dominant layer: %s (%.3f s self); predicted %s: %s"
          % (top, snap["self"][top], " or ".join(workload.dominant),
             "confirmed" if top in workload.dominant else "corrected"))
    if workload.cases:
        inside = sum(v for (root, span), v in snap["root_self"].items()
                     if root == "checker.check"
                     and span.split(".")[0] in ("checker", "index"))
        untraced_check = statistics.median(r.check_s for r in plain)
        print("  checker + index self time inside check: %.3f s; traced check_s "
              "%.3f s; untraced check_s %.3f s (%+.1f%%, tracing overhead %+.1f%%)"
              % (inside, traced[0].check_s, untraced_check,
                 100 * (inside / untraced_check - 1), 100 * overhead))
    return metrics


def run_all(args, names):
    """Each workload in its own process, one after the other."""
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "atlir" / "__init__.py").is_file():
        print("perfbench: no atlir sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from all, %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
