"""Command-line front end.

Two subcommands::

    atlir check (--model FILE | --gen NAME[:PARAMS]) [FORMULA ...] [options]
    atlir gen NAME[:PARAMS] -o FILE

Exit codes of ``check``: 0 when every formula holds, 1 when some formula
fails, 2 on any error, 3 when ``--oracle`` finds a disagreement between the
checker and the exhaustive oracle.

Each ``--json`` result carries the search statistics of its check
(``stats``: strategies explored, split calls, fragments pruned, fixpoint
iterations, maximum depth).  When the perfect-information filter, the root
frame's not-lose set, alone decided an until query, the search explored no
strategy and pruned its one frame, at depth 1.  The report's
``timings`` are ``load_s`` (load or generate the model), ``index_s`` (build
the index of every coalition the formulas name) and ``check_s`` (parse and
check the formulas, with the oracle if asked).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import modelio, oracle
from .checker import check
from .errors import AtlirError
from .formula import coalitions, parse

GENERATORS = ("cardgame", "castles")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="atlir",
        description="Model checker for coalition reachability objectives "
                    "under imperfect information (uniform memoryless strategies).")
    sub = parser.add_subparsers(dest="command", required=True)

    check_p = sub.add_parser("check", help="evaluate formulas on a model")
    source = check_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", metavar="FILE", help="model document to load")
    source.add_argument("--gen", metavar="SPEC",
                        help="built-in generator, e.g. cardgame or castles:1,1,2")
    check_p.add_argument("formulas", nargs="*", metavar="FORMULA")
    check_p.add_argument("--formula", action="append", default=[],
                         metavar="FORMULA", help="may be repeated")
    check_p.add_argument("--oracle", action="store_true",
                         help="cross-check against exhaustive strategy enumeration")
    check_p.add_argument("--json", action="store_true", dest="as_json",
                         help="emit a machine-readable report")
    check_p.add_argument("--list-sat", action="store_true",
                         help="include the satisfying states in the output")
    check_p.add_argument("--all-states", action="store_true",
                         help="report the satisfying set over every state; "
                              "by default only the initial states are "
                              "classified, which decides the verdict and is "
                              "far cheaper on models with coarse observations")
    check_p.add_argument("--cap", type=_count, default=oracle.DEFAULT_CAP,
                         help="strategy-enumeration cap for --oracle "
                              "(a count of 0 or more)")

    gen_p = sub.add_parser("gen", help="write a generated model document")
    gen_p.add_argument("spec", metavar="SPEC",
                       help="cardgame or castles:N1,N2,N3")
    gen_p.add_argument("-o", "--output", required=True, metavar="FILE")
    return parser


def _count(text: str) -> int:
    """A command-line count of 0 or more; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("%r is not a count of 0 or more" % text)
    return value


def _generate(spec: str):
    name, _, params = spec.partition(":")
    if name == "cardgame":
        if params:
            raise AtlirError("cardgame takes no parameters")
        return modelio.gen_cardgame(), {}
    if name == "castles":
        try:
            counts = [int(p) for p in params.split(",")]
        except ValueError:
            counts = []
        if len(counts) != 3 or min(counts) < 1:
            raise AtlirError("castles needs three worker counts of at least 1,"
                             " e.g. castles:1,1,2")
        model = modelio.gen_castles(*counts)
        teams = modelio.castle_workers(*counts)
        macros = {"all12": teams[0] + teams[1]}
        return model, macros
    raise AtlirError("unknown generator %r (choose from %s)"
                     % (name, ", ".join(GENERATORS)))


def _cmd_check(args) -> int:
    t0 = time.perf_counter()
    macros = {}
    if args.model:
        model = modelio.load(args.model)
    else:
        model, macros = _generate(args.gen)
    load_s = time.perf_counter() - t0

    texts = list(args.formulas) + list(args.formula)
    if not texts:
        raise AtlirError("no formula given")

    query = None if args.all_states else model.state_set(model.initial)
    results = []
    disagreement = False
    all_hold = True
    t1 = time.perf_counter()
    formulas = [parse(text, model, coalition_macros=macros) for text in texts]
    t2 = time.perf_counter()
    for gamma in sorted(set().union(*map(coalitions, formulas))):
        model.index(gamma)
    index_s = time.perf_counter() - t2
    for text, parsed in zip(texts, formulas):
        outcome = check(model, parsed, query=query)
        entry = {
            "formula": text,
            "holds": outcome.holds,
            "sat_count": len(outcome.sat),
            "stats": dataclasses.asdict(outcome.stats),
        }
        if args.list_sat:
            entry["sat"] = list(outcome.sat)
        if args.oracle:
            reference = oracle.oracle_eval(model, parsed, cap=args.cap)
            if query is not None:
                reference = reference & query
            agrees = reference == outcome.sat
            entry["oracle_agrees"] = agrees
            disagreement = disagreement or not agrees
        all_hold = all_hold and outcome.holds
        results.append(entry)
    check_s = time.perf_counter() - t1 - index_s

    report = {
        "model": {
            "states": len(model.states),
            "initial": len(model.initial),
            "agents": len(model.agents),
        },
        "results": results,
        "timings": {"load_s": round(load_s, 6), "index_s": round(index_s, 6),
                    "check_s": round(check_s, 6)},
    }
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("model: %d states, %d initial, %d agents"
              % (len(model.states), len(model.initial), len(model.agents)))
        universe = ("%d states" % len(model.states) if query is None
                    else "%d initial states" % len(model.initial))
        for entry in results:
            verdict = "HOLDS" if entry["holds"] else "FAILS"
            line = "%-5s  %s  (%d/%s satisfy)" % (
                verdict, entry["formula"], entry["sat_count"], universe)
            if "oracle_agrees" in entry:
                line += "  [oracle %s]" % ("agrees" if entry["oracle_agrees"]
                                           else "DISAGREES")
            print(line)
            if args.list_sat:
                print("       sat: %s" % " ".join(entry["sat"]))

    if disagreement:
        return 3
    return 0 if all_hold else 1


def _cmd_gen(args) -> int:
    model, _ = _generate(args.spec)
    modelio.save(model, args.output)
    print("wrote %s (%d states, %d transitions)"
          % (args.output, len(model.states), model.n_transitions))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_gen(args)
    except (AtlirError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is an error, never a verdict
        print("error: internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
