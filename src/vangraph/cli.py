"""Command line front end.

Subcommands: analyze (full report for one group), check (theorem
verdicts only), corpus (batch run with the exit-code contract),
symchar (one character value), modorbit (zero-sum module census),
sepsets (separating point subsets).  Exit codes: 0 clean, 1 a check
FAILed, 2 unusable input, a cap hit, memory run out or a dead corpus
worker, 3 an internal consistency check failed (a bug, never a
verdict).  In corpus a capped group is not an exit-2 error: its report
marks every requested check INDETERMINATE and the run goes on.
"""
from __future__ import annotations

import argparse
import json
import sys

from .caps import CapExceeded
from .catalog import SpecError, catalog_group
from .deleted import census_csv, distinct_coordinate_vector, orbit_census
from .harness import (FAIL, WorkerDied, analyze, check_theorems,
                      corpus_run, load_corpus_config, report_dict)
from .structure import (SeparationAnomaly, joint_stabilizer_index,
                        separating_subsets)
from .symchar import mn_value
from .vanishing import dot_text


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SpecError(f"expected a comma list of integers: {text!r}") from exc


def _print_analysis(report: dict) -> None:
    """The text form of ``report_dict``."""
    print(f"group {report['spec']}: order {report['order']},"
          f" degree {report['degree']}")
    print(f"primes: {report['primes']}")
    print(f"class sizes: {report['class_sizes']}")
    print(f"character degrees: {report['character_degrees']}")
    print(f"vanishing classes: {report['vanishing_classes']}"
          f" with sizes {report['vanishing_class_sizes']}")
    print(f"V = {report['V']}  V_v = {report['V_v']}")
    print(f"graph edges: {report['graph']['edges']}")
    print(f"vanishing graph edges: {report['vanishing_graph']['edges']}")
    print(f"center order {report['center_order']}, Fitting order"
          f" {report['fitting_order']}, solvable: {report['is_solvable']}")
    print(f"minimal normal subgroups (order, abelian):"
          f" {report['minimal_normals']}")
    for v in report["verdicts"]:
        print(f"{v['check']} {v['status']} {v['detail']}")


def _cmd_analyze(args) -> int:
    analysis = analyze(args.spec)
    verdicts = check_theorems(analysis)
    report = report_dict(analysis, verdicts)
    _print_analysis(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.dot_prefix:
        van = analysis.vanishing
        with open(f"{args.dot_prefix}_class_graph.dot", "w",
                  encoding="utf-8") as fh:
            fh.write(dot_text(van.graph,
                              bold_edges=van.vanishing_graph.edges))
        with open(f"{args.dot_prefix}_vanishing_graph.dot", "w",
                  encoding="utf-8") as fh:
            fh.write(dot_text(van.vanishing_graph))
    return 1 if any(v.status == FAIL for v in verdicts) else 0


def _cmd_check(args) -> int:
    analysis = analyze(args.spec)
    verdicts = check_theorems(analysis)
    for v in verdicts:
        print(f"{v.check} {v.status} {v.detail}")
    return 1 if any(v.status == FAIL for v in verdicts) else 0


def _cmd_corpus(args) -> int:
    specs = c44 = checks = None
    if args.config:
        specs, c44, checks = load_corpus_config(args.config)
    result = corpus_run(specs=specs, c44_configs=c44, checks=checks,
                        jobs=args.jobs)
    sys.stdout.write(result.json_lines())
    print(result.summary(), file=sys.stderr)
    return result.exit_code


def _cmd_symchar(args) -> int:
    print(mn_value(_parse_partition(args.lam), _parse_partition(args.mu)))
    return 0


def _cmd_modorbit(args) -> int:
    census, regular = orbit_census(args.n, args.q)
    csv = census_csv(census)
    verdict = f"regular_orbit={'yes' if regular else 'no'}"
    if args.census:
        with open(args.census, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(verdict)
    else:
        sys.stdout.write(csv)
        print(f"# {verdict}")
    d = distinct_coordinate_vector(args.n, args.q)
    print(f"# distinct-coordinate vector: {d}", file=sys.stderr)
    return 0


def _cmd_sepsets(args) -> int:
    group = catalog_group(args.spec)
    try:
        g1, g2 = separating_subsets(group, args.p, args.q)
    except SeparationAnomaly as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return 1
    print(f"first subset: {[x + 1 for x in g1]}")
    print(f"second subset: {[x + 1 for x in g2]}")
    index = joint_stabilizer_index(group, g1, g2)
    print(f"joint stabilizer order {group.order // index}, index {index}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vangraph",
        description="Vanishing conjugacy classes, prime graphs, and"
                    " theorem checks for finite permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one group")
    p.add_argument("spec", help="group description, e.g. 'S4' or 'S3 x A5'")
    p.add_argument("--json", metavar="PATH", help="write the JSON report")
    p.add_argument("--dot-prefix", metavar="PATH",
                   help="write PREFIX_class_graph.dot and"
                        " PREFIX_vanishing_graph.dot")
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("check", help="theorem verdicts for one group")
    p.add_argument("spec")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("corpus", help="run the whole corpus")
    p.add_argument("--config", metavar="PATH",
                   help="JSON file with groups / c44 / checks")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(run=_cmd_corpus)

    p = sub.add_parser("symchar", help="symmetric group character value")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="partition, e.g. 5,2,1")
    p.add_argument("--mu", required=True, help="cycle type, e.g. 2,2,2,2")
    p.set_defaults(run=_cmd_symchar)

    p = sub.add_parser("modorbit", help="zero-sum module orbit census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--census", metavar="PATH", help="write the census CSV")
    p.set_defaults(run=_cmd_modorbit)

    p = sub.add_parser("sepsets", help="separating point subsets")
    p.add_argument("spec")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(run=_cmd_sepsets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, WorkerDied) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
