"""What one benchmark item runs, and how its outputs are checked.

``execute`` runs in a child forked from the driver for this one item.
Only the call into vangraph is timed; digests and cross-checks run
afterwards.  Run as a script, this module is a set-up probe: it imports
what a CLI user's process imports, writes ``ready <vangraph package
path>`` and exits.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import vangraph.cli  # noqa: F401  (part of the set-up a CLI user pays)
from vangraph import catalog, deleted, harness, structure, symchar


def run_group(spec: str):
    """One corpus item, as ``vangraph corpus`` runs it."""
    analysis = harness.analyze(spec)
    verdicts = harness.check_theorems(analysis)
    return analysis, harness.report_dict(analysis, verdicts)


def check_group(spec: str, out) -> tuple[dict, list[str]]:
    analysis, report = out
    table = analysis.table
    line = json.dumps(report, sort_keys=True) + "\n"
    table_key = repr((table.degrees,
                      tuple(tuple(c.key() for c in row)
                            for row in table.values),
                      table.modulus))
    outputs = {"report_sha256": hashlib.sha256(line.encode()).hexdigest(),
               "table_sha256": hashlib.sha256(table_key.encode()).hexdigest()}
    errors = []
    if spec[0] == "S" and spec[1:].isdigit():
        errors += _sn_cross_check(int(spec[1:]), analysis)
    return outputs, errors


def _sn_cross_check(n: int, analysis) -> list[str]:
    """The Dixon table of S_n against the Murnaghan-Nakayama table."""
    classes, table = analysis.classes, analysis.table
    types = [classes.reps[j].cycle_type() for j in range(classes.count)]
    dixon_rows = []
    for row in table.values:
        values = [v.as_int() for v in row]
        if None in values:
            return [f"S{n} has an irrational character value"]
        dixon_rows.append(tuple(sorted(zip(types, values))))
    _, cols, values = symchar.sn_table(n)
    mn_rows = [tuple(sorted(zip(cols, r))) for r in values]
    if sorted(mn_rows) != sorted(dixon_rows):
        return [f"S{n} table disagrees with symchar.sn_table"]
    return []


def run_census(n: int, q: int):
    return deleted.orbit_census(n, q)


def check_census(n: int, q: int, out) -> tuple[dict, list[str]]:
    census, regular = out
    order = deleted.group_order(n, q)
    errors = []
    if sum(size * count for size, count in census) != q ** (n - 1):
        errors.append("orbit sizes do not cover the module")
    errors += [f"orbit size {size} does not divide {order}"
               for size, _ in census if order % size]
    return {"csv": deleted.census_csv(census), "regular": regular}, errors


def run_sepsets(spec: str, p: int, q: int):
    group = catalog.catalog_group(spec)
    return group, structure.separating_subsets(group, p, q)


def check_sepsets(spec: str, p: int, q: int, out) -> tuple[dict, list[str]]:
    """Recount the joint setwise stabilizer over every element."""
    group, (g1, g2) = out
    set1, set2 = set(g1), set(g2)
    joint = sum(1 for x in group.elements()
                if {x.images[i] for i in g1} == set1
                and {x.images[i] for i in g2} == set2)
    index = group.order // joint
    errors = []
    if not g1 or not g2 or set1 & set2:
        errors.append("subsets are empty or overlap")
    errors += [f"index {index} is not divisible by {r}"
               for r in (p, q) if group.order % r == 0 and index % r]
    return {"subsets": [list(g1), list(g2)]}, errors


KINDS = {"group": (run_group, check_group),
         "census": (run_census, check_census),
         "sepsets": (run_sepsets, check_sepsets)}


def execute(kind: str, args: list, trace: bool) -> dict:
    """Run one item; returns its time, peak RSS, outputs, cross-check
    errors and, when traced, its layer summary."""
    run, check = KINDS[kind]
    tracer = None
    if trace:
        import spans
        tracer = spans.install()
        root = tracer.open("driver")
    result: dict = {}
    try:
        t0 = time.perf_counter()
        out = run(*args)
        result["item_s"] = time.perf_counter() - t0
    except Exception as exc:  # reported as a failed item
        result["error"] = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.close(root)
        result["trace"] = tracer.summary()
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if "error" not in result:
        result["outputs"], result["check_errors"] = check(*args, out)
    return result


if __name__ == "__main__":
    sys.stdout.write(f"ready {vangraph.__file__}\n")
