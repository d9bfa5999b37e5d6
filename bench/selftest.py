"""Self-test of the benchmark's own checks.

Run from the root of a source checkout:

    python3 bench/selftest.py

It shows that a corrupted reference output counts as a failure, that a
cap-limited item fails with caps.hits > 0, that outputs and counts do
not depend on the seed, and that the benchmark refuses to run where
there are no sources.  Exits 0 when all of these hold.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SMALL = [("group", ["S4"]), ("census", [6, 13]), ("sepsets", ["S7", 2, 5])]


def workload(items, seed: int, reference: dict) -> dict:
    return run.run_workload(Path.cwd(), "selftest", items, seed, 0, True,
                            reference)


def observed(record: dict) -> dict:
    """Per item: its outputs and, from traced passes, its counts."""
    seen: dict = {}
    for result in (r for p in record["passes"] for r in p):
        entry = seen.setdefault(result["item"], {"outputs": [], "counts": []})
        entry["outputs"].append(result.get("outputs"))
        if "trace" in result:
            entry["counts"].append(result["trace"]["counts"])
    return seen


def main() -> int:
    reference = json.loads(run.REFERENCE.read_text())["items"]
    problems = []

    first = workload(SMALL, 1, reference)
    second = workload(SMALL, 2, reference)
    if first["failed"] or second["failed"]:
        problems.append(f"clean items failed: {first['failures']}")
    if observed(first) != observed(second):
        problems.append("outputs or counts depend on the seed")

    corrupted = dict(reference)
    corrupted["group S4"] = dict(reference["group S4"],
                                 report_sha256="0" * 64)
    record = workload(SMALL, 1, corrupted)
    if not record["metrics"]["failed_frac"] > 0:
        problems.append("a corrupted reference did not count as failed")
    if [f.split(":")[0] for f in record["failures"]] != ["group S4"]:
        problems.append(f"unexpected failures: {record['failures']}")

    record = workload([("group", ["C61"])], 1, reference)
    if not (record["failed"] == record["attempted"]
            and record["metrics"]["caps.hits"] > 0
            and all("CapExceeded" in f for f in record["failures"])):
        problems.append("the C61 table-cap item was not a counted cap hit")

    empty = run.RESULTS / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(run.HERE, empty / "bench")
    shutil.copy(run.HERE.parent / "BENCHMARK.json", empty)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "census", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=empty, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(empty)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran without sources")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
