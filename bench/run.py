"""vangraph benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes

Load: a closed loop with one client.  This driver imports vangraph from
the checkout's src/ once, then runs one item at a time, each in a child
forked for it, so at most two processes are live.  A pass runs every
item of the workload once, in an order drawn from the seed.  Passes
repeat while another one fits into ``--seconds`` of wall time; there is
always at least one.  Item time is measured inside the child, from the
call into vangraph until the result is ready.  Set-up is measured by
spawning fresh interpreters that import vangraph (bench/items.py as a
script).  Every output is checked against bench/reference.json after
the timed region, and a mismatch, an exception or a cap hit fails the
item.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken from
the traced passes (bench/spans.py).  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  A result file
with the per-item samples and the machine stamp goes to .bench_results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE = HERE / "items.py"
REFERENCE = HERE / "reference.json"
RESULTS = Path(".bench_results")
USER_ENV = dict(os.environ)     # what set-up probes see

# Workload -> items, each (kind, args).  Why each workload exists is in
# BENCHMARK.json; which metric each layer should move is in README.md.
WORKLOADS = {
    "corpus": [("group", [spec]) for spec in (
        [f"C{n}" for n in range(2, 13)]
        + ["D8", "D12", "S3", "S4", "S5", "S6", "A4", "A5", "A6", "A7",
           "PSL(2,5)", "PSL(2,7)", "S3 x A5", "C6 x A5", "C2 x A5",
           "A5 x A5"])],
    "tables": [("group", [spec]) for spec in ("S7", "A8", "S8")],
    "census": [("census", [n, q]) for n, q in ((6, 13), (7, 11), (7, 13))],
    "sepsets": [("sepsets", [spec, p, q]) for spec in ("S7", "A8")
                for p, q in ((2, 3), (2, 5), (2, 7), (3, 5), (3, 7),
                             (5, 7))],
}

END_TO_END = {"pass_s": "s", "max_item_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}

PER_LAYER = {
    "catalog.build_s": "s", "perms.chain_s": "s", "perms.enum_s": "s",
    "perms.products": "count", "perms.sifts": "count",
    "perms.groups_built": "count", "structure.classes_s": "s",
    "structure.report_s": "s", "structure.p_solvable_s": "s",
    "structure.minimal_normals_s": "s",
    "structure.normal_closures": "count", "structure.quotients": "count",
    "structure.sepsets_s": "s", "dixon.constants_s": "s",
    "dixon.class_planes": "count", "dixon.table_s": "s",
    "dixon.split_rounds": "count", "vanishing.report_s": "s",
    "harness.checks_s": "s", "harness.check_s.CHK-P34": "s",
    "harness.report_s": "s", "deleted.census_s": "s",
    "deleted.vectors_per_s": "1/s", "deleted.orbits": "count",
    "caps.hits": "count", "driver.self_s": "s", "trace.pass_s": "s",
    "trace.overhead_frac": "fraction", "failed_frac": "fraction",
}

SETUP_PROBES = 7        # set-up samples per run
ITEM_TIMEOUT_S = 150


class SetupError(RuntimeError):
    """The program cannot be started from this checkout."""


def item_key(kind: str, args: list) -> str:
    return " ".join([kind] + [str(a) for a in args])


def load_program(src: Path):
    """Import vangraph from src/ in this process; returns bench/items.py."""
    if not (src / "vangraph" / "__init__.py").is_file():
        raise SetupError(f"no vangraph sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # Items are forked from this process, which must hold no threads;
    # numpy's BLAS would start one.  No item calls BLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import items
    import vangraph
    if not vangraph.__file__.startswith(f"{src}{os.sep}"):
        raise SetupError(f"vangraph was imported from {vangraph.__file__}")
    return items


def probe_setup(src: Path) -> float:
    """Seconds from spawning an interpreter until it has imported
    vangraph from src/."""
    env = dict(USER_ENV, PYTHONPATH=str(src))
    t0 = time.monotonic()
    with subprocess.Popen([sys.executable, str(PROBE)], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.monotonic() - t0
        proc.stdout.read()
    if proc.returncode or not ready.startswith(f"ready {src}{os.sep}"):
        raise SetupError(f"an interpreter could not import vangraph from {src}")
    return setup


def run_item(program, kind: str, args: list, trace: bool) -> dict:
    """Run one item in a child forked for it; the child sends its result
    back as JSON through a pipe and kills itself after the timeout."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            signal.alarm(ITEM_TIMEOUT_S)
            result = program.execute(kind, args, trace)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(result).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status or not payload:
        return {"error": f"item process ended with wait status {status}"}
    return json.loads(payload)


def judge(result: dict, expected: dict | None) -> str | None:
    """Why the item failed, or None when its outputs are correct."""
    if "error" in result:
        return result["error"]
    if result["check_errors"]:
        return "; ".join(result["check_errors"])
    if result["outputs"] != expected:
        return "output differs from the reference"
    return None


def run_pass(program, items, reference: dict, trace: bool,
             rng: random.Random) -> list[dict]:
    order = list(items)
    rng.shuffle(order)
    results = []
    for kind, args in order:
        key = item_key(kind, args)
        result = run_item(program, kind, args, trace)
        result["item"] = key
        result["failure"] = judge(result, reference.get(key))
        results.append(result)
    return results


def pass_metrics(results: list[dict]) -> dict:
    times = [r.get("item_s", 0.0) for r in results]
    out = {"pass_s": sum(times), "max_item_s": max(times)}
    traces = [r["trace"] for r in results if "trace" in r]
    if traces:
        layer: dict = {name: 0 for name in PER_LAYER}
        for tr in traces:
            for part in ("self_s", "inclusive_s", "counts"):
                for name, value in tr[part].items():
                    layer[name] = layer.get(name, 0) + value
        census_s = layer["deleted.census_s"]
        layer["deleted.vectors_per_s"] = (
            layer.pop("deleted.vectors") / census_s if census_s else 0.0)
        out["layer"] = layer
    return out


def summarize(times: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond
    it, and the sample count."""
    n = len(times)
    summary = {"median": statistics.median(times), "n": n}
    if n >= 11:
        summary[f"p{100 * (n - 10) // n}"] = sorted(times)[n - 11]
    return summary


def stamp(root: Path) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src_hash.update(path.relative_to(root).as_posix().encode())
        src_hash.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    l3 = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "l3": l3, "commit": commit,
            "source_sha256": src_hash.hexdigest()}


def run_workload(root: Path, name: str, items: list, seed: int,
                 seconds: float, trace: bool, reference: dict) -> dict:
    """All passes of one run over the items; returns the result record."""
    src = root / "src"
    program = load_program(src)
    setups = [probe_setup(src) for _ in range(SETUP_PROBES)]
    rng = random.Random(seed)
    passes: list[list[dict]] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(program, items, reference, traced, rng))
        elapsed = time.monotonic() - start
        another_fits = elapsed * (len(passes) + 1) / len(passes) <= seconds
        if not another_fits and (not trace or len(passes) >= 2):
            break
    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["failure"])
    per_pass = [pass_metrics(p) for p in passes]
    plain = [m for m in per_pass if "layer" not in m]
    traced = [m for m in per_pass if "layer" in m]
    samples = {
        "pass_s": summarize([m["pass_s"] for m in plain]),
        "max_item_s": summarize([m["max_item_s"] for m in plain]),
        "setup_s": summarize(setups),
    }
    metrics = {
        "pass_s": samples["pass_s"]["median"],
        "max_item_s": samples["max_item_s"]["median"],
        "setup_s": samples["setup_s"]["median"],
        "peak_rss_mib": max(r.get("peak_rss_kib", 0) for r in results) / 1024,
    }
    if trace:
        layer = {n: statistics.median(m["layer"][n] for m in traced)
                 for n in PER_LAYER}
        layer["trace.pass_s"] = statistics.median(
            m["pass_s"] for m in traced)
        layer["trace.overhead_frac"] = (
            layer["trace.pass_s"] / metrics["pass_s"] - 1
            if metrics["pass_s"] else 0.0)
        layer["failed_frac"] = failed / len(results)
        metrics = layer
    return {"workload": name, "seed": seed, "trace": int(trace),
            "stamp": stamp(root), "attempted": len(results), "failed": failed,
            "metrics": metrics, "samples": samples,
            "failures": sorted({f"{r['item']}: {r['failure']}"
                                for r in results if r["failure"]}),
            "passes": passes}


def report(record: dict, prefix: str = "") -> dict:
    """Print one line per metric; returns the metrics with units."""
    table = PER_LAYER if record["trace"] else END_TO_END
    out = {}
    for name, unit in table.items():
        value = record["metrics"][name]
        out[prefix + name] = {"value": value, "unit": unit}
        print(f"{prefix + name:40s} {value:14.6g} {unit}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    return out


def write_record(record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"{record['workload']}-trace{record['trace']}"
                      f"-seed{record['seed']}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        reference = json.loads(REFERENCE.read_text())["items"]
        if args.workload == "all":
            runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
        else:
            runs = [(args.workload, args.trace)]
        records = [run_workload(root, name, WORKLOADS[name], args.seed,
                                args.seconds, bool(trace), reference)
                   for name, trace in runs]
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for record in records:
        write_record(record)
        prefix = (f"{record['workload']}/" if args.workload == "all"
                  else "")
        print(f"# {record['workload']} trace={record['trace']}"
              f" seed={record['seed']} samples={record['samples']}")
        metrics.update(report(record, prefix))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
