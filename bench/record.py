"""Record the reference outputs every benchmark item is checked against.

Run from the root of a source checkout whose outputs are known good:

    python3 bench/record.py

It runs each item once, untraced, refuses to record an item that fails
its own cross-checks, and rewrites bench/reference.json.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import REFERENCE, WORKLOADS, item_key, load_program, run_item


def main() -> int:
    program = load_program(Path.cwd() / "src")
    items = {}
    for name, workload in WORKLOADS.items():
        for kind, args in workload:
            key = item_key(kind, args)
            result = run_item(program, kind, args, trace=False)
            problem = result.get("error") or result["check_errors"]
            if problem:
                print(f"{key}: {problem}", file=sys.stderr)
                return 1
            items[key] = result["outputs"]
            print(f"{name:8s} {key:24s} {result['item_s']:8.3f} s")
    commit = subprocess.run(["git", "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    REFERENCE.write_text(json.dumps({"commit": commit, "items": items},
                                    indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
