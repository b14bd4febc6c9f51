"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload, in runs of 1 s: two traced runs on seed 0 must
report identical counts, and an untraced run on seed 1 must be correct
with no failed operation.  Finally, a copy holding only BENCHMARK.json
and perfbench/ must exit non-zero without printing a result.  Exits 0
when all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import HERE, ROOT, WORKLOADS

COUNT_UNITS = ("count", "count/call")


def bench(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def counts(result):
    m = result["metrics"]
    return {
        k: v["value"]
        for k, v in m.items()
        if v["unit"] in COUNT_UNITS or k == "kernels.contract_terms.yield"
    }


def main():
    ok = True
    for w in WORKLOADS:
        base = ["--workload", w, "--seconds", "1"]
        _, first = bench(base + ["--seed", "0", "--trace", "1"])
        _, second = bench(base + ["--seed", "0", "--trace", "1"])
        same = bool(first and second and first["correct"] and second["correct"])
        same = same and counts(first) == counts(second)
        _, other = bench(base + ["--seed", "1", "--trace", "0"])
        clean = bool(other and other["correct"] and other["failed"] == 0)
        print(f"{w:12s} traced counts repeat: {same}; seed 1 error_rate 0: {clean}")
        ok = ok and same and clean

    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = bench(
            ["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            script=os.path.join(bare, "perfbench", "run.py"),
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = rc != 0 and out is None
    print(f"without sources: exit {rc}, no result printed: {refused}")
    ok = ok and refused
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
