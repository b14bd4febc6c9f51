"""Record the per-seed output digests that run.py checks every pass against.

    python3 perfbench/record_digests.py

Runs one untimed pass of every workload on each of the seeds 0-23 and
writes digests.json.  Run it only on a commit whose outputs are known to
be right: from then on a pass whose outputs differ counts all its
operations as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import run

SEEDS = range(24)


def main():
    path = os.path.join(run.HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        digests = json.load(fh)
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
            try:
                res = run.Run(workload, seed, 0, workdir).worker()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if res["failures"]:
                raise SystemExit(f"{workload} seed {seed}: failed operations {res['failures'][:3]}")
            digests.setdefault(workload, {})[str(seed)] = res["digest"]
            print(workload, seed, res["digest"], flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    main()
