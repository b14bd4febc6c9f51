"""The benchmark's seed-0 passes keep their recorded digests.

``perfbench/worker.py`` hashes every operation's output; ``digests.json``
holds the digest of each workload and seed.  A change that moves an output
fails here, before the benchmark runs.  Only reads files under perfbench/:
the worker's bytecode goes to the temporary directory, as ``run.py`` sends it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["series-deep", "algebra-mix"])
def test_worker_pass_keeps_its_digest(workload, tmp_path):
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload, "--seed", "0",
         "--spawned", "0", "--workdir", str(tmp_path)],
        env=dict(os.environ, PYTHONPYCACHEPREFIX=str(tmp_path / "pycache")),
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["failures"] == []
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    assert result["digest"] == recorded[workload]["0"]
