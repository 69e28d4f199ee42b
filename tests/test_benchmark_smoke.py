"""One short traced benchmark run per workload that finishes in seconds,
so that a renamed traced function or a broken verdict fails here and not
only when the benchmark runs.  ``udnr-fsweep-cap3`` adds the gate on its
256 forward assignments and the least-zero check on all 256 tables."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["udnr-cap3", "udnr-fsweep-cap3"])
def test_benchmark_runs_and_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
