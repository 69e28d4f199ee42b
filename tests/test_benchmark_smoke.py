"""One short traced benchmark run, so that a renamed traced function or
a broken verdict fails here and not only when the benchmark runs."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_udnr_cap3_runs_and_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "udnr-cap3",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
