"""One short traced benchmark run per workload that finishes in seconds,
so that a renamed traced function or a broken verdict fails here and not
only when the benchmark runs.  ``udnr-fsweep-cap3`` adds the gate on its
256 forward assignments and the least-zero check on all 256 tables.  Two
untraced runs, at caps 3 and 5, go through the timed path whose metrics
the benchmark reports."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics that read 0 when the tracer no longer sees the layer:
# the function moved away from the attribute it is wrapped at, or a
# caller binds it before the wrapper is installed.
TRACED_LAYERS = [
    "extract.check_script.calls",
    "interp.model.parse_model_config.s",
    "interp.model.eval_formula.calls",
    "interp.model.eval_term.calls",
    "interp.machine.phi.calls",
    "interp.constructions.theta.calls",
]


def bench(workload: str, trace: int) -> dict:
    """The last line of one ``--seconds 0`` run of the benchmark."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    return last


@pytest.mark.parametrize("workload", ["udnr-cap3", "udnr-fsweep-cap3"])
def test_benchmark_runs_and_is_correct(workload):
    metrics = bench(workload, trace=1)["metrics"]
    assert {name: metrics[name]["value"] for name in TRACED_LAYERS
            if not metrics[name]["value"]} == {}


def test_untraced_run_reports_every_end_to_end_metric():
    # udnr-cap5 is the workload whose verdict the table sweep decides
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("udnr-cap3", "udnr-cap5"):
        metrics = bench(workload, trace=0)["metrics"]
        for metric in declared["end_to_end"]:
            assert metrics[metric["name"]]["value"] > 0, \
                (workload, metric["name"])
