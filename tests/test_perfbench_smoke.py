"""Smoke test of the benchmark driver: a change to the library API that breaks
perfbench/run.py, or an answer that fails a benchmark oracle, turns this
test red.  One short pass of each workload (sphere-verify is the longest, a
few seconds), and one traced pass of slice3-degree; their scratch files go
to the ignored perfbench/out/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(workload, trace):
    """The result document of one short pass of the workload."""
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0.5",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sphere-verify", "slice3-degree", "disk-verify"])
def test_workload_runs_clean(workload):
    result = _run(workload, 0)
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_traced_run_counts_potential_calls():
    # the traced pass replaces a potential's grad and hess by counting
    # wrappers (dataclasses.replace), so a PotentialSpec must keep them as
    # replaceable fields
    result = _run("slice3-degree", 1)
    assert result["failed"] == 0
    assert result["metrics"]["potentials.grad.calls"]["value"] > 0
