"""Smoke test of the benchmark driver: a change to the library API that breaks
perfbench/run.py, or an answer that fails a benchmark oracle, turns this
test red.  One short pass of each workload (sphere-verify is the longest, a
few seconds); its scratch files go to the ignored perfbench/out/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sphere-verify", "slice3-degree", "disk-verify"])
def test_workload_runs_clean(workload):
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
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] >= 1
