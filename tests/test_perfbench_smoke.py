"""Smoke test of the benchmark driver: a change to the library API that breaks
perfbench/run.py turns this test red.  One short slice3-degree run, about
3 s; its scratch files go to the ignored perfbench/out/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_slice3_degree_runs_clean():
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "slice3-degree",
            "--seed",
            "1",
            "--seconds",
            "0.5",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] >= 1
