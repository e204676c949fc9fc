"""The library runs on numpy alone; scipy is a test oracle only.  A fresh
interpreter runs the disk pipeline (build, predict, detect, switch,
continue), the 3-ball's spectrum and predict, which evaluate j_l, and must
not have imported scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
from symbif import cli, continuation, potentials, predictor, spectral
from symbif.spectral import ball

spec = potentials.builtin("pitchfork-scalar")
problem = continuation.build_problem(ball(2), spec, beta_cutoff=200.0)
predictor.predict(spec, ball(2), 10.0)
(lam,) = continuation.detect_bifurcation(problem, (0.5, 6.0))
seed = continuation.switch_branch(problem, lam)
branch = continuation.continue_branch(problem, seed, (0.9 * lam, 1.1 * lam))
assert len(branch.points) > 1, branch.termination
spectrum = spectral.ball_neumann_spectrum(3, 200.0)
assert len(spectrum) > 1
predictor.predict(spec, ball(3), 20.0)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_disk_pipeline_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
