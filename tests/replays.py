"""Replays of verify as earlier versions of the solver ran it, for the tests
that keep the outputs those versions recorded.

Each AT_* string is Python run before `symbif verify` in a fresh
interpreter (tests/test_cli.py); fixed_growth installs the fixed step
growth and the central-difference column in the running process
(tests/test_continuation.py).  They replace private names of
symbif.continuation: _lambda_column, _step_factor, _end_on_limit and
_locate_fold, and wrap continue_branch.  A change that renames one of
those, or changes its signature, is carried here and nowhere else.
"""

import inspect

from symbif import continuation

import lambda_column
from lambda_column import central_difference

# take every lambda column of a bordered matrix as the central difference
# of two residuals (lambda_column), as verify did before the column was
# exact; every generation of recorded outputs below was written with it
AT_CENTRAL_DIFFERENCE = (
    inspect.getsource(lambda_column)
    + "continuation._lambda_column = central_difference\n"
)
# ... and follow every branch at the step verify took before it took
# continue_branch's default, ds_max 0.05 for at most 80 steps, growing by
# 1.4 after every accepted point as the step did before it came from the
# corrector's contraction
AT_OLD_STEP = AT_CENTRAL_DIFFERENCE + (
    "from symbif import continuation\n"
    "follow = continuation.continue_branch\n"
    "continuation.continue_branch = lambda *args: follow(*args, max_steps=80, ds_max=0.05)\n"
    "continuation._step_factor = lambda theta0: 1.4\n"
)
# the central difference, and follow every branch as verify did before the
# step came from the corrector's contraction, growing by 1.4 after every
# accepted point up to ds_max 0.2, then the library default
AT_FIXED_GROWTH = AT_CENTRAL_DIFFERENCE + (
    "from symbif import continuation\n"
    "follow = continuation.continue_branch\n"
    "continuation.continue_branch = lambda *args: follow(*args, ds_max=0.2)\n"
    "continuation._step_factor = lambda theta0: 1.4\n"
)
# AT_OLD_STEP, and end every branch, as verify did before the ends of a
# branch were located, at its first point past a lambda limit, with no fold
# inserted
AT_OLD_STEP_AND_ENDS = AT_OLD_STEP + (
    "import numpy as np\n"
    "def past_limit(problem, A, start, end, limit):\n"
    "    r = continuation.assemble_residual(problem, *end)\n"
    "    return (*end, float(np.linalg.norm(r)), 0.0)\n"
    "def no_fold(*args):\n"
    "    raise continuation.NewtonError('no fold located')\n"
    "continuation._end_on_limit = past_limit\n"
    "continuation._locate_fold = no_fold\n"
)


def fixed_growth(monkeypatch):
    """The step schedule under which the branches recorded in
    tests/test_continuation.py were taken, before each step came from the
    corrector's contraction: min(_DS0, ds_max) at first, then 1.4 times the
    last step after every accepted point, up to ds_max (then 0.2 by
    default); and the lambda column they were taken with, before it was
    exact: the central difference of two residuals (lambda_column)."""
    monkeypatch.setattr(continuation, "_step_factor", lambda theta0: 1.4)
    monkeypatch.setattr(continuation, "_lambda_column", central_difference)
