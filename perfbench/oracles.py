"""Exact answers for the benchmark's jobs, computed without symbif.

Each check returns a list of problems; an empty list means the job's output
matches the oracle.  Nothing here imports symbif, so an optimization of the
package cannot change the answers it is checked against.

* 2-sphere: the bifurcation levels of a potential whose linearization is
  lambda * A are l(l+1)/alpha for the nonzero eigenvalues alpha of A.
* Disk (Neumann): the levels are j'^2/alpha, with j' the positive zeros of
  the Bessel derivatives J_l'; scipy.special supplies them.
* Rotated decoupled quartic: grad F(u) = R g(R^T u) with
  g_i(y) = lambda a_i y_i - y_i^3, so every zero is u = R y with each y_i in
  {0, +-sqrt(lambda a_i)}, and the Jacobian determinant there is the product
  of lambda a_i - 3 y_i^2.  The slice degree on a box is the signed count of
  the zeros inside it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

LEVEL_TOL = 1e-6


def sphere_levels(alphas, window):
    """Levels l(l+1)/alpha on the 2-sphere strictly inside the window."""
    lo, hi = window
    out = []
    for alpha in alphas:
        l = 1
        while True:
            level = l * (l + 1) / alpha
            if level >= hi:
                break
            if level > lo:
                out.append(level)
            l += 1
    return sorted(out)


def disk_levels(alphas, window):
    """Levels j'^2/alpha on the disk strictly inside the window."""
    from scipy.special import jnp_zeros

    lo, hi = window
    out = []
    for alpha in alphas:
        x_max = math.sqrt(hi * alpha)
        l = 0
        # the first zero of J_l' exceeds l, so l = x_max ends the search
        while l <= x_max:
            count = 1
            while True:
                zeros = jnp_zeros(l, count)
                if zeros[-1] > x_max:
                    break
                count += 1
            for z in zeros:
                level = z * z / alpha
                if lo < level < hi:
                    out.append(float(level))
            l += 1
    return sorted(out)


def quartic_zeros(rotation, a, lam):
    """Zeros u of the rotated decoupled quartic's gradient, with the sign of
    the Jacobian determinant at each."""
    R = np.array([[float(Fraction(x)) for x in row] for row in rotation])
    choices = []
    for ai in a:
        la = lam * float(Fraction(ai))
        axis = [(0.0, 1 if la > 0 else -1)]
        if la > 0:
            root = math.sqrt(la)
            axis += [(root, -1), (-root, -1)]
        choices.append(axis)
    zeros = []
    for combo in itertools.product(*choices):
        y = np.array([c[0] for c in combo])
        zeros.append((R @ y, math.prod(c[1] for c in combo)))
    return zeros


def box_degree(rotation, a, lam, half_width):
    """Signed count of the zeros inside the box [-half_width, half_width]^3."""
    return sum(
        sign for u, sign in quartic_zeros(rotation, a, lam) if np.max(np.abs(u)) < half_width
    )


def boundary_distance(rotation, a, lam, half_width):
    """Smallest distance, in the max norm, from a zero to the box boundary."""
    return min(
        abs(float(np.max(np.abs(u))) - half_width) for u, _ in quartic_zeros(rotation, a, lam)
    )


def _compare_levels(detected, expected):
    if len(detected) != len(expected):
        return [f"detected {len(detected)} levels {detected}, expected {expected}"]
    return [
        f"detected level {d} differs from exact {e}"
        for d, e in zip(sorted(detected), expected)
        if abs(d - e) > LEVEL_TOL
    ]


def check_sphere_verify(report, job):
    problems = []
    if report.get("verdict") != "CONSISTENT":
        problems.append(f"verdict {report.get('verdict')}")
    expected = sphere_levels(job["alphas"], job["window"])
    problems += _compare_levels(report.get("detected", []), expected)
    return problems


def check_slice_jump(report, job):
    cand = report.get("candidate", {})
    w = job["half_width"]
    problems = []
    for key, lam in (("b_minus", job["lambda0"] - job["epsilon"]), ("b_plus", job["lambda0"] + job["epsilon"])):
        exact = box_degree(job["rotation"], job["a"], lam, w)
        if cand.get(key) != exact:
            problems.append(f"{key} = {cand.get(key)}, exact signed zero count {exact}")
    return problems


def check_disk_pipeline(answer, job):
    expected = disk_levels(job["alphas"], job["window"])
    problems = _compare_levels(answer["detected"], expected)
    for branch in answer["branches"]:
        if branch["points"] < 2:
            problems.append(f"branch at {branch['lambda_star']} has {branch['points']} point(s)")
    if not answer["branches"]:
        problems.append("no branch captured inside a candidate interval")
    return problems


CHECKS = {
    "sphere-verify": check_sphere_verify,
    "slice-jump": check_slice_jump,
    "disk-pipeline": check_disk_pipeline,
}
