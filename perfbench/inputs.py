"""Seeded inputs for the benchmark workloads.

make_jobs(workload, seed, directory) writes every file a workload's jobs read
(CLI config files, potential files and a jobs.json manifest) into directory
and returns the manifest.  The same seed gives the same files.  The runner
reads the jobs back from the manifest, so symbif only ever sees these
generated inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

# symbif.potentials.slice_brouwer_degree starts from this box half-width and
# only halves it when the degree is undecidable there.
SLICE_HALF_WIDTH = 0.5
# A zero of the map closer than this (max norm) to the box boundary makes
# the degree at that box ill-posed for a sampled method; such draws are
# rejected, and no draw is rejected for any other reason.
BOUNDARY_MARGIN = 0.05


def _write_config(path: Path, section: str, items: dict) -> str:
    lines = [f"[{section}]"] + [f"{key} = {value}" for key, value in items.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _sphere_verify(rng, directory, seed):
    """2-sphere verify at truncation 12 (so2-ring: 288 dof).

    The window is fixed.  Moving its ends moves the detected levels in their
    last bits, and on so2-ring that picks another vector of the degenerate
    kernel as the branch seed (the kernel direction is whatever eigh returns),
    so the branch and the work change: with jittered windows the so2-ring
    job took 11 s to 26 s over ten seeds.  The seed draws the prediction
    cutoff instead, which leaves the predicted levels (2 and 6) and the
    Galerkin computation unchanged.
    """
    lo, hi = 0.5, 8.0
    cutoff = round(float(rng.uniform(7.0, 11.0)), 4)
    jobs = []
    for name in ("so2-ring", "pitchfork-scalar"):
        cfg = _write_config(
            directory / f"verify-{name}.cfg",
            "run",
            {
                "domain": "sphere",
                "dim": 3,
                "potential": name,
                "truncation": 12,
                "beta_cutoff": cutoff,
                "window": f"{lo}:{hi}",
                "seed": seed,
            },
        )
        jobs.append(
            {
                "id": f"verify-{name}",
                "kind": "cli",
                "argv": ["verify", "--config", cfg, "--out", str(directory / f"verify-{name}.json")],
                "report": str(directory / f"verify-{name}.json"),
                "oracle": "sphere-verify",
                # both builtins have A with the single nonzero eigenvalue 1
                "alphas": [1.0],
                "window": [lo, hi],
            }
        )
    return jobs


def _cayley(k):
    """Rational rotation (I - K)(I + K)^-1 of the skew matrix with entries k.

    With k = (+-1/p_1, +-1/p_2, +-1/p_3) and {p_i} = {2, 3, 5}, no entry of
    the rotation is 0: an off-diagonal entry vanishes only if
    k_i k_j = +-k_l, whose denominators p_i p_j and p_l differ, and a
    diagonal one only if a sum of squares with denominator 900 equals 1.
    So every u_j enters every y_i, and each seed's quartic has the same
    number of monomials, which sets the cost of a gradient call.  Every
    entry's denominator divides 1261 (det(I + K) = 1261/900), so the quartic's
    coefficients have the same size for every seed and all convert to
    float on the same path.  Larger numerators can push coefficients past
    2^53, which convert on a slower path (about 3% more per gradient call),
    so the cost of a call would depend on the seed.
    """
    K = [[0, -k[0], k[1]], [k[0], 0, -k[2]], [-k[1], k[2], 0]]
    plus = [[Fraction(int(i == j)) + K[i][j] for j in range(3)] for i in range(3)]
    minus = [[Fraction(int(i == j)) - K[i][j] for j in range(3)] for i in range(3)]

    def minor(M, r, c):
        rows = [row for i, row in enumerate(M) if i != r]
        m = [[x for j, x in enumerate(row) if j != c] for row in rows]
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    det = sum((-1) ** c * plus[0][c] * minor(plus, 0, c) for c in range(3))
    inv = [[(-1) ** (i + j) * minor(plus, j, i) / det for j in range(3)] for i in range(3)]
    return [[sum(minus[i][m] * inv[m][j] for m in range(3)) for j in range(3)] for i in range(3)]


def _quartic_text(R, a):
    """F = lambda sum a_i y_i^2 / 2 - sum y_i^4 / 4 with y = R^T u."""
    ys = [
        "(" + " + ".join(f"({R[j][i]})*u{j + 1}" for j in range(3)) + ")" for i in range(3)
    ]
    quadratic = " + ".join(f"({a[i]})*{ys[i]}^2" for i in range(3))
    quartic = " + ".join(f"{ys[i]}^4" for i in range(3))
    return f"lambda*({quadratic})/2 - ({quartic})/4"


def _slice3_degree(rng, directory, seed):
    """One `jump` on a rotated decoupled quartic with the trivial action.

    a_1 = 1 puts the circle level beta = 4 at lambda0 = 4.  Every |a_i| is at
    least 1, so each Jacobian factor lambda a_i - 3 y_i^2 keeps its sign in
    the slice box (|y| <= 0.87 there, and the factors vanish at
    |y_i| >= 1.09): the only zero inside is the origin and Newton converges
    from every start in a few steps.  That keeps the work nearly the same for
    every seed; with a singular surface inside the box the multistart cost
    ranged from 10 s to 21 s over five seeds.  The signs of a_2 and a_3 set
    the degree (+1 or -1).  The other circle levels beta/a_i stay at least
    0.8 away from lambda0, beyond epsilon.
    """
    lam0 = 4.0
    while True:
        R = _cayley(
            [
                Fraction(int(rng.choice([-1, 1])), int(p))
                for p in rng.permutation([2, 3, 5])
            ]
        )
        a = [Fraction(1)] + [
            int(rng.choice([-1, 1])) * Fraction(int(rng.integers(5, 8)), 4) for _ in range(2)
        ]
        eps = round(float(rng.uniform(0.2, 0.35)), 4)
        rotation = [[str(x) for x in row] for row in R]
        if all(
            oracles.boundary_distance(rotation, a, lam, SLICE_HALF_WIDTH) > BOUNDARY_MARGIN
            for lam in (lam0 - eps, lam0 + eps)
        ):
            break
    A = [[sum(R[i][m] * a[m] * R[j][m] for m in range(3)) for j in range(3)] for i in range(3)]
    pot = _write_config(
        directory / "quartic.cfg",
        "potential",
        {
            "name": f"rotated-quartic-{seed}",
            "p": 3,
            "action": "trivial",
            "u0": "0, 0, 0",
            "a": "; ".join(" ".join(repr(float(x)) for x in row) for row in A),
            "f": _quartic_text(R, a),
        },
    )
    cfg = _write_config(
        directory / "jump.cfg",
        "run",
        {
            "domain": "sphere",
            "dim": 2,
            "potential_file": pot,
            "lambda0": lam0,
            "epsilon": eps,
            "seed": seed,
        },
    )
    return [
        {
            "id": "jump-rotated-quartic",
            "kind": "cli",
            "argv": ["jump", "--config", cfg, "--out", str(directory / "jump.json")],
            "report": str(directory / "jump.json"),
            "oracle": "slice-jump",
            "rotation": rotation,
            "a": [str(x) for x in a],
            "lambda0": lam0,
            "epsilon": eps,
            "half_width": SLICE_HALF_WIDTH,
        }
    ]


def _disk_verify(rng, directory, seed):
    """Library pipeline on the disk with the basis cut at beta <= 200.

    The window holds one level (j'_11^2 ~ 3.39) whose continuation limits
    stay inside it for every seed.
    """
    lo = round(float(rng.uniform(0.4, 0.6)), 4)
    hi = round(float(rng.uniform(6.0, 6.5)), 4)
    return [
        {
            "id": f"disk-{name}",
            "kind": "disk-pipeline",
            "potential": name,
            "beta_cutoff": 200.0,
            "predict_cutoff": 20.0,
            "window": [lo, hi],
            "oracle": "disk-pipeline",
            "alphas": [1.0],
        }
        for name in ("pitchfork-scalar", "so2-ring")
    ]


_MAKERS = {
    "sphere-verify": _sphere_verify,
    "slice3-degree": _slice3_degree,
    "disk-verify": _disk_verify,
}
WORKLOADS = tuple(_MAKERS)


def make_jobs(workload: str, seed: int, directory: Path) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _MAKERS[workload](rng, directory, seed)
    (directory / "jobs.json").write_text(json.dumps(jobs, indent=1))
    return jobs


def load_jobs(directory: Path) -> list:
    return json.loads((directory / "jobs.json").read_text())
