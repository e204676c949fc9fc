"""The exact group action on Galerkin coefficient vectors: the independent
equivariance oracle of the residual tests."""

import math
from typing import Optional

import numpy as np

from symbif.continuation import GalerkinProblem, _angular_pairs


def apply_group_element(
    problem: GalerkinProblem,
    c,
    domain_angle: float = 0.0,
    gamma: Optional[np.ndarray] = None,
    include_shift: bool = True,
) -> np.ndarray:
    """Coefficients of (gamma, rotation) applied to the state u = u0 + v.

    Domain rotation is about the reference axis (the full rotation group on
    the circle and the disk).  With include_shift=False only the linear part
    acts, which is how the residual transforms.
    """
    C = np.asarray(c, float).reshape(problem.n_funcs, problem.p).copy()
    if domain_angle != 0.0:
        out = C.copy()
        for cos_row, sin_row, freq in _angular_pairs(problem.eigens):
            ang = freq * domain_angle
            ca, sa = math.cos(ang), math.sin(ang)
            out[cos_row, :] = ca * C[cos_row, :] - sa * C[sin_row, :]
            out[sin_row, :] = sa * C[cos_row, :] + ca * C[sin_row, :]
        C = out
    if gamma is not None:
        gamma = np.asarray(gamma, float)
        C = C @ gamma.T
        if include_shift:
            C[0, :] += math.sqrt(problem.domain.measure) * (gamma @ problem.spec.u0 - problem.spec.u0)
    return C.ravel()
