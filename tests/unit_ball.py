"""The unit ball as a region of degree_nd, which takes boxes."""

import numpy as np

from symbif.brouwer import Box


def unit_ball(f, dim):
    """(map, box) whose degree is f's on the unit ball of R^dim: the map is f
    after the radial projection x -> x / |x|, which takes the boundary of
    [-1, 1]^dim onto the unit sphere with its orientation, and degree_nd
    evaluates a map on the boundary alone."""
    return (lambda x: f(x / np.linalg.norm(x))), Box((-1.0,) * dim, (1.0,) * dim)
