"""Regions and maps for degree_nd, which takes boxes and maps of rows."""

import numpy as np

from symbif.brouwer import Box


def unit_ball(f, dim):
    """(map, box) whose degree is f's on the unit ball of R^dim: the map is f
    after the radial projection of each row x -> x / |x|, which takes the
    boundary of [-1, 1]^dim onto the unit sphere with its orientation, and
    degree_nd evaluates a map on the boundary alone."""
    return (lambda X: f(X / np.linalg.norm(X, axis=1, keepdims=True))), Box((-1.0,) * dim, (1.0,) * dim)


def pointwise(f):
    """The map of rows that applies the one-point map f to each row."""
    return lambda X: np.array([f(x) for x in X])
