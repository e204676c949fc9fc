"""Brouwer degree of continuous maps on intervals and on 2-D or 3-D boxes.

The 1-D degree is an endpoint-sign formula.  In dimensions 2 and 3 one
boundary method computes the degree: the signed measure swept by the
normalized boundary image over that of the unit sphere (Stenger, "Computing
the topological degree of a mapping in R^n", Numer. Math. 1975), summed over
a boundary mesh refined where image simplices have vertices pi/2 or more
apart, and accepted when one more refinement of every cell gives the same
integer.  A simplex is a segment in 2-D, measured by its signed angle, and a
triangle in 3-D, measured by the solid-angle formula of Van Oosterom &
Strackee (IEEE TBME 1983).  The map takes points as rows, and each mesh's
new vertices are evaluated in one call.  Every degree here is
deterministic.  Inconclusive outcomes raise; they are never silently
reported as 0.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdmissibilityError",
    "InconclusiveDegreeError",
    "Interval",
    "Box",
    "degree_1d",
    "degree_nd",
]


class AdmissibilityError(ValueError):
    """The map vanishes on (or too close to) the region boundary."""


class InconclusiveDegreeError(RuntimeError):
    """The degree could not be certified at the allowed resolution."""


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("interval must have positive length")


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box corner dimensions differ")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent")

    @property
    def dim(self):
        return len(self.lo)


def degree_1d(f, interval: Interval) -> int:
    """Degree of a scalar map on [a, b]: (sign f(b) - sign f(a)) / 2."""
    fa = float(f(interval.a))
    fb = float(f(interval.b))
    if fa == 0.0 or fb == 0.0:
        raise AdmissibilityError("map vanishes at an interval endpoint")
    sa = 1 if fa > 0 else -1
    sb = 1 if fb > 0 else -1
    return (sb - sa) // 2


# --------------------------------------------------------------------------
# 2-D and 3-D degree via signed angles of the boundary image

# Most boundary vertices degree_nd evaluates.
_MAX_POINTS_ND = 1 << 16
# Mesh vertices have integer coordinates on the boundary of [0, _SCALE]^dim.
_SCALE = 1 << 40
# Cells per side of a face in the starting mesh.  In 2-D, 16 per side gives
# 64 vertices: with 2 per side the first mesh that passes the angle test can
# alias and its confirmation then agrees, e.g. 3 for a product of six factors
# z - r whose degree on [-1, 1]^2 is 4 (a test).  In 3-D, 2 x 2 per face starts
# at 26 vertices, so a map that turns little is decided in 98 evaluations; a
# finer start would multiply the cost of every slice degree.
_START_CELLS = {2: 16, 3: 2}


def _uniform_cells(dim, m):
    """Cells cutting each face of the unit cube [0, 1]^dim (scaled) into m^(dim-1).

    A 3-D cell (a, side, i, j, s) is the square in the face x_a = side that
    spans [i, i + s] x [j, j + s] in the coordinates (x_b, x_c), b = a + 1 and
    c = a + 2 mod 3.  A 2-D cell (a, side, i, s) is the segment in the face
    x_a = side that spans [i, i + s] in x_(1 - a).
    """
    s = _SCALE // m
    return [
        (a, side, *(k * s for k in ks), s)
        for a in range(dim)
        for side in (0, _SCALE)
        for ks in itertools.product(range(m), repeat=dim - 1)
    ]


def _split(cell):
    s = cell[-1]
    if s < 2:
        raise InconclusiveDegreeError("boundary mesh reached its finest resolution")
    h = s // 2
    if len(cell) == 4:
        a, side, i, _ = cell
        return [(a, side, i, h), (a, side, i + h, h)]
    a, side, i, j, _ = cell
    return [(a, side, i + di, j + dj, h) for di in (0, h) for dj in (0, h)]


def _segments(cells):
    """Counterclockwise segments of 2-D cells, as vertex pairs.

    Neighbouring segments meet only at their end points, so the boundary is
    closed whatever the cell sizes.
    """
    segs = []
    for a, side, i, s in cells:
        p, q = ((side, i), (side, i + s)) if a == 0 else ((i, side), (i + s, side))
        # p -> q runs up the right side and along the bottom: reverse on the left and top
        segs.append((q, p) if (side == 0) != (a == 1) else (p, q))
    return segs, np.arange(len(cells))


def _point(a, side, u, v):
    p = [0, 0, 0]
    p[a], p[(a + 1) % 3], p[(a + 2) % 3] = side, u, v
    return tuple(p)


def _triangles(cells):
    """Outward-oriented triangles of 3-D cells, as vertex triples.

    A cell is the polygon of its corners and of every finer cell's corner on
    its sides, fanned from its corner (i, j).  A cell with no such extra
    vertex is cut along the diagonal from (i, j).  Neighbouring cells then
    list the same vertices along a shared side, so the surface is closed
    whatever the cell sizes.
    """
    corners = [[_point(a, side, u, v) for u, v in ((i, j), (i + s, j), (i + s, j + s), (i, j + s))]
               for a, side, i, j, s in cells]
    finest = min(cell[4] for cell in cells)
    lines = {}  # axis-parallel line -> sorted coordinates of the vertices on it
    if any(cell[4] > finest for cell in cells):
        for p in {p for cs in corners for p in cs}:
            for k in range(3):
                lines.setdefault((k, *p[:k], *p[k + 1:]), []).append(p[k])
        for coords in lines.values():
            coords.sort()

    def inner(p, q):
        k = next(k for k in range(3) if p[k] != q[k])
        coords = lines[(k, *p[:k], *p[k + 1:])]
        lo, hi = sorted((p[k], q[k]))
        between = coords[bisect.bisect_right(coords, lo):bisect.bisect_left(coords, hi)]
        if p[k] > q[k]:
            between.reverse()
        return [p[:k] + (x,) + p[k + 1:] for x in between]

    tris, owner = [], []
    for n, (cell, cs) in enumerate(zip(cells, corners)):
        loop = cs  # counterclockwise in (x_b, x_c)
        if cell[4] > finest:  # a side may carry a finer neighbour's corners
            loop = []
            for p, q in zip(cs, cs[1:] + cs[:1]):
                loop += [p] + inner(p, q)
        if cell[1] == 0:  # outward normal -e_a: reverse the loop
            loop = loop[:1] + loop[:0:-1]
        for p, q in zip(loop[1:-1], loop[2:]):
            tris.append((loop[0], p, q))
            owner.append(n)
    return tris, np.array(owner)


def _surface_points(box, t):
    """Map points t of the unit cube's boundary affinely onto the box's."""
    lo = np.asarray(box.lo, float)
    return lo + (np.asarray(box.hi, float) - lo) * t


def _mesh_degree(f, region, cells, index, images):
    """Degree on the mesh of the given cells.

    Returns (degree, failing, images) where failing lists the cells having
    an image simplex with two vertices at least pi/2 apart; degree is None
    unless failing is empty.  images holds the normalized values of f by
    row, and index maps each vertex evaluated so far to its row: the mesh's
    new vertices are evaluated in one call of f, their rows appended to the
    returned images and added to index, so successive meshes evaluate a
    shared vertex once.
    """
    simplices, owner = (_segments if region.dim == 2 else _triangles)(cells)
    verts = {p for simplex in simplices for p in simplex}
    if len(verts) > _MAX_POINTS_ND:
        raise InconclusiveDegreeError(
            f"boundary mesh would need more than {_MAX_POINTS_ND} vertices"
        )
    new = [p for p in verts if p not in index]
    if new:
        points = _surface_points(region, np.array(new, float) / _SCALE)
        values = np.asarray(f(points), float)
        if values.shape != points.shape:
            raise ValueError(f"f maps points of shape {points.shape} to shape {values.shape}")
        norms = np.linalg.norm(values, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise AdmissibilityError(f"map vanishes on the boundary (x={points[zero[0]]})")
        index.update(zip(new, range(len(images), len(images) + len(new))))
        images = np.concatenate([images, values / norms[:, None]])
    u = images[np.array([[index[p] for p in simplex] for simplex in simplices])]
    a, b = u[:, 0], u[:, 1]
    ab = np.sum(a * b, axis=1)
    if region.dim == 2:  # signed angle of each image segment
        bad = ab <= 0.0
        angles = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], ab)
        full = 2.0 * math.pi
    else:  # signed solid angle of each image triangle
        c = u[:, 2]
        bc = np.sum(b * c, axis=1)
        ca = np.sum(c * a, axis=1)
        bad = (ab <= 0.0) | (bc <= 0.0) | (ca <= 0.0)
        triple = np.sum(a * np.cross(b, c), axis=1)
        angles = 2.0 * np.arctan2(triple, 1.0 + ab + bc + ca)
        full = 4.0 * math.pi
    if bad.any():
        return None, sorted(set(owner[bad].tolist())), images
    total = float(np.sum(angles)) / full
    if not math.isfinite(total) or abs(total - round(total)) > 1e-6:
        raise InconclusiveDegreeError(f"boundary degree {total} is not close to an integer")
    return int(round(total)), [], images


def degree_nd(f, region) -> int:
    """Degree of a 2-D or 3-D map from the signed measure of its boundary image.

    The boundary of the box is cut into cells, starting from 16 per side in
    2-D and 2 x 2 per face in 3-D.
    A 2-D cell is one counterclockwise segment; a 3-D cell is a square cut
    into outward-oriented triangles.  Each mesh's new vertices are evaluated
    in one call of f, so f is evaluated once at each vertex.
    On a mesh whose image simplices have vertices pairwise less than pi/2
    apart (positive dot products), the degree is the sum of the signed
    measures of the image simplices over that of the unit sphere (Stenger,
    Numer. Math. 24, 1975): segment angles over 2 pi, or solid angles over
    4 pi by the formula of Van Oosterom & Strackee (IEEE Trans. Biomed.
    Eng. 30, 1983).  Cells with a failing simplex are split in two (2-D) or
    four (3-D) until the test passes.  The test alone does not rule out a
    map that turns between vertices, so a degree is returned only when the
    mesh with every cell split once more also passes and gives the same
    integer.  The 3-D refinement is conforming: a cell's triangles use the
    vertices of finer neighbours on its sides, so the image surface stays
    closed.

    f maps points as rows: an array of shape (k, dim) to the k values, of
    the same shape; ValueError when a value array has another shape.
    Raises AdmissibilityError naming the first vertex where f vanishes and
    InconclusiveDegreeError when the mesh would need more than 1 << 16
    vertices or cells finer than the dyadic limit, or a sum is not within
    1e-6 of an integer.  The result is deterministic.
    """
    if not isinstance(region, Box):
        raise ValueError("degree_nd needs a box region")
    if region.dim not in _START_CELLS:
        raise ValueError("degree_nd supports dimensions 2 and 3 only")

    cells = _uniform_cells(region.dim, _START_CELLS[region.dim])
    index, images = {}, np.empty((0, region.dim))
    previous = None  # degree of the mesh whose cells were all just split
    while True:
        degree, failing, images = _mesh_degree(f, region, cells, index, images)
        if degree is not None and degree == previous:
            return degree
        previous = degree
        if degree is not None:
            failing = range(len(cells))
        split = set(failing)
        cells = [c for n, cell in enumerate(cells) for c in (_split(cell) if n in split else [cell])]
