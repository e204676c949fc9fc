"""Brouwer degree of continuous maps on intervals, planar regions, and 3-D
boxes/balls.

The 1-D degree is an endpoint-sign formula, the 2-D degree is a certified
winding number (adaptive boundary subdivision until consecutive image points
subtend less than pi/2), and the 3-D degree is the signed solid angle swept
by the normalized boundary image over 4 pi (Stenger, "Computing the
topological degree of a mapping in R^n", Numer. Math. 1975), summed with
the triangle solid-angle formula of Van Oosterom & Strackee (IEEE TBME 1983)
over a boundary triangulation refined where image triangles have vertices
pi/2 or more apart, and accepted when one more refinement of every cell
gives the same integer.  All three are deterministic.  Inconclusive
outcomes raise; they are never silently reported as 0.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdmissibilityError",
    "InconclusiveDegreeError",
    "Interval",
    "Box",
    "BallRegion",
    "degree_1d",
    "degree_2d",
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


@dataclass(frozen=True)
class BallRegion:
    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self):
        return len(self.center)


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
# 2-D winding number


def _boundary_point(region, s):
    """Positively oriented boundary parameterization over s in [0, 1)."""
    if isinstance(region, BallRegion):
        ang = 2.0 * math.pi * s
        cx, cy = region.center
        return np.array([cx + region.radius * math.cos(ang), cy + region.radius * math.sin(ang)])
    lo, hi = region.lo, region.hi
    wx = hi[0] - lo[0]
    wy = hi[1] - lo[1]
    per = 2.0 * (wx + wy)
    d = (s % 1.0) * per
    if d < wx:
        return np.array([lo[0] + d, lo[1]])
    d -= wx
    if d < wy:
        return np.array([hi[0], lo[1] + d])
    d -= wy
    if d < wx:
        return np.array([hi[0] - d, hi[1]])
    d -= wx
    return np.array([lo[0], hi[1] - d])


def degree_2d(f, region, boundary_resolution: int = 64, max_points: int = 1 << 16) -> int:
    """Winding number of f along the positively oriented region boundary."""
    if isinstance(region, Box) and region.dim != 2:
        raise ValueError("degree_2d needs a two-dimensional region")
    if isinstance(region, BallRegion) and region.dim != 2:
        raise ValueError("degree_2d needs a two-dimensional region")
    if boundary_resolution < 4:
        raise ValueError("boundary_resolution must be at least 4")

    params = list(np.linspace(0.0, 1.0, boundary_resolution, endpoint=False))
    angles = {}

    def angle_at(s):
        if s not in angles:
            v = np.asarray(f(_boundary_point(region, s)), float)
            n = math.hypot(v[0], v[1])
            if n == 0.0:
                raise AdmissibilityError(f"map vanishes on the boundary (s={s})")
            angles[s] = math.atan2(v[1], v[0])
        return angles[s]

    for s in params:
        angle_at(s)

    while True:
        refined = []
        ok = True
        for i, s in enumerate(params):
            s_next = params[(i + 1) % len(params)]
            refined.append(s)
            d = _wrap_angle(angle_at(s_next) - angle_at(s))
            if abs(d) >= 0.5 * math.pi:
                mid = s + (((s_next - s) % 1.0) / 2.0)
                refined.append(mid % 1.0)
                ok = False
        if ok:
            break
        if len(refined) > max_points:
            raise InconclusiveDegreeError(
                "boundary angle condition not certified at maximum refinement"
            )
        params = refined

    total = 0.0
    for i, s in enumerate(params):
        s_next = params[(i + 1) % len(params)]
        total += _wrap_angle(angle_at(s_next) - angle_at(s))
    winding = total / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 1e-6:
        raise InconclusiveDegreeError(f"winding number {winding} is not close to an integer")
    return int(nearest)


def _wrap_angle(d):
    while d > math.pi:
        d -= 2.0 * math.pi
    while d <= -math.pi:
        d += 2.0 * math.pi
    return d


# --------------------------------------------------------------------------
# 3-D degree via signed solid angles of the boundary image

# Most boundary vertices degree_nd evaluates.
_MAX_POINTS_ND = 1 << 16
# Mesh vertices have integer coordinates on the boundary of [0, _SCALE]^3.
_SCALE = 1 << 40


def _uniform_cells(m):
    """Square cells (a, side, i, j, s) cutting each face of the cube into m x m.

    A cell lies in the face x_a = side and spans [i, i + s] x [j, j + s] in
    the coordinates (x_b, x_c), b = a + 1 and c = a + 2 mod 3.
    """
    s = _SCALE // m
    return [
        (a, side, i * s, j * s, s)
        for a in range(3)
        for side in (0, _SCALE)
        for i in range(m)
        for j in range(m)
    ]


def _split(cell):
    a, side, i, j, s = cell
    if s < 2:
        raise InconclusiveDegreeError("boundary mesh reached its finest resolution")
    h = s // 2
    return [(a, side, i + di, j + dj, h) for di in (0, h) for dj in (0, h)]


def _point(a, side, u, v):
    p = [0, 0, 0]
    p[a], p[(a + 1) % 3], p[(a + 2) % 3] = side, u, v
    return tuple(p)


def _triangles(cells):
    """Outward-oriented triangles of the cells, as vertex triples.

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


def _surface_points(region, t):
    """Map points t of the unit cube's boundary onto the region boundary:
    affinely onto a box, radially projected onto a ball's sphere."""
    if isinstance(region, Box):
        lo = np.asarray(region.lo, float)
        return lo + (np.asarray(region.hi, float) - lo) * t
    x = 2.0 * t - 1.0
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return np.asarray(region.center, float) + region.radius * x


def _mesh_degree(f, region, cells, images):
    """Solid-angle degree on the mesh of the given cells.

    Returns (degree, failing) where failing lists the cells having an image
    triangle with two vertices at least pi/2 apart; degree is None unless
    failing is empty.  images caches normalized values of f by vertex, so
    successive meshes evaluate a shared vertex once.
    """
    tris, owner = _triangles(cells)
    verts = list({p for tri in tris for p in tri})
    if len(verts) > _MAX_POINTS_ND:
        raise InconclusiveDegreeError(
            f"boundary mesh would need more than {_MAX_POINTS_ND} vertices"
        )
    new = [p for p in verts if p not in images]
    if new:
        points = _surface_points(region, np.array(new, float) / _SCALE)
        for p, x in zip(new, points):
            v = np.asarray(f(x), float)
            n = float(np.linalg.norm(v))
            if n == 0.0:
                raise AdmissibilityError(f"map vanishes on the boundary (x={x})")
            images[p] = v / n
    u = np.array([[images[p] for p in tri] for tri in tris])
    a, b, c = u[:, 0], u[:, 1], u[:, 2]
    ab = np.sum(a * b, axis=1)
    bc = np.sum(b * c, axis=1)
    ca = np.sum(c * a, axis=1)
    bad = (ab <= 0.0) | (bc <= 0.0) | (ca <= 0.0)
    if bad.any():
        return None, sorted(set(owner[bad].tolist()))
    triple = np.sum(a * np.cross(b, c), axis=1)
    total = float(np.sum(2.0 * np.arctan2(triple, 1.0 + ab + bc + ca))) / (4.0 * math.pi)
    if not math.isfinite(total) or abs(total - round(total)) > 1e-6:
        raise InconclusiveDegreeError(f"solid-angle degree {total} is not close to an integer")
    return int(round(total)), []


def degree_nd(f, region) -> int:
    """Degree of a 3-D map from the signed solid angle of its boundary image.

    The boundary of the box (or, projected radially, of the ball) is cut
    into square cells, starting from 2 x 2 per face, each cell into
    outward-oriented triangles, and f is evaluated once at each vertex.  On
    a mesh whose image triangles have vertices pairwise less than pi/2
    apart (positive dot products, the test degree_2d applies to consecutive
    boundary points), the degree is the sum of the signed solid angles of
    the image triangles over 4 pi (Stenger, Numer. Math. 24, 1975), each
    angle by the formula of Van Oosterom & Strackee (IEEE Trans. Biomed.
    Eng. 30, 1983).  Cells with a failing triangle are split into four
    until the test passes.  The test alone does not rule out a map that
    turns between vertices, so a degree is returned only when the mesh
    with every cell split once more also passes and gives the same integer.
    The refinement is conforming: a cell's triangles use the vertices of
    finer neighbours on its sides, so the image surface stays closed.

    f takes a point of shape (3,).  Raises AdmissibilityError when f
    vanishes at a mesh vertex and InconclusiveDegreeError when the mesh
    would need more than 1 << 16 vertices or a sum is not within 1e-6 of an
    integer.  The result is deterministic.
    """
    if not isinstance(region, (Box, BallRegion)):
        raise ValueError("degree_nd needs a box or ball region")
    if region.dim != 3:
        raise ValueError("degree_nd supports dimension 3 only")

    cells = _uniform_cells(2)
    images = {}
    previous = None  # degree of the mesh whose cells were all just split
    while True:
        degree, failing = _mesh_degree(f, region, cells, images)
        if degree is not None and degree == previous:
            return degree
        previous = degree
        if degree is not None:
            failing = range(len(cells))
        split = set(failing)
        cells = [c for n, cell in enumerate(cells) for c in (_split(cell) if n in split else [cell])]
