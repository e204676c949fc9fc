import itertools
import math
from collections import Counter

import numpy as np
import pytest

from symbif import brouwer
from symbif.brouwer import (
    AdmissibilityError,
    Box,
    InconclusiveDegreeError,
    Interval,
    degree_1d,
    degree_nd,
)

from unit_ball import pointwise, unit_ball

RNG = np.random.default_rng(3)


def brute_force_winding(f, n=20_000):
    """Independent oracle: raw angle accumulation on a dense fixed circle."""
    angles = 2 * np.pi * np.arange(n + 1) / n
    total = 0.0
    prev = None
    for a in angles:
        v = f(np.array([math.cos(a), math.sin(a)]))
        ang = math.atan2(v[1], v[0])
        if prev is not None:
            d = ang - prev
            while d > math.pi:
                d -= 2 * math.pi
            while d <= -math.pi:
                d += 2 * math.pi
            total += d
        prev = ang
    return round(total / (2 * math.pi))


class TestDegree1D:
    def test_identity(self):
        assert degree_1d(lambda x: x, Interval(-1, 1)) == 1

    def test_pitchfork_interval(self):
        f = lambda x: 0.5 * x - x**3
        assert degree_1d(f, Interval(-2, 2)) == -1

    def test_no_zero_in_range(self):
        assert degree_1d(lambda x: x * x, Interval(-1, 2)) == 0

    def test_endpoint_zero_rejected(self):
        with pytest.raises(AdmissibilityError):
            degree_1d(lambda x: x, Interval(0, 1))


class TestDegree2D:
    def test_identity_disk(self):
        assert degree_nd(*unit_ball(lambda x: x, 2)) == 1

    def test_squaring_map(self):
        f = lambda x: np.array([x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1]])
        assert degree_nd(*unit_ball(pointwise(f), 2)) == 2
        assert brute_force_winding(f) == 2

    def test_minus_identity(self):
        assert degree_nd(*unit_ball(lambda x: -x, 2)) == 1

    def test_box_region(self):
        assert degree_nd(lambda x: x, Box((-1, -1), (1, 1))) == 1

    def test_cubic_winding_matches_oracle(self):
        f = lambda x: np.array(
            [x[0] ** 3 - 3 * x[0] * x[1] ** 2, 3 * x[0] ** 2 * x[1] - x[1] ** 3]
        )
        assert degree_nd(*unit_ball(pointwise(f), 2)) == 3 == brute_force_winding(f)

    def test_boundary_zero_rejected(self):
        f = lambda x: x - np.array([1.0, 0.0])
        with pytest.raises((AdmissibilityError, InconclusiveDegreeError)):
            degree_nd(*unit_ball(f, 2))

    def test_zero_near_an_edge_survives_the_starting_mesh(self):
        # Four of the six roots lie in the square, one 0.011 from x = 1.  A
        # start of 2 cells per side passes the angle test with an aliased sum
        # and confirms it, returning 3; the 16-per-side start returns 4.
        roots = np.array([-0.3392 + 0.0255j, -1.2903 + 0.9026j, 0.8581 + 0.3633j,
                          -0.8984 + 0.6286j, -0.6042 - 1.0621j, 0.9889 + 0.107j])
        inside = int(np.sum((abs(roots.real) < 1) & (abs(roots.imag) < 1)))

        def p(x):
            w = np.prod(complex(x[0], x[1]) - roots)
            return np.array([w.real, w.imag])

        assert degree_nd(pointwise(p), Box((-1, -1), (1, 1))) == inside == 4


class TestDegreeND:
    def test_identity(self):
        assert degree_nd(lambda x: x, Box((-1,) * 3, (1,) * 3)) == 1

    def test_minus_identity(self):
        assert degree_nd(lambda x: -x, Box((-1,) * 3, (1,) * 3)) == -1

    def test_product_with_pitchfork(self):
        lam = 1.0
        f = lambda x: np.array([lam * x[0] - x[0] ** 3, x[1], x[2]])
        deg3 = degree_nd(pointwise(f), Box((-2,) * 3, (2,) * 3))
        deg1 = degree_1d(lambda t: lam * t - t**3, Interval(-2, 2))
        assert deg3 == deg1 == -1

    def test_linear_isomorphism_signs(self):
        for _ in range(10):
            while True:
                A = RNG.normal(size=(3, 3))
                if abs(np.linalg.det(A)) > 0.3:
                    break
            deg = degree_nd(lambda X: X @ A.T, Box((-1,) * 3, (1,) * 3))
            assert deg == (1 if np.linalg.det(A) > 0 else -1)

    def test_rejects_wrong_dimension(self):
        for dim in (1, 4):
            with pytest.raises(ValueError):
                degree_nd(lambda x: x, Box((-1,) * dim, (1,) * dim))

    @pytest.mark.parametrize(
        "f, expected",
        [
            (lambda x: np.array([x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1], x[2]]), 2),
            (
                lambda x: np.array(
                    [x[0] ** 3 - 3 * x[0] * x[1] ** 2, 3 * x[0] ** 2 * x[1] - x[1] ** 3, -x[2]]
                ),
                -3,
            ),
            (lambda x: x + np.array([3.0, 0.0, 0.0]), 0),
        ],
        ids=["z^2", "-z^3", "shifted"],
    )
    @pytest.mark.parametrize(
        "region",
        [lambda f: (f, Box((-1,) * 3, (1,) * 3)), lambda f: unit_ball(f, 3)],
        ids=["box", "ball"],
    )
    def test_degrees_beyond_plus_minus_one(self, f, expected, region):
        assert degree_nd(*region(pointwise(f))) == expected

    @pytest.mark.parametrize(
        "region",
        [Box((0,) * 3, (1,) * 3), Box((-1,) * 3, (1,) * 3), Box((0, 0), (1, 1)), Box((-1, -1), (1, 1))],
    )
    def test_zero_on_boundary_vertex_is_inadmissible(self, region):
        # (1, 0, ...) is a corner of [0, 1]^dim and a face centre of [-1, 1]^dim
        p = np.eye(region.dim)[0]
        with pytest.raises(AdmissibilityError):
            degree_nd(lambda x: x - p, region)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_on_boundary_between_vertices_is_inconclusive(self, dim):
        # refinement closes in on (1, 1/3, ...) but no dyadic vertex reaches it
        p = np.array([1.0] + [1.0 / 3.0] * (dim - 1))
        points = []
        with pytest.raises(InconclusiveDegreeError):
            degree_nd(lambda X: points.append(len(X)) or X - p, Box((-1,) * dim, (1,) * dim))
        assert sum(points) < 1000

    def test_inconclusive_past_max_points(self, monkeypatch):
        # z^2 passes the angle test on the 98-vertex mesh, not on the 26-vertex
        # one, so the pair (26, 98) disagrees and no larger mesh is allowed
        f = pointwise(lambda x: np.array([x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1], x[2]]))
        monkeypatch.setattr(brouwer, "_MAX_POINTS_ND", 100)
        with pytest.raises(InconclusiveDegreeError):
            degree_nd(f, Box((-1,) * 3, (1,) * 3))
        monkeypatch.setattr(brouwer, "_MAX_POINTS_ND", 400)
        assert degree_nd(f, Box((-1,) * 3, (1,) * 3)) == 2

    def test_coarse_mesh_passing_the_angle_test_is_not_trusted(self):
        # This planar cubic has degree 1 on the unit disk.  Embedded in 3-D,
        # its images at the 8 corners of the coarsest ball mesh are pairwise
        # less than pi/2 apart on every triangle, yet sum to degree 0.
        f = random_poly_map_2d(np.random.default_rng(125))
        g = lambda x: np.array([*f(x[:2]), x[2]])
        ball = unit_ball(pointwise(g), 3)
        assert degree_nd(*unit_ball(pointwise(f), 2)) == 1
        coarsest = brouwer._mesh_degree(*ball, brouwer._uniform_cells(3, 1), {}, np.empty((0, 3)))
        assert coarsest[:2] == (0, [])
        assert degree_nd(*ball) == 1

    @pytest.mark.parametrize(
        "p, expected",
        [
            pytest.param((0.995, 0.3, -0.2), 1, id="0.995-1"),
            pytest.param((1.005, 0.3, -0.2), 0, id="1.005-0"),
            pytest.param((0.995, 0.3), 1, id="2d-0.995-1"),
            pytest.param((1.005, 0.3), 0, id="2d-1.005-0"),
        ],
    )
    def test_zero_just_inside_or_outside_a_face(self, p, expected):
        # only the cells near the zero are refined: in 3-D a uniform mesh
        # would need well over 1 << 16 vertices here
        dim = len(p)
        points = []
        f = lambda X: points.append(len(X)) or X - np.array(p)
        assert degree_nd(f, Box((-1,) * dim, (1,) * dim)) == expected
        assert sum(points) < 1000

    @pytest.mark.xfail(
        strict=True,
        reason="known wrong answer: a zero 0.00056 from the face x1 = 1 is missed by "
        "the 2 x 2 per face start and its confirmation; the result is 4, not 5",
    )
    def test_zero_very_near_a_face(self):
        roots = np.array([0.9994 - 0.0142j, -0.016 - 0.7851j, 0.4824 - 0.2074j,
                          -1.1094 + 0.8529j, 0.9531 + 0.8517j, -0.4863 - 0.0685j])
        inside = int(np.sum((abs(roots.real) < 1) & (abs(roots.imag) < 1)))

        def f(x):
            w = np.prod(complex(x[0], x[1]) - roots)
            return np.array([w.real, w.imag, x[2]])

        assert inside == 5
        assert degree_nd(pointwise(f), Box((-1,) * 3, (1,) * 3)) == inside

    def test_mixed_cell_sizes_close_the_surface(self):
        cells = brouwer._uniform_cells(3, 2)
        for _ in range(6):  # nest splits around one cell and its neighbours
            cells = cells[1:] + brouwer._split(cells[0])
        cells = [c for cell in cells for c in (brouwer._split(cell) if cell[:2] == (2, 0) else [cell])]
        tris, _ = brouwer._triangles(cells)
        edges = Counter((t[i], t[(i + 1) % 3]) for t in tris for i in range(3))
        assert set(edges.values()) == {1}
        assert all(edges[(q, p)] == 1 for p, q in edges)
        mesh = brouwer._mesh_degree(lambda x: x, Box((-1,) * 3, (1,) * 3), cells, {}, np.empty((0, 3)))
        assert mesh[:2] == (1, [])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_deterministic_evaluation_count(self, dim):
        A = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 3.0]])[:dim, :dim]
        results = []
        for _ in range(2):
            points = []
            f = lambda X: points.append(len(X)) or X @ A.T
            results.append((degree_nd(f, Box((-1,) * dim, (1,) * dim)), points))
        assert results[0] == results[1]
        assert results[0][0] == 1

    @pytest.mark.parametrize("dim, budget", [(2, 128), (3, 100)])
    def test_identity_within_evaluation_budget(self, dim, budget):
        # meshes of 64 and 128 vertices in 2-D, 26 and 98 in 3-D, each
        # vertex evaluated once
        points = []
        f = lambda X: points.append(len(X)) or X
        assert degree_nd(f, Box((-1,) * dim, (1,) * dim)) == 1
        assert sum(points) <= budget


class TestRowContract:
    """degree_nd evaluates each mesh level's new vertices in one call of f,
    a map of rows."""

    @staticmethod
    def _boundary_grid(dim, m):
        """The points of {-1, -1 + 2/m, ..., 1}^dim with a coordinate +-1."""
        ticks = [-1.0 + 2.0 * k / m for k in range(m + 1)]
        return {p for p in itertools.product(ticks, repeat=dim) if max(map(abs, p)) == 1.0}

    @pytest.mark.parametrize("dim, m", [(2, 16), (3, 2)])
    def test_one_call_per_mesh_level(self, dim, m):
        # the identity passes on the start mesh and on its refinement: 64 +
        # 64 vertices in 2-D, 26 + 72 in 3-D
        calls = []
        assert degree_nd(lambda X: calls.append(X.copy()) or X, Box((-1,) * dim, (1,) * dim)) == 1
        start, finer = self._boundary_grid(dim, m), self._boundary_grid(dim, 2 * m)
        assert [len(X) for X in calls] == [len(start), len(finer - start)]
        assert [{tuple(x) for x in X} for X in calls] == [start, finer - start]

    @pytest.mark.parametrize("cap, sizes", [(25, []), (97, [26])])
    def test_cap_raises_before_any_call_past_it(self, monkeypatch, cap, sizes):
        # the start mesh has 26 vertices and the next 98
        monkeypatch.setattr(brouwer, "_MAX_POINTS_ND", cap)
        calls = []
        with pytest.raises(InconclusiveDegreeError):
            degree_nd(lambda X: calls.append(len(X)) or X, Box((-1,) * 3, (1,) * 3))
        assert calls == sizes

    def test_admissibility_error_names_the_first_zero_vertex(self):
        zeros = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
        calls = []

        def f(X):
            calls.append(X)
            return X * np.min(np.linalg.norm(X[:, None] - zeros, axis=2), axis=1)[:, None]

        with pytest.raises(AdmissibilityError) as info:
            degree_nd(f, Box((-1,) * 3, (1,) * 3))
        (X,) = calls
        first = next(x for x in X if np.any(np.all(x == zeros, axis=1)))
        assert str(info.value) == f"map vanishes on the boundary (x={first})"

    def test_map_of_one_point_is_refused(self):
        # given 64 rows, this one-point map returns the 2 x 2 values of its
        # first two rows
        f = lambda x: np.array([x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1]])
        with pytest.raises(ValueError, match=r"shape \(64, 2\) to shape \(2, 2\)"):
            degree_nd(f, Box((-1, -1), (1, 1)))


def random_poly_map_2d(rng):
    """Random polynomial map of degree <= 3 in two variables."""
    coeffs = rng.normal(size=(2, 10))

    def f(x):
        u, v = x[0], x[1]
        mono = np.array([1.0, u, v, u * u, u * v, v * v, u**3, u * u * v, u * v * v, v**3])
        return coeffs @ mono

    return f


class TestCrossChecks:
    def test_2d_vs_3d_embedding_on_disk(self):
        found = 0
        attempts = 0
        while found < 20 and attempts < 200:
            attempts += 1
            f = random_poly_map_2d(RNG)
            # admissibility on the unit circle with margin
            angles = np.linspace(0, 2 * np.pi, 256, endpoint=False)
            pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            margin = min(np.linalg.norm(f(p)) for p in pts)
            if margin < 0.2:
                continue
            try:
                d2 = degree_nd(*unit_ball(pointwise(f), 2))
            except InconclusiveDegreeError:
                continue
            g = lambda x: np.array([*f(x[:2]), x[2]])
            d3 = degree_nd(*unit_ball(pointwise(g), 3))
            assert d2 == d3
            found += 1
        assert found == 20

    def test_scaling_invariance(self):
        checked = 0
        while checked < 20:
            c = float(RNG.uniform(0.1, 10.0))
            if checked % 2 == 0:
                a, b = np.sort(RNG.uniform(-2, 2, size=2))
                if b - a < 0.5:
                    continue
                coeff = RNG.normal(size=4)
                f = lambda x: coeff[0] + coeff[1] * x + coeff[2] * x * x + coeff[3] * x**3
                if abs(f(a)) < 1e-3 or abs(f(b)) < 1e-3:
                    continue
                assert degree_1d(lambda x: c * f(x), Interval(a, b)) == degree_1d(f, Interval(a, b))
            else:
                f = random_poly_map_2d(RNG)
                angles = np.linspace(0, 2 * np.pi, 128, endpoint=False)
                margin = min(
                    np.linalg.norm(f(np.array([np.cos(t), np.sin(t)]))) for t in angles
                )
                if margin < 0.2:
                    continue
                try:
                    base = degree_nd(*unit_ball(pointwise(f), 2))
                    scaled = degree_nd(*unit_ball(pointwise(lambda x: c * f(x)), 2))
                except InconclusiveDegreeError:
                    continue
                assert scaled == base
            checked += 1

    def test_product_multiplicativity(self):
        checked = 0
        while checked < 10:
            cf = RNG.normal(size=4)
            cg = RNG.normal(size=4)
            f = lambda x: cf[0] + cf[1] * x + cf[2] * x * x + cf[3] * x**3
            g = lambda y: cg[0] + cg[1] * y + cg[2] * y * y + cg[3] * y**3
            if min(abs(f(-1.5)), abs(f(1.5)), abs(g(-1.5)), abs(g(1.5))) < 1e-2:
                continue
            pair = lambda x: np.array([f(x[0]), g(x[1])])
            try:
                d2 = degree_nd(pointwise(pair), Box((-1.5, -1.5), (1.5, 1.5)))
            except (InconclusiveDegreeError, AdmissibilityError):
                continue
            d1a = degree_1d(f, Interval(-1.5, 1.5))
            d1b = degree_1d(g, Interval(-1.5, 1.5))
            assert d2 == d1a * d1b
            checked += 1
