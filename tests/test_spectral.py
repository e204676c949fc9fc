import itertools
import math

import numpy as np
import pytest
from scipy import optimize, special

from symbif import bessel, spectral
from symbif.continuation import build_problem
from symbif.potentials import builtin
from symbif.spectral import ball, sphere


def harmonic_dim_by_enumeration(n, l):
    """Count homogeneous harmonic polynomials: monomials of degree l minus
    monomials of degree l - 2 (the Laplacian is onto)."""

    def n_monomials(deg):
        if deg < 0:
            return 0
        return sum(1 for _ in itertools.combinations_with_replacement(range(n), deg))

    return n_monomials(l) - n_monomials(l - 2)


class TestSphereSpectrum:
    def test_dimension_three(self):
        entries = spectral.sphere_spectrum(3, 4)
        assert [e.value for e in entries] == [0.0, 2.0, 6.0, 12.0]
        assert [e.multiplicity for e in entries] == [1, 3, 5, 7]

    def test_circle(self):
        entries = spectral.sphere_spectrum(2, 4)
        assert [e.value for e in entries] == [0.0, 1.0, 4.0, 9.0]
        assert [e.multiplicity for e in entries] == [1, 2, 2, 2]

    def test_high_dimension_constant(self):
        entries = spectral.sphere_spectrum(5, 1)
        assert [e.value for e in entries] == [0.0]
        assert [e.multiplicity for e in entries] == [1]

    def test_multiplicities_match_enumeration(self):
        for n in (2, 3, 4, 5):
            entries = spectral.sphere_spectrum(n, 7)
            for e in entries:
                assert e.multiplicity == harmonic_dim_by_enumeration(n, e.angular_degree)

    def test_strictly_increasing(self):
        for n in (2, 3, 6):
            vals = [e.value for e in spectral.sphere_spectrum(n, 10)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert vals[0] == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            spectral.sphere_spectrum(1, 3)
        with pytest.raises(ValueError):
            spectral.sphere_spectrum(3, 0)


class TestHarmonicDimension:
    def test_examples(self):
        assert spectral.harmonic_dimension(3, 4) == 9
        assert spectral.harmonic_dimension(2, 0) == 1
        assert spectral.harmonic_dimension(4, 2) == 9

    def test_against_enumeration(self):
        for n in range(2, 6):
            for l in range(0, 8):
                assert spectral.harmonic_dimension(n, l) == harmonic_dim_by_enumeration(n, l)


def scipy_neumann_roots(ambient_dim, l, x_max):
    """Independent root oracle: scipy Bessel derivative plus brentq."""
    if ambient_dim == 2:
        g = lambda x: special.jvp(l, x)
    else:
        g = lambda x: special.spherical_jn(l, x, derivative=True)
    xs = np.linspace(1e-3, x_max, 4 * int(x_max * 10))
    vals = g(xs)
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(optimize.brentq(g, xs[i], xs[i + 1], xtol=1e-15))
    return roots


class Recorder:
    """A newton callable for bessel._newton built from one (g, g') stub per
    order, recording the points of every call."""

    def __init__(self, *stubs):
        self.stubs, self.calls = stubs, []

    def __call__(self, order, x):
        self.calls.append(x.copy())
        out = np.array([self.stubs[l](xi) for l, xi in zip(order, x)]).reshape(-1, 2)
        return out[:, 0], out[:, 1]


def refine(newton, brackets):
    """Run bessel._newton on brackets (a, b), order k for the k-th."""
    a, b = (np.array(v, float) for v in zip(*brackets))
    g = lambda x: np.array([newton.stubs[k](xk)[0] for k, xk in enumerate(x)])
    return bessel._newton(newton, np.arange(a.size), a, b, g(a), g(b))


class TestNewtonRefinement:
    def test_a_step_that_leaves_the_bracket_falls_back_to_the_midpoint(self):
        # atan(x - r): from the regula-falsi point, 7.5 left of r, the
        # Newton step lands 75 right of it, outside the bracket, and
        # unguarded Newton diverges from there; the midpoint is taken instead
        r = 1.0 / 3.0
        stub = lambda x: (math.atan(x - r), 1.0 / (1.0 + (x - r) ** 2))
        newton = Recorder(stub)
        root = refine(newton, [(-20.0, 3.0)])[0]
        assert abs(root - r) <= 1e-15
        x0, x1 = newton.calls[0][0], newton.calls[1][0]
        assert x0 < r - 5.0 and x0 - stub(x0)[0] / stub(x0)[1] > 3.0
        assert x1 == 0.5 * (x0 + 3.0)
        assert len(newton.calls) < 15

    def test_an_exact_zero_at_an_iterate_is_the_root(self):
        # (x - 1/2)^3 is 0 at the regula-falsi point of (0, 1), where its
        # derivative is 0 too, so only the exact-zero rule ends that bracket
        # (on the first call); a second bracket converges beside it
        cubic = lambda x: ((x - 0.5) ** 3, 3.0 * (x - 0.5) ** 2)
        newton = Recorder(cubic, lambda x: (x * x - 2.0, 2.0 * x))
        roots = refine(newton, [(0.0, 1.0), (1.0, 2.0)])
        assert roots[0] == 0.5 and abs(roots[1] - math.sqrt(2.0)) <= 1e-15
        assert newton.calls[0][0] == 0.5
        assert all(c.size == 1 for c in newton.calls[1:])

    def test_a_bracket_that_never_meets_the_step_test_raises(self):
        # a jump, not a root: every Newton step is 1, so the bracket is
        # bisected down to adjacent floats and never returned
        jump = lambda x: (-1.0 if x < 1.0 / 3.0 else 1.0, 1.0)
        newton = Recorder(jump)
        with pytest.raises(RuntimeError, match=r"order 0 not converged in \(0\.33"):
            refine(newton, [(0.0, 1.0)])
        assert len(newton.calls) == bessel._NEWTON_STEPS


class TestBallSpectrum:
    def test_disk_catalog(self):
        entries = spectral.ball_neumann_spectrum(2, 10.0)
        by_l = {(e.angular_degree, e.radial_index): e for e in entries}
        e1 = by_l[(1, 1)]
        assert abs(e1.value - 3.3900) < 1e-3
        assert e1.multiplicity == 2
        e2 = by_l[(2, 1)]
        assert abs(e2.value - 9.3284) < 1e-3
        assert e2.multiplicity == 2

    def test_ball3(self):
        entries = spectral.ball_neumann_spectrum(3, 5.0)
        nonzero = [e for e in entries if e.value > 0]
        assert len(nonzero) == 1
        assert abs(nonzero[0].value - 4.3330) < 1e-3
        assert nonzero[0].angular_degree == 1
        assert nonzero[0].multiplicity == 3
        assert abs(math.sqrt(nonzero[0].value) - 2.0816) < 1e-3

    def test_small_cutoff_only_constant(self):
        entries = spectral.ball_neumann_spectrum(2, 0.5)
        assert len(entries) == 1
        assert entries[0].value == 0.0
        assert entries[0].multiplicity == 1
        assert entries[0].angular_degree == 0

    def test_roots_match_scipy_oracle(self):
        roots = bessel.neumann_roots(2, 12.0)
        for l in range(0, 4):
            mine = roots[l]
            oracle = scipy_neumann_roots(2, l, 12.0)
            for a, b in zip(mine[:3], oracle[:3]):
                assert abs(a - b) < 1e-12

    def test_root_residuals_and_spacing(self):
        all_roots = bessel.neumann_roots(2, 14.0)
        for l in range(0, 4):
            roots = all_roots[l]
            for r in roots:
                assert abs(special.jvp(l, r)) < 1e-10
            for a, b in zip(roots, roots[1:]):
                assert b - a > 1.0

    def test_all_orders_match_jnp_zeros(self):
        x_max = 30.0
        roots = bessel.neumann_roots(2, x_max)
        for l, mine in enumerate(roots):
            oracle = special.jnp_zeros(l, 12)
            oracle = oracle[oracle <= x_max]
            assert len(mine) == len(oracle)
            np.testing.assert_allclose(mine, oracle, rtol=0, atol=1e-12)
        # the list ends before the first order without a root
        assert special.jnp_zeros(len(roots), 1)[0] > x_max

    def test_ball3_all_orders_match_brentq(self):
        x_max = 30.0
        roots = bessel.neumann_roots(3, x_max)
        for l, mine in enumerate(roots):
            oracle = scipy_neumann_roots(3, l, x_max)
            assert len(mine) == len(oracle) > 0
            np.testing.assert_allclose(mine, oracle, rtol=0, atol=1e-12)
        assert not scipy_neumann_roots(3, len(roots), x_max)

    @pytest.mark.parametrize("ambient_dim", [2, 3])
    def test_roots_below_8_to_working_precision(self, ambient_dim):
        # below the series' rounding floor near x = 12 every root is within
        # a few ulps of scipy's; a bisection to 1e-12 misses this by 2.6e-13
        roots = bessel.neumann_roots(ambient_dim, 8.0)
        for l, mine in enumerate(roots):
            if ambient_dim == 2:
                oracle = special.jnp_zeros(l, 4)
                oracle = oracle[oracle <= 8.0]
            else:
                oracle = scipy_neumann_roots(3, l, 8.0)
            assert len(mine) == len(oracle)
            np.testing.assert_allclose(mine, oracle, rtol=0, atol=5e-14)

    def test_no_root_below_the_order(self):
        # neumann_roots scans the orders l <= x_max + 1 only: for l >= 1 the
        # radial Neumann condition has no root in (0, l]
        for l in range(1, 40):
            assert special.jnp_zeros(l, 1)[0] > l
            x = np.linspace(1e-3, l, 400)
            assert np.all(special.spherical_jn(l, x, derivative=True) > 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel.neumann_roots(4, 10.0)
        with pytest.raises(ValueError):
            spectral.ball_neumann_spectrum(4, 10.0)
        with pytest.raises(ValueError):
            spectral.ball_neumann_spectrum(2, 0.0)

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan, -1.0, 0.0])
    def test_cutoff_must_be_positive_and_finite(self, cutoff):
        with pytest.raises(ValueError, match="beta_cutoff must be positive and finite"):
            spectral.ball_neumann_spectrum(2, cutoff)
        with pytest.raises(ValueError, match="x_max must be positive and finite"):
            bessel.neumann_roots(3, cutoff)

    def test_sorted_with_positive_multiplicities(self):
        entries = spectral.ball_neumann_spectrum(2, 80.0)
        vals = [e.value for e in entries]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(e.multiplicity >= 1 for e in entries)
        radial = [e.radial_index for e in entries if e.angular_degree == 0]
        assert radial == list(range(1, len(radial) + 1))  # the constant first
        assert all((e.multiplicity == 1) == (e.angular_degree == 0) for e in entries)


class TestBesselArrays:
    # a grid over [0, 40] that crosses SERIES_CUTOFF, so both methods run
    X = np.linspace(0.0, 40.0, 801)
    ORDERS = np.arange(26)[:, None]

    def test_grid_crosses_series_cutoff(self):
        assert self.X.min() < bessel.SERIES_CUTOFF < self.X.max()

    def test_besselj_matches_scipy(self):
        np.testing.assert_allclose(
            bessel.besselj(self.ORDERS, self.X), special.jv(self.ORDERS, self.X), rtol=0, atol=1e-11
        )

    def test_sphericalj_matches_scipy(self):
        np.testing.assert_allclose(
            bessel.sphericalj(self.ORDERS, self.X),
            special.spherical_jn(self.ORDERS, self.X),
            rtol=0,
            atol=1e-11,
        )

    def test_derivatives_match_scipy(self):
        x = self.X[1:]
        np.testing.assert_allclose(
            bessel.besseljp(self.ORDERS, x), special.jvp(self.ORDERS, x), rtol=0, atol=1e-11
        )
        np.testing.assert_allclose(
            bessel.sphericaljp(self.ORDERS, x),
            special.spherical_jn(self.ORDERS, x, derivative=True),
            rtol=0,
            atol=1e-11,
        )

    def test_value_at_zero(self):
        for fn in (bessel.besselj, bessel.sphericalj):
            assert fn(0, 0.0) == 1.0
            assert np.all(fn(np.arange(1, 8), 0.0) == 0.0)

    def test_derivatives_at_zero(self):
        # the limits, with no divide-by-zero warning (an error under this
        # suite's filters): j_1'(0) = 1/3, every other j_l'(0) and J_l'(0)
        # but J_1'(0) = 1/2 is 0
        orders = np.arange(6)
        expected = special.spherical_jn(orders, 0.0, derivative=True)
        np.testing.assert_array_equal(bessel.sphericaljp(orders, 0.0), expected)
        assert [bessel.sphericaljp(l, 0.0) for l in orders] == list(expected)
        np.testing.assert_array_equal(bessel.besseljp(orders, 0.0), special.jvp(orders, 0.0))

    def test_negative_argument_parity(self):
        x = np.linspace(0.1, 30.0, 60)
        for fn in (bessel.besselj, bessel.sphericalj):
            for l in range(6):
                np.testing.assert_array_equal(fn(l, -x), (-1) ** l * fn(l, x))

    def test_order_broadcasts_against_x(self):
        x = np.linspace(0.0, 20.0, 7)
        table = bessel.besselj(np.arange(4)[:, None], x[None, :])
        assert table.shape == (4, 7)
        for l in range(4):
            np.testing.assert_array_equal(table[l], bessel.besselj(l, x))
        by_order = bessel.besselj([0, 1, 2], 3.0)
        assert by_order.shape == (3,)
        assert by_order[2] == bessel.besselj(2, 3.0)
        for fn in (bessel.besseljp, bessel.sphericaljp):
            assert fn(2, x[1:]).shape == (6,)
            assert fn(np.arange(4)[:, None], x[None, 1:]).shape == (4, 6)
            assert fn(2, x[3]) == fn(np.arange(4)[:, None], x[None, 1:])[2, 2]

    def test_scalar_in_float_out(self):
        for fn in (bessel.besselj, bessel.sphericalj, bessel.besseljp, bessel.sphericaljp):
            for x in (0.5, 13.0, np.float64(3.5)):
                assert type(fn(np.int64(2), x)) is float
        assert bessel.besselj(1, 2.0) == pytest.approx(special.jv(1, 2.0), abs=1e-15)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            bessel.besselj(-1, 1.0)
        with pytest.raises(ValueError):
            bessel.sphericalj(np.array([0, -2]), 1.0)
        with pytest.raises(ValueError):
            bessel.besselj(1.5, 1.0)
        for fn in (bessel.besseljp, bessel.sphericaljp):
            with pytest.raises(ValueError):
                fn(-1, 1.0)


def catalog(domain, count):
    """The first `count` entries of the domain's spectrum."""
    if domain.kind == "sphere":
        return spectral.sphere_spectrum(domain.dim, count)
    return spectral.ball_neumann_spectrum(domain.dim, 200.0)[:count]


def entry(domain, k):
    """Catalog entry k (1-based) of the domain's spectrum."""
    return catalog(domain, k)[k - 1]


def gram_matrix(domain, k_max, quad):
    E = spectral.basis(domain, catalog(domain, k_max), quad.points)
    return E @ (quad.weights[:, None] * E.T)


class TestBases:
    def test_circle_mode_two(self):
        theta = np.linspace(0, 2 * np.pi, 17)
        E = spectral.basis(sphere(2), [entry(sphere(2), 2)], (theta,))
        c = math.sqrt(1.0 / math.pi)
        np.testing.assert_allclose(E[0], c * np.cos(theta), atol=1e-14)
        np.testing.assert_allclose(E[1], c * np.sin(theta), atol=1e-14)

    def test_sphere_constant(self):
        E = spectral.basis(sphere(3), [entry(sphere(3), 1)], (np.array([0.3]), np.array([1.0])))
        assert E.shape == (1, 1)
        assert abs(E[0, 0] - 1.0 / math.sqrt(4 * math.pi)) < 1e-14

    def test_disk_first_angular_mode(self):
        entries = spectral.ball_neumann_spectrum(2, 10.0)
        eig = next(e for e in entries if e.angular_degree == 1)
        x = math.sqrt(eig.value)
        r = np.array([0.2, 0.5, 0.9])
        theta = np.array([0.3, 1.2, 2.5])
        E = spectral.basis(ball(2), [eig], (r, theta))
        assert E.shape == (2, 3)
        ref = np.array([special.jv(1, x * ri) for ri in r]) * np.cos(theta)
        ratio = E[0] / ref
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)
        # quadrature normalization oracle
        quad = spectral.disk_quadrature(64, 64)
        for v in spectral.basis(ball(2), [eig], quad.points):
            assert abs(np.dot(quad.weights, v * v) - 1.0) < 1e-10

    @pytest.mark.parametrize(
        "domain,points",
        [
            (sphere(2), (np.linspace(0.0, 6.0, 7),)),
            (
                sphere(3),
                (np.arccos(np.linspace(-0.9, 0.9, 5)).repeat(3), np.tile([0.0, 1.0, 2.5], 5)),
            ),
            (ball(2), (np.linspace(0.1, 1.0, 4).repeat(3), np.tile([0.0, 1.0, 2.5], 4))),
        ],
        ids=["circle", "sphere2", "disk"],
    )
    def test_table_rows_are_those_of_each_entry_alone(self, domain, points):
        # one table over many entries, its factors shared across rows and
        # nodes, equals the entries' own tables stacked, bit for bit
        entries = catalog(domain, 8)
        E = spectral.basis(domain, entries, points)
        alone = np.concatenate([spectral.basis(domain, [e], points) for e in entries])
        assert E.shape == (sum(e.multiplicity for e in entries), points[0].size)
        np.testing.assert_array_equal(E, alone)

    @pytest.mark.parametrize(
        "domain,options",
        [
            (ball(2), {"beta_cutoff": 60.0}),
            (ball(2), {"beta_cutoff": 200.0}),
            (sphere(3), {"truncation": 12}),
        ],
        ids=["disk-60", "disk-200", "sphere2-12"],
    )
    def test_angular_factors_of_the_distinct_angles(self, domain, options, monkeypatch):
        # cos and sin of each order are taken on the distinct angles and
        # indexed to the nodes: the problem's table equals the one with
        # both taken at every node, bit for bit
        E = build_problem(domain, builtin("so2-ring"), **options).E

        def at_every_node(orders, angle):
            return {k: (np.cos(k * angle), np.sin(k * angle)) for k in orders}

        monkeypatch.setattr(spectral, "_angular_factors", at_every_node)
        np.testing.assert_array_equal(E, build_problem(domain, builtin("so2-ring"), **options).E)

    @pytest.mark.parametrize(
        "domain,k_max,quad",
        [
            (sphere(2), 8, spectral.circle_quadrature(128)),
            (sphere(3), 6, spectral.sphere2_quadrature(24, 48)),
            (ball(2), 10, spectral.disk_quadrature(64, 64)),
        ],
        ids=["circle", "sphere2", "disk"],
    )
    def test_gram_identity(self, domain, k_max, quad):
        G = gram_matrix(domain, k_max, quad)
        assert np.max(np.abs(G - np.eye(len(G)))) < 1e-8

    def test_full_disk_basis_is_orthonormal(self):
        # every basis function of a beta <= 200 build, on the quadrature the
        # build uses for a cubic potential
        entries = spectral.ball_neumann_spectrum(2, 200.0)
        quad = spectral.default_quadrature(ball(2), 4 * max(e.angular_degree for e in entries))
        G = gram_matrix(ball(2), len(entries), quad)
        assert len(G) == 59
        assert np.max(np.abs(G - np.eye(len(G)))) < 1e-10

    def test_circle_spectral_eigenrelation(self):
        # sampled basis functions carry exactly one Fourier frequency f with
        # f^2 = beta; this pins the eigenrelation to near machine precision
        n = 256
        theta = 2 * np.pi * np.arange(n) / n
        for k in range(1, 10):
            eig = entry(sphere(2), k)
            for row in spectral.basis(sphere(2), [eig], (theta,)):
                coeffs = np.fft.rfft(row) / n
                mags = np.abs(coeffs)
                freq = int(np.argmax(mags))
                assert abs(freq * freq - eig.value) < 1e-6
                mags[freq] = 0.0
                assert np.max(mags) < 1e-12

    def test_circle_finite_difference_eigenrelation(self):
        theta = np.linspace(0, 2 * np.pi, 9)
        h = 1e-3
        for k in range(1, 9):
            eig = entry(sphere(2), k)
            f = lambda t: spectral.basis(sphere(2), [eig], (t,))
            lap = (f(theta + h) - 2 * f(theta) + f(theta - h)) / h**2
            np.testing.assert_allclose(-lap, eig.value * f(theta), atol=1e-4 * (1 + eig.value))

    def test_disk_radial_ode(self):
        # J_l(x r) solves g'' + g'/r - l^2 g / r^2 + x^2 g = 0
        entries = spectral.ball_neumann_spectrum(2, 30.0)
        for e in entries:
            if e.value == 0.0:
                continue
            x = math.sqrt(e.value)
            l = e.angular_degree
            g = lambda r: bessel.besselj(l, x * r)
            h = 1e-5
            for r in (0.35, 0.6, 0.85):
                d1 = (g(r + h) - g(r - h)) / (2 * h)
                d2 = (g(r + h) - 2 * g(r) + g(r - h)) / h**2
                resid = d2 + d1 / r - l * l * g(r) / r**2 + x * x * g(r)
                assert abs(resid) < 1e-4 * (1 + x * x)

    def test_sphere2_eigenrelation_by_quadrature(self):
        # surface FD Laplacian in theta/phi at interior nodes for one harmonic
        eig = entry(sphere(3), 3)
        f = lambda th, ph: spectral.basis(sphere(3), [eig], (th, ph))[2]
        th = np.array([0.7, 1.1, 2.0])
        ph = np.array([0.4, 2.2, 5.0])
        h = 1e-4
        lap = (
            (f(th + h, ph) - 2 * f(th, ph) + f(th - h, ph)) / h**2
            + np.cos(th) / np.sin(th) * (f(th + h, ph) - f(th - h, ph)) / (2 * h)
            + (f(th, ph + h) - 2 * f(th, ph) + f(th, ph - h)) / (h**2 * np.sin(th) ** 2)
        )
        np.testing.assert_allclose(-lap, eig.value * f(th, ph), atol=1e-3 * (1 + eig.value))

    def test_unsupported_domains(self, monkeypatch):
        # off the Galerkin table basis, default_quadrature and build_problem
        # raise one message, before any catalog is computed
        points = (np.full(2, 0.5), np.zeros(2))
        entries = {domain: [entry(domain, 2)] for domain in (ball(3), sphere(4))}

        def no_catalog(*args):
            raise AssertionError("a catalog was computed")

        monkeypatch.setattr(spectral, "sphere_spectrum", no_catalog)
        monkeypatch.setattr(spectral, "ball_neumann_spectrum", no_catalog)
        for domain, eigens in entries.items():
            message = f"^no Galerkin support on {domain.label}$"
            with pytest.raises(ValueError, match=message):
                spectral.basis(domain, eigens, points)
            with pytest.raises(ValueError, match=message):
                spectral.default_quadrature(domain, 8)
            with pytest.raises(ValueError, match=message):
                build_problem(domain, builtin("pitchfork-scalar"))
        with pytest.raises(ValueError, match="index must be positive"):
            spectral.basis(sphere(2), [spectral.LaplaceEigenvalue(0, 0.0, 1, 0)], points[:1])


class TestSerialization:
    def test_records(self):
        entries = spectral.ball_neumann_spectrum(2, 10.0)
        recs = spectral.spectrum_to_json(entries)
        assert recs[0] == {"k": 1, "beta": 0.0, "multiplicity": 1, "l": 0, "radial_index": 1}
        assert set(recs[1]) == {"k", "beta", "multiplicity", "l", "radial_index"}
        # 12 significant digits
        assert abs(recs[1]["beta"] - 3.38995771667) < 1e-11

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            spectral.DomainId("ball", 4)
        with pytest.raises(ValueError):
            spectral.DomainId("torus", 2)
        with pytest.raises(ValueError):
            spectral.DomainId("sphere", 1)
