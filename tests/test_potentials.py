import dataclasses
import gc

import numpy as np
import pytest

from symbif import potentials
from symbif.polynomial import parse_polynomial
from symbif.potentials import (
    NormalSlice,
    PotentialSpec,
    builtin,
    builtin_names,
    check_assumptions,
    from_config_dict,
    matrix_spectrum,
    normal_slice,
    slice_brouwer_degree,
)

from action_factories import cyclic_action, product_action, so2_action, trivial_action

RNG = np.random.default_rng(7)


def fd_gradient(value, u, lam, h=1e-5):
    u = np.asarray(u, float)
    g = np.zeros_like(u)
    for i in range(u.size):
        e = np.zeros_like(u)
        e[i] = h
        g[i] = (value(u + e, lam) - value(u - e, lam)) / (2 * h)
    return g


def fd_hessian(grad, u, lam, h=1e-5):
    u = np.asarray(u, float)
    H = np.zeros((u.size, u.size))
    for j in range(u.size):
        e = np.zeros_like(u)
        e[j] = h
        H[:, j] = (np.asarray(grad(u + e, lam)) - np.asarray(grad(u - e, lam))) / (2 * h)
    return H


class TestBuiltins:
    @pytest.mark.parametrize("name", builtin_names())
    def test_gradient_matches_finite_differences(self, name):
        spec = builtin(name)
        for _ in range(20):
            u = RNG.uniform(-1.5, 1.5, size=spec.p)
            lam = RNG.uniform(-2, 2)
            g = np.asarray(spec.grad(u - spec.u0, lam), float)
            value = lambda u, lam: CLOSED_FORMS[name](u, lam)[0]
            np.testing.assert_allclose(g, fd_gradient(value, u, lam), atol=1e-6)
            H = np.asarray(spec.hess(u - spec.u0, lam), float)
            np.testing.assert_allclose(H, fd_hessian(spec.grad, u - spec.u0, lam), atol=1e-6)

    @pytest.mark.parametrize("name", builtin_names())
    def test_equivariance(self, name):
        spec = builtin(name)
        elements = spec.action.sample_elements(16)
        for _ in range(100):
            u = RNG.uniform(-2, 2, size=spec.p)
            lam = RNG.uniform(-3, 3)
            g = elements[RNG.integers(len(elements))]
            lhs = np.asarray(spec.grad(g @ u - spec.u0, lam), float)
            rhs = g @ np.asarray(spec.grad(u - spec.u0, lam), float)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    @pytest.mark.parametrize("name", builtin_names())
    def test_orbit_of_u0_is_critical(self, name):
        spec = builtin(name)
        for g in spec.action.sample_elements(32):
            for lam in (-1.3, 0.4, 2.0):
                assert np.max(np.abs(spec.grad(g @ spec.u0 - spec.u0, lam))) < 1e-12

    def test_pitchfork_forms(self):
        spec = builtin("pitchfork-scalar")
        u = np.array([0.7])
        assert abs(spec.grad(u, 1.5)[0] - (1.5 * 0.7 - 0.7**3)) < 1e-14
        assert abs(spec.hess(np.zeros(1), 1.5)[0, 0] - 1.5) < 1e-14

    def test_ring_forms(self):
        spec = builtin("so2-ring")
        u = np.array([0.6, -0.2])
        s = u @ u - 1.0
        np.testing.assert_allclose(spec.grad(u - spec.u0, 2.0), 2.0 * s * u / 2.0, atol=1e-14)
        np.testing.assert_allclose(
            spec.hess(np.zeros(2), 2.0), 2.0 * np.outer(spec.u0, spec.u0), atol=1e-14
        )

    def test_degenerate_ring_has_zero_linearization(self):
        spec = builtin("so2-ring-degenerate")
        assert np.all(spec.A == 0)
        ms = matrix_spectrum(spec.A)
        assert ms.values == (0.0,)

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_degenerate_ring_gradient_keeps_its_digits_near_u0(self, delta):
        # at u0 + v the terms of F's own monomials cancel (26.8 relative off
        # at delta = 1e-6 when u0 + v was evaluated); F centred at u0 keeps
        # every digit: grad F = lam s^3 (u0 + v) / 2, s = 2 delta + |v|^2
        spec = builtin("so2-ring-degenerate")
        v = np.array([delta, 0.3 * delta])
        for lam in (-1.3, 0.7, 2.0):
            s = 2.0 * delta + v @ v
            closed = lam * s**3 * (spec.u0 + v) / 2.0
            got = spec.grad(v, lam)
            assert np.max(np.abs(got - closed)) <= 1e-13 * np.max(np.abs(closed))

    def test_linearizations_are_derived_from_f(self):
        # the matrices the builtins declared before A was derived, bit for bit
        declared = {
            "pitchfork-scalar": [[1.0]],
            "pitchfork-degenerate": [[1.0]],
            "so2-ring": [[1.0, 0.0], [0.0, 0.0]],
            "so2-ring-degenerate": [[0.0, 0.0], [0.0, 0.0]],
        }
        for name, A in declared.items():
            assert np.array_equal(builtin(name).A, np.array(A)), name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("does-not-exist")


def _ring_forms(u, lam, k):
    """F, grad F and Hess F of lam * s^k / (4k), s = |u|^2 - 1, in closed form."""
    s = np.sum(u * u, axis=-1) - 1.0
    eye = np.eye(u.shape[-1])
    outer = u[..., :, None] * u[..., None, :]
    value = lam * s**k / (4.0 * k)
    grad = 0.5 * lam * (s ** (k - 1))[..., None] * u
    hess = lam * (0.5 * s ** (k - 1))[..., None, None] * eye
    hess = hess + lam * (k - 1) * (s ** (k - 2))[..., None, None] * outer
    return value, grad, hess


def _pitchfork_forms(u, lam, k):
    """F, grad F and Hess F of lam u^2 / 2 - u^k / k."""
    x = u[..., 0]
    hess = (lam - (k - 1) * x ** (k - 2))[..., None, None]
    return lam * x**2 / 2.0 - x**k / k, lam * u - u ** (k - 1), hess


CLOSED_FORMS = {
    "pitchfork-scalar": lambda u, lam: _pitchfork_forms(u, lam, 4),
    "pitchfork-degenerate": lambda u, lam: _pitchfork_forms(u, lam, 6),
    "so2-ring": lambda u, lam: _ring_forms(u, lam, 2),
    "so2-ring-degenerate": lambda u, lam: _ring_forms(u, lam, 4),
}


# a potential nonlinear in lambda that still satisfies B3: the lambda^3 term
# has no Hessian at u0 = 0
LAMBDA_CUBIC = {
    "name": "lambda-cubic",
    "p": "1",
    "action": "trivial",
    "u0": "0",
    "f": "lambda*u1^2/2 - u1^4/4 + lambda^3*u1^4/24",
}


def _spec(name):
    return from_config_dict(LAMBDA_CUBIC) if name == "lambda-cubic" else builtin(name)


class TestDerivedFromF:
    """Every derivative of a PotentialSpec comes from its polynomial F: hess
    and grad_lambda against central differences of grad, and p and
    grad_degree from F."""

    @pytest.mark.parametrize("name", [*builtin_names(), "lambda-cubic"])
    def test_derivatives_match_central_differences_of_grad(self, name):
        # to 1e-6 of the largest value over the seeded points: near the ring
        # a point's own value is a cancellation of F's expanded terms
        spec = _spec(name)
        rng = np.random.default_rng(29)
        h = 1e-5
        exact, differences = [], []
        for _ in range(10):
            v = rng.uniform(-1.2, 1.2, size=spec.p)
            lam = rng.uniform(-2.5, 2.5)
            H, dl = spec.hess(v, lam), spec.grad_lambda(v, lam)
            assert H.shape == (spec.p, spec.p) and dl.shape == (spec.p,)
            fd = (spec.grad(v, lam + h) - spec.grad(v, lam - h)) / (2 * h)
            exact.append((H, dl))
            differences.append((fd_hessian(spec.grad, v, lam, h), fd))
        for k in range(2):
            got = np.array([x[k] for x in exact])
            ref = np.array([x[k] for x in differences])
            assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))
        V = rng.uniform(-1, 1, size=(7, 3, spec.p))
        assert spec.grad_lambda(V, 0.4).shape == (7, 3, spec.p)

    def test_lambda_cubic_closed_form(self):
        # d/dlambda of grad F = u1 + lambda^2 u1^3 / 2
        spec = from_config_dict(LAMBDA_CUBIC)
        u = np.linspace(-1.5, 1.5, 13)[:, None]
        got = spec.grad_lambda(u, 1.7)
        assert np.max(np.abs(got - (u + 1.7**2 * u**3 / 2))) <= 1e-14 * np.max(np.abs(got))

    @pytest.mark.parametrize("name", [*builtin_names(), "lambda-cubic"])
    def test_constructor_from_f_matches_config(self, name):
        cfg = LAMBDA_CUBIC if name == "lambda-cubic" else potentials._BUILTINS[name]
        p = int(cfg["p"])
        F = parse_polynomial(cfg["f"], [f"u{i + 1}" for i in range(p)] + ["lambda"])
        config = _spec(name)
        direct = PotentialSpec(name=name, action=config.action, u0=config.u0, F=F)
        assert (direct.p, direct.grad_degree) == (config.p, config.grad_degree)
        assert np.array_equal(direct.A, config.A)
        rng = np.random.default_rng(31)
        U = rng.normal(size=(40, p))
        for lam in (-1.1, 0.0, 2.3):
            for fn in ("grad", "hess", "grad_lambda"):
                a, b = getattr(direct, fn)(U, lam), getattr(config, fn)(U, lam)
                assert a.dtype == b.dtype == np.float64
                assert np.array_equal(a, b), fn

    def test_derived_values_are_not_settable(self):
        spec = builtin("so2-ring")
        fields = {f.name for f in dataclasses.fields(PotentialSpec) if f.init}
        assert fields == {"name", "action", "u0", "F", "grad", "hess", "growth_exponent"}
        with pytest.raises(TypeError):
            PotentialSpec(name="x", action=spec.action, u0=spec.u0, F=spec.F, p=2)
        for derived in ("A", "centred", "grad_lambda"):
            with pytest.raises(ValueError):
                dataclasses.replace(spec, **{derived: getattr(spec, derived)})

    def test_replaced_grad_keeps_the_other_derivatives(self):
        # a wrapper swapped in through dataclasses.replace, as a counting
        # tracer does, is kept, and the rest still comes from F
        spec = builtin("so2-ring")
        calls = []

        def counted(u, lam):
            calls.append(lam)
            return spec.grad(u, lam)

        wrapped = dataclasses.replace(spec, grad=counted)
        u = np.array([0.3, -0.8])
        assert np.array_equal(wrapped.grad(u, 1.5), spec.grad(u, 1.5)) and calls == [1.5]
        assert np.array_equal(wrapped.hess(u, 1.5), spec.hess(u, 1.5))
        assert np.array_equal(wrapped.grad_lambda(u, 1.5), spec.grad_lambda(u, 1.5))

    def test_u0_shape_is_checked_against_f(self):
        cfg = {**potentials._BUILTINS["so2-ring"], "u0": "1 0 0"}
        with pytest.raises(ValueError, match="u0 must have 2 entries"):
            from_config_dict(cfg)

    def test_a_key_of_older_configs_is_not_read(self):
        # a config that still carries a parses as before; A comes from f
        ring = builtin("so2-ring")
        for a in ("1 0; 0 0", "5 0 0; 0 0 0", "not a matrix"):
            spec = from_config_dict({**potentials._BUILTINS["so2-ring"], "a": a})
            assert np.array_equal(spec.A, ring.A)


class TestBuiltinData:
    """The builtins are config data on the symbolic path: their gradients
    and Hessians against closed forms written out here."""

    @pytest.mark.parametrize("name", builtin_names())
    def test_matches_closed_forms(self, name):
        spec = builtin(name)
        rng = np.random.default_rng(11)
        d = rng.normal(size=(400, spec.p))
        d *= (4.0 * rng.random((400, 1))) / np.linalg.norm(d, axis=1, keepdims=True)
        u = spec.u0 + d
        for lam in (-2.7, 0.3, 1.9):
            got = (spec.grad(d, lam), spec.hess(d, lam))
            for a, b in zip(got, CLOSED_FORMS[name](u, lam)[1:]):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), name

    def test_gradient_degrees(self):
        names = ["pitchfork-scalar", "pitchfork-degenerate", "so2-ring", "so2-ring-degenerate"]
        assert [builtin(n).grad_degree for n in names] == [3, 5, 3, 7]
        # p and grad_degree come from F; the lambda^3 term adds no degree in u
        assert [builtin(n).p for n in names] == [1, 1, 2, 2]
        spec = from_config_dict(LAMBDA_CUBIC)
        assert (spec.p, spec.grad_degree) == (1, 3)

    @pytest.mark.parametrize("name", builtin_names())
    def test_hessian_at_u0_is_lambda_a(self, name):
        spec = builtin(name)
        for lam in (-2.7, 0.3, 1.0, 1.9, 6.0):
            H = spec.hess(np.zeros(spec.p), lam)
            assert np.max(np.abs(H - lam * spec.A)) <= 1e-15 * max(1.0, abs(lam))

    def test_gradient_calls_leave_no_reference_cycles(self):
        # a cycle would keep node-sized arrays alive until the next collection
        spec = builtin("so2-ring")
        U = np.random.default_rng(3).normal(size=(1352, 2))
        gc.disable()
        try:
            gc.collect()
            for _ in range(100):
                spec.grad(U, 2.0)
            assert gc.collect() == 0
            # nor does a spec with its compiled kernels, once dropped
            spec = builtin("so2-ring")
            for u in (U, spec.u0):
                spec.grad(u, 2.0)
                spec.hess(u, 2.0)
            del spec
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNormalSlice:
    def test_trivial_action(self):
        spec = builtin("pitchfork-scalar")
        sl = normal_slice(spec)
        assert sl.dimension == 1
        np.testing.assert_allclose(sl.basis, np.eye(1))

    def test_so2_plane(self):
        spec = builtin("so2-ring")
        sl = normal_slice(spec)
        assert sl.dimension == 1
        np.testing.assert_allclose(sl.basis[:, 0], [1.0, 0.0], atol=1e-14)

    def test_so2_in_three_dims(self):
        spec3 = from_config_dict(
            {
                "name": "ring3",
                "p": "3",
                "action": "so2(1,2)",
                "u0": "1 0 0",
                "f": "lambda*(u1^2 + u2^2 - 1)^2/8",
            }
        )
        sl = normal_slice(spec3)
        assert sl.dimension == 2
        cols = {tuple(np.round(sl.basis[:, i], 12)) for i in range(2)}
        assert (1.0, 0.0, 0.0) in cols
        assert (0.0, 0.0, 1.0) in cols

    def test_degenerate_orbit_rejected(self):
        spec = builtin("so2-ring")
        spec.u0 = np.zeros(2)
        with pytest.raises(ValueError):
            normal_slice(spec)

    def test_slice_orthogonality_invariants(self):
        spec = builtin("so2-ring")
        sl = normal_slice(spec)
        for g in spec.action.generators():
            t = g @ spec.u0
            assert np.max(np.abs(sl.basis.T @ t)) <= 1e-12
        np.testing.assert_allclose(sl.basis.T @ sl.basis, np.eye(sl.dimension), atol=1e-12)


class TestMatrixSpectrum:
    def test_diagonal(self):
        ms = matrix_spectrum(np.diag([1.0, 2.0]))
        assert [(g.value, g.multiplicity) for g in ms.eigenpairs] == [(1.0, 1), (2.0, 1)]

    def test_rank_one_projector(self):
        u0 = np.array([1.0, 0.0])
        ms = matrix_spectrum(np.outer(u0, u0))
        assert [(g.value, g.multiplicity) for g in ms.eigenpairs] == [(0.0, 1), (1.0, 1)]

    def test_zero_matrix(self):
        ms = matrix_spectrum(np.zeros((2, 2)))
        assert [(g.value, g.multiplicity) for g in ms.eigenpairs] == [(0.0, 2)]

    def test_multiplicities_sum(self):
        A = RNG.normal(size=(5, 5))
        A = 0.5 * (A + A.T)
        sl = NormalSlice(basis=np.eye(5)[:, :3], dimension=3)
        ms = matrix_spectrum(A, sl)
        assert sum(g.multiplicity for g in ms.eigenpairs) == 5
        assert sum(g.multiplicity for g in ms.slice_eigenpairs) == 3

    def test_eigenvector_residuals(self):
        A = RNG.normal(size=(4, 4))
        A = 0.5 * (A + A.T)
        ms = matrix_spectrum(A)
        for g in ms.eigenpairs:
            for i in range(g.vectors.shape[1]):
                v = g.vectors[:, i]
                assert np.max(np.abs(A @ v - g.value * v)) < 1e-10

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError):
            matrix_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestAssumptionChecks:
    def test_pitchfork_report(self):
        report = check_assumptions(builtin("pitchfork-scalar"))
        res = report.results
        assert res["B1"].status == "pass"
        assert res["B2"].status == "undecidable"
        assert res["B3"].status == "pass"
        assert res["B4"].status == "pass"
        assert res["B5"].status == "undecidable"
        assert res["B6"].status == "pass"
        degrees = [v["degree"] for v in res["B6"].details["degrees"].values()]
        assert degrees == [-1, -1]
        assert report.ok

    def test_ring_report(self):
        report = check_assumptions(builtin("so2-ring"), lambda_samples=(-0.5, 0.5))
        res = report.results
        assert res["B4"].status == "pass"
        degs = res["B6"].details["degrees"]
        assert degs[repr(-0.5)]["degree"] == -1
        assert degs[repr(0.5)]["degree"] == 1

    def test_b3_failure_detected(self):
        # a lambda-free v^2 term: Hess F(u0, lambda) = lambda + 1/4 is not
        # lambda A for any A
        cfg = {**potentials._BUILTINS["pitchfork-scalar"], "f": "lambda*u1^2/2 + u1^2/8 - u1^4/4"}
        report = check_assumptions(from_config_dict(cfg))
        assert report.results["B3"].status == "fail"
        assert report.results["B3"].details["max_quadratic_coefficient"] == 0.125
        assert not report.ok

    def test_ring_off_the_axes_passes_b3_and_b4(self):
        # Fraction(0.6)^2 + Fraction(0.8)^2 is not 1: F~ keeps a v-linear
        # coefficient of 1.8e-17, inside _B3_TOL
        cfg = {**potentials._BUILTINS["so2-ring"], "u0": "0.6 0.8"}
        results = check_assumptions(from_config_dict(cfg)).results
        assert results["B3"].status == results["B4"].status == "pass"
        assert 0 < results["B3"].details["max_linear_coefficient"] <= potentials._B3_TOL
        assert results["B4"].details["plane_norms"] == [1.0]

    def test_b5_scan_is_clean_for_builtins(self):
        report = check_assumptions(builtin("so2-ring"))
        assert report.results["B5"].details["near_zero_count"] == 0

    def test_needs_nonzero_sample(self):
        with pytest.raises(ValueError):
            check_assumptions(builtin("pitchfork-scalar"), lambda_samples=(0.0,))

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_samples_must_be_finite(self, bad):
        # a non-finite sample made NaN residuals, and a report that is not JSON
        with pytest.raises(ValueError, match="must be finite"):
            check_assumptions(builtin("pitchfork-scalar"), lambda_samples=(bad, 0.1))

    def test_growth_exponent_estimate(self):
        report = check_assumptions(builtin("pitchfork-scalar"))
        fitted = report.results["B2"].details["fitted_growth_exponent"]
        assert abs(fitted - 3.0) < 0.2

    def test_report_json_shape(self):
        doc = check_assumptions(builtin("pitchfork-scalar")).to_json()
        assert set(doc["assumptions"]) == {"B1", "B2", "B3", "B4", "B5", "B6"}
        assert doc["ok"] is True


class TestSliceDegree:
    def test_two_dimensional_slice(self):
        # trivial action on R^2: the slice is the whole plane and the degree
        # comes from the winding-number route
        spec = from_config_dict(
            {
                "name": "double-pitchfork",
                "p": "2",
                "action": "trivial",
                "u0": "0, 0",
                "f": "lambda*(u1^2 + u2^2)/2 - (u1^4 + u2^4)/4",
            }
        )
        for lam in (-0.1, 0.1):
            deg, w = slice_brouwer_degree(spec, lam)
            # product of two scalar endpoint-sign degrees on the same box
            f = lambda t: lam * t - t**3
            per_axis = int(np.sign(f(w)) - np.sign(f(-w))) // 2
            assert deg == per_axis * per_axis == 1
        report = check_assumptions(spec)
        assert report.results["B6"].status == "pass"

    def test_three_dimensional_slice(self):
        spec = from_config_dict(
            {
                "name": "triple-pitchfork",
                "p": "3",
                "action": "trivial",
                "u0": "0, 0, 0",
                "f": "lambda*(u1^2 + u2^2 + u3^2)/2 - (u1^4 + u2^4 + u3^4)/4",
            }
        )
        deg, w = slice_brouwer_degree(spec, 0.1)
        f = lambda t: 0.1 * t - t**3
        per_axis = int(np.sign(f(w)) - np.sign(f(-w))) // 2
        assert deg == per_axis**3 == -1

    def test_slice_dimension_cap(self):
        spec = from_config_dict(
            {
                "name": "four",
                "p": "4",
                "action": "trivial",
                "u0": "0, 0, 0, 0",
                "f": "lambda*(u1^2 + u2^2 + u3^2 + u4^2)/2",
            }
        )
        with pytest.raises(ValueError):
            slice_brouwer_degree(spec, 0.5)

    def test_pitchfork_small_lambda(self):
        spec = builtin("pitchfork-scalar")
        # endpoint-sign oracle at half-width 0.5: f(w) = lam*w - w^3
        for lam in (-0.1, 0.1):
            deg, w = slice_brouwer_degree(spec, lam)
            assert w == 0.5
            f = lambda t: lam * t - t**3
            oracle = (np.sign(f(w)) - np.sign(f(-w))) / 2
            assert deg == oracle == -1

    def test_ring_sign(self):
        spec = builtin("so2-ring")
        for lam in (-2.0, -0.3, 0.3, 2.0):
            deg, _ = slice_brouwer_degree(spec, lam)
            assert deg == (1 if lam > 0 else -1)


class TestActions:
    def test_orthogonality(self):
        for action in (trivial_action(2), so2_action(2), cyclic_action(3, 4, plane=(0, 2))):
            for g in action.sample_elements(16):
                assert np.max(np.abs(g.T @ g - np.eye(action.p))) < 1e-12

    def test_continuous_dimension(self):
        # one infinitesimal generator per so2 factor
        assert len(trivial_action(3).generators()) == 0
        assert len(so2_action(2).generators()) == 1
        assert len(cyclic_action(2, 5).generators()) == 0
        prod = product_action(4, [so2_action(4, (0, 1)), cyclic_action(4, 3, (2, 3))])
        assert len(prod.generators()) == 1

    def test_disjoint_planes_required(self):
        with pytest.raises(ValueError):
            product_action(3, [so2_action(3, (0, 1)), so2_action(3, (1, 2))])

    def test_cyclic_isotropy(self):
        action = cyclic_action(2, 4)
        u0 = np.array([1.0, 0.0])
        fixing = [g for g in action.sample_elements() if np.allclose(g @ u0, u0)]
        assert len(fixing) == 1


class TestUserPotentials:
    CONFIG = {
        "name": "user-ring",
        "p": "2",
        "action": "so2(1,2)",
        "u0": "1.0, 0.0",
        "f": "lambda*(u1^2 + u2^2 - 1)^2 / 8",
    }

    def test_matches_builtin_ring(self):
        spec = from_config_dict(self.CONFIG)
        ring = builtin("so2-ring")
        for _ in range(20):
            u = RNG.uniform(-1.5, 1.5, size=2)
            lam = RNG.uniform(-2, 2)
            np.testing.assert_allclose(spec.grad(u, lam), ring.grad(u, lam), atol=1e-12)
            np.testing.assert_allclose(spec.hess(u, lam), ring.hess(u, lam), atol=1e-12)
        assert spec.grad_degree == 3

    def test_batched_evaluation(self):
        spec = from_config_dict(self.CONFIG)
        U = RNG.uniform(-1, 1, size=(40, 2))
        G = spec.grad(U, 0.7)
        assert G.shape == (40, 2)
        H = spec.hess(U, 0.7)
        assert H.shape == (40, 2, 2)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "ring.cfg"
        lines = ["[potential]"] + [f"{k} = {v}" for k, v in self.CONFIG.items()]
        path.write_text("\n".join(lines) + "\n")
        spec = potentials.from_config_file(path)
        assert spec.name == "user-ring"
        assert spec.p == 2
        report = check_assumptions(spec)
        assert report.results["B3"].status == "pass"

    def test_missing_keys(self):
        with pytest.raises(ValueError):
            from_config_dict({"p": "1"})

    def test_missing_file(self):
        with pytest.raises(ValueError):
            potentials.from_config_file("/nonexistent/potential.cfg")
