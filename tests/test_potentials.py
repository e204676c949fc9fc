import gc

import numpy as np
import pytest

from symbif import potentials
from symbif.potentials import (
    NormalSlice,
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
            g = np.asarray(spec.grad(u, lam), float)
            value = lambda u, lam: CLOSED_FORMS[name](u, lam)[0]
            np.testing.assert_allclose(g, fd_gradient(value, u, lam), atol=1e-6)
            H = np.asarray(spec.hess(u, lam), float)
            np.testing.assert_allclose(H, fd_hessian(spec.grad, u, lam), atol=1e-6)

    @pytest.mark.parametrize("name", builtin_names())
    def test_equivariance(self, name):
        spec = builtin(name)
        elements = spec.action.sample_elements(16)
        for _ in range(100):
            u = RNG.uniform(-2, 2, size=spec.p)
            lam = RNG.uniform(-3, 3)
            g = elements[RNG.integers(len(elements))]
            lhs = np.asarray(spec.grad(g @ u, lam), float)
            rhs = g @ np.asarray(spec.grad(u, lam), float)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    @pytest.mark.parametrize("name", builtin_names())
    def test_orbit_of_u0_is_critical(self, name):
        spec = builtin(name)
        for g in spec.action.sample_elements(32):
            for lam in (-1.3, 0.4, 2.0):
                assert np.max(np.abs(spec.grad(g @ spec.u0, lam))) < 1e-12

    def test_pitchfork_forms(self):
        spec = builtin("pitchfork-scalar")
        u = np.array([0.7])
        assert abs(spec.grad(u, 1.5)[0] - (1.5 * 0.7 - 0.7**3)) < 1e-14
        assert abs(spec.hess(np.zeros(1), 1.5)[0, 0] - 1.5) < 1e-14

    def test_ring_forms(self):
        spec = builtin("so2-ring")
        u = np.array([0.6, -0.2])
        s = u @ u - 1.0
        np.testing.assert_allclose(spec.grad(u, 2.0), 2.0 * s * u / 2.0, atol=1e-14)
        np.testing.assert_allclose(
            spec.hess(spec.u0, 2.0), 2.0 * np.outer(spec.u0, spec.u0), atol=1e-14
        )

    def test_degenerate_ring_has_zero_linearization(self):
        spec = builtin("so2-ring-degenerate")
        assert np.all(spec.A == 0)
        ms = matrix_spectrum(spec.A)
        assert ms.values == (0.0,)

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
            got = (spec.grad(u, lam), spec.hess(u, lam))
            for a, b in zip(got, CLOSED_FORMS[name](u, lam)[1:]):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), name

    def test_gradient_degrees(self):
        names = ["pitchfork-scalar", "pitchfork-degenerate", "so2-ring", "so2-ring-degenerate"]
        assert [builtin(n).grad_degree for n in names] == [3, 5, 3, 7]

    @pytest.mark.parametrize("name", builtin_names())
    def test_hessian_at_u0_is_lambda_a(self, name):
        spec = builtin(name)
        for lam in (-2.7, 0.3, 1.0, 1.9, 6.0):
            H = spec.hess(spec.u0, lam)
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
                "a": "1 0 0; 0 0 0; 0 0 0",
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
        spec = builtin("pitchfork-scalar")
        base_hess = spec.hess
        spec.hess = lambda u, lam: base_hess(u, lam) + 0.25
        report = check_assumptions(spec)
        assert report.results["B3"].status == "fail"
        assert not report.ok

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
                "a": "1 0; 0 1",
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
                "a": "1 0 0; 0 1 0; 0 0 1",
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
                "a": "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1",
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
        "a": "1 0; 0 0",
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
