import dataclasses
import math

import numpy as np
import pytest

from symbif import bessel, continuation, potentials, predictor, spectral
from symbif.continuation import (
    Branch,
    NewtonError,
    NoBranchError,
    apply_group_element,
    assemble_residual,
    build_problem,
    continue_branch,
    detect_bifurcation,
    discrete_energy,
    jacobian,
    newton_solve,
    switch_branch,
)
from symbif.potentials import builtin, from_config_dict
from symbif.spectral import ball, sphere

RNG = np.random.default_rng(17)


@pytest.fixture(scope="module")
def circle_pitchfork():
    return build_problem(sphere(2), builtin("pitchfork-scalar"))


@pytest.fixture(scope="module")
def circle_ring():
    return build_problem(sphere(2), builtin("so2-ring"))


@pytest.fixture(scope="module")
def sphere_ring():
    return build_problem(sphere(3), builtin("so2-ring"), truncation=6)


@pytest.fixture(scope="module")
def disk_pitchfork():
    return build_problem(ball(2), builtin("pitchfork-scalar"))


def linear_potential():
    return from_config_dict(
        {"name": "linear", "p": "1", "action": "trivial", "u0": "0", "a": "1", "f": "lambda*u1^2/2"}
    )


def subcritical_potential():
    return from_config_dict(
        {
            "name": "subcritical",
            "p": "1",
            "action": "trivial",
            "u0": "0",
            "a": "1",
            "f": "lambda*u1^2/2 + u1^4/4",
        }
    )


class TestResidual:
    def test_trivial_state_for_all_potentials(self):
        for name in potentials.builtin_names():
            for domain in (sphere(2), ball(2)):
                prob = build_problem(domain, builtin(name), truncation=6)
                for lam in (-2.0, 0.0, 1.3):
                    r = assemble_residual(prob, np.zeros(prob.n_dof), lam)
                    assert np.max(np.abs(r)) < 1e-14

    def test_pitchfork_cosine_mode_against_quadrature_oracle(self, circle_pitchfork):
        prob = circle_pitchfork
        lam = 1.3
        a = 0.37  # coefficient of the cos-theta basis function
        c = np.zeros(prob.n_dof)
        c[1] = a
        r = assemble_residual(prob, c, lam)
        # independent oracle: dense trapezoid integration of the analytic
        # integrand (lam*u - u^3) * e_b with u = a*cos(theta)/sqrt(pi)
        theta = 2 * np.pi * np.arange(8192) / 8192
        w = 2 * np.pi / 8192
        u = a * np.cos(theta) / math.sqrt(math.pi)
        g = lam * u - u**3
        for row, f in enumerate(prob.funcs[:8]):
            e = f.evaluator(theta)
            expected = prob.beta[row] * c[row] - w * np.dot(g, e)
            assert abs(r[row] - expected) < 1e-10
        # closed forms: (1 - lam) a + (3/4) a^3 / pi on cos, a^3/(4 pi) on cos 3
        assert abs(r[1] - ((1 - lam) * a + 0.75 * a**3 / math.pi)) < 1e-12
        assert abs(r[5] - a**3 / (4 * math.pi)) < 1e-12

    def test_linear_potential_gives_shifted_diagonal(self):
        prob = build_problem(sphere(2), linear_potential(), truncation=8)
        c = RNG.normal(size=prob.n_dof)
        for lam in (-1.0, 0.7):
            r = assemble_residual(prob, c, lam)
            np.testing.assert_allclose(r, (prob.beta - lam) * c, atol=1e-12)

    def test_layout_mismatch(self, circle_pitchfork):
        with pytest.raises(ValueError):
            assemble_residual(circle_pitchfork, np.zeros(3), 1.0)


class TestJacobian:
    def test_trivial_point_block_diagonal_circle(self, circle_pitchfork):
        prob = circle_pitchfork
        for lam in RNG.uniform(-5, 5, size=10):
            J = jacobian(prob, np.zeros(prob.n_dof), lam)
            assert np.max(np.abs(J - np.diag(prob.beta - lam))) < 1e-10

    def test_trivial_point_blocks_ring(self, circle_ring):
        prob = circle_ring
        A = prob.spec.A
        lam = 1.7
        J = jacobian(prob, np.zeros(prob.n_dof), lam)
        expected = np.kron(np.diag(prob.beta), np.eye(2)) - lam * np.kron(
            np.eye(prob.n_funcs), A
        )
        assert np.max(np.abs(J - expected)) < 1e-10

    def test_trivial_point_sphere2(self, sphere_ring):
        prob = sphere_ring
        lam = -2.4
        J = jacobian(prob, np.zeros(prob.n_dof), lam)
        expected = np.kron(np.diag(prob.beta), np.eye(2)) - lam * np.kron(
            np.eye(prob.n_funcs), prob.spec.A
        )
        assert np.max(np.abs(J - expected)) < 1e-10

    def test_matches_finite_differences(self, circle_ring):
        prob = circle_ring
        for _ in range(5):
            c = 0.3 * RNG.normal(size=prob.n_dof)
            lam = RNG.uniform(-2, 2)
            J = jacobian(prob, c, lam)
            d = RNG.normal(size=prob.n_dof)
            d /= np.linalg.norm(d)
            h = 1e-6
            fd = (assemble_residual(prob, c + h * d, lam) - assemble_residual(prob, c - h * d, lam)) / (2 * h)
            assert np.max(np.abs(J @ d - fd)) < 1e-6

    def test_symmetric(self, disk_pitchfork):
        prob = disk_pitchfork
        c = 0.2 * RNG.normal(size=prob.n_dof)
        J = jacobian(prob, c, 1.1)
        assert np.max(np.abs(J - J.T)) < 1e-10


class TestNewton:
    def test_trivial_converges_off_levels(self, circle_pitchfork):
        bp = newton_solve(circle_pitchfork, np.zeros(circle_pitchfork.n_dof), 2.5)
        assert bp.residual_norm <= 1e-10
        assert bp.sup_norm < 1e-12

    def test_amplitude_at_fixed_lambda(self, circle_pitchfork):
        prob = circle_pitchfork
        c0 = np.zeros(prob.n_dof)
        c0[1] = 0.4 * math.sqrt(math.pi)  # seed with sup deviation 0.4
        bp = newton_solve(prob, c0, 1.12)
        law = math.sqrt(4 * (1.12 - 1.0) / 3.0)
        assert abs(bp.sup_norm - law) / law < 0.05

    def test_singular_at_level_without_kernel_pinning(self, circle_pitchfork):
        with pytest.raises(NewtonError, match="singular"):
            newton_solve(circle_pitchfork, np.zeros(circle_pitchfork.n_dof), 1.0)

    def test_rejects_nonfinite_guess(self, circle_pitchfork):
        c = np.zeros(circle_pitchfork.n_dof)
        c[0] = np.nan
        with pytest.raises(ValueError):
            newton_solve(circle_pitchfork, c, 0.5)


class TestDetection:
    def test_pitchfork_circle(self, circle_pitchfork):
        det = detect_bifurcation(circle_pitchfork, (0.5, 9.5), steps=200)
        np.testing.assert_allclose(det, [1.0, 4.0, 9.0], atol=1e-7)
        levels = predictor.lambda_set(circle_pitchfork.spec, sphere(2), 10.0)
        assert len(det) == len(levels)
        assert all(abs(d - l) < 1e-7 for d, l in zip(det, levels))

    def test_degenerate_ring_detects_nothing(self):
        prob = build_problem(sphere(2), builtin("so2-ring-degenerate"), truncation=8)
        assert detect_bifurcation(prob, (0.1, 20.0), steps=120) == []

    def test_disk_window(self, disk_pitchfork):
        det = detect_bifurcation(disk_pitchfork, (3.0, 10.0), steps=120)
        assert len(det) == 2
        assert abs(det[0] - 3.38996) < 1e-4
        assert abs(det[1] - 9.32836) < 1e-4
        # the first radial level sits just outside this window
        assert all(d < 10.0 for d in det)

    def test_disk_radial_level_is_detected_when_in_window(self, disk_pitchfork):
        # the first radial disk level produces a genuine Jacobian crossing
        # even though the interval-alternative predictor never emits it
        det = detect_bifurcation(disk_pitchfork, (13.0, 16.0), steps=60)
        assert len(det) == 1
        assert abs(det[0] - 14.682) < 1e-3
        cands = predictor.predict(disk_pitchfork.spec, ball(2), 16.0)
        assert all(abs(c.lambda0 - det[0]) > 1.0 for c in cands)

    def test_window_validation(self, circle_pitchfork):
        with pytest.raises(ValueError):
            detect_bifurcation(circle_pitchfork, (2.0, 1.0))


def coupled_potential():
    # p = 2 with a non-diagonal Hessian at u0 that is not affine in lambda
    return from_config_dict(
        {
            "name": "coupled",
            "p": "2",
            "action": "trivial",
            "u0": "0, 0",
            "a": "2 1; 1 3",
            "f": "lambda*(2*u1^2 + 2*u1*u2 + 3*u2^2)/2 + lambda^2*u1*u2/4"
            " - (u1^4 + u2^4)/4 + u1^2*u2",
        }
    )


def _assembled_trivial_block(prob, lam):
    zero = np.zeros(prob.n_dof)
    Q = continuation._offsym_complement(prob, zero)
    return Q.T @ jacobian(prob, zero, lam) @ Q


TRIVIAL_CASES = {
    # domain, build options, Morse-sweep window
    "circle": (sphere(2), {}, (0.5, 9.5)),
    "sphere2": (sphere(3), {"truncation": 12}, (0.5, 8.0)),
    "disk": (ball(2), {"beta_cutoff": 200.0}, (0.5, 10.0)),
}


@pytest.fixture(scope="module", params=list(TRIVIAL_CASES))
def trivial_case(request):
    domain, options, window = TRIVIAL_CASES[request.param]
    specs = [builtin("pitchfork-scalar"), builtin("so2-ring"), coupled_potential()]
    return [build_problem(domain, spec, **options) for spec in specs], window


class TestTrivialBranchBlock:
    """The Morse sweep's Kronecker block diag(beta) - G kron H0(lambda)
    against the assembled Jacobian at c = 0."""

    def test_matches_assembled_jacobian(self, trivial_case):
        problems, (lo, hi) = trivial_case
        for prob in problems:
            block = continuation._trivial_offsym_block(prob)
            for lam in np.linspace(-lo, hi, 5):
                M = _assembled_trivial_block(prob, lam)
                err = np.max(np.abs(block(lam) - M))
                assert err <= 1e-12 * np.max(np.abs(M)), (prob.spec.name, lam, err)

    def test_morse_counts_match_assembled_path(self, trivial_case):
        problems, (lo, hi) = trivial_case
        for prob in problems:
            block = continuation._trivial_offsym_block(prob)
            grid = np.linspace(lo, hi, 41)
            fast = [continuation._morse_index(block(lam)) for lam in grid]
            slow = [continuation._morse_index(_assembled_trivial_block(prob, lam)) for lam in grid]
            assert fast == slow, prob.spec.name
            # the window holds crossings, so the comparison is not vacuous
            assert len(set(fast)) > 1, prob.spec.name


class TestJacobianReuse:
    def test_morse_sweep_assembles_no_jacobian(self, circle_ring, monkeypatch):
        calls = {"jacobian": 0, "complement": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(continuation, "jacobian", counting("jacobian", jacobian))
        monkeypatch.setattr(
            continuation,
            "_offsym_complement",
            counting("complement", continuation._offsym_complement),
        )
        det = detect_bifurcation(circle_ring, (0.5, 4.5), steps=40)
        np.testing.assert_allclose(det, [1.0, 4.0], atol=1e-7)
        assert calls == {"jacobian": 0, "complement": 1}

    @pytest.mark.parametrize("fixture,lam_star", [("circle_pitchfork", 1.0), ("circle_ring", 1.0)])
    def test_continuation_assembles_each_point_once(self, fixture, lam_star, request, monkeypatch):
        prob = request.getfixturevalue(fixture)
        seed = switch_branch(prob, lam_star)
        seen = []

        def spy(problem, c, lam):
            seen.append((np.asarray(c, float).tobytes(), float(lam)))
            return jacobian(problem, c, lam)

        monkeypatch.setattr(continuation, "jacobian", spy)
        branch = continue_branch(prob, seed, (0.9, 1.3), max_steps=40)
        assert len(branch.points) > 5
        assert len(seen) == len(set(seen))
        for bp in branch.points:
            assert (bp.c.tobytes(), bp.lam) in seen

    @pytest.mark.parametrize(
        "fixture,lam_star,limits",
        [
            ("circle_pitchfork", 1.0, (0.9, 1.2)),
            ("circle_ring", 1.0, (0.9, 1.3)),
            ("sphere_ring", 2.0, (1.7, 2.2)),
        ],
    )
    def test_point_singular_values_match_fresh_assembly(self, fixture, lam_star, limits, request):
        # the reused Jacobian is the one at the point itself: bit-identical
        # to assembling it from scratch
        prob = request.getfixturevalue(fixture)
        branch = continue_branch(prob, switch_branch(prob, lam_star), limits, max_steps=20)
        points = branch.points + [newton_solve(prob, np.zeros(prob.n_dof), 0.6)]
        for bp in points:
            assert bp.min_offsym_singular == continuation.min_offsym_singular(prob, bp.c, bp.lam)


class TestSwitchAndContinue:
    def test_supercritical_side(self, circle_pitchfork):
        seed = switch_branch(circle_pitchfork, 1.0)
        assert seed.points[0].lam > 1.0
        assert seed.points[0].sup_norm > 1e-3

    def test_subcritical_side(self):
        prob = build_problem(sphere(2), subcritical_potential(), truncation=8)
        seed = switch_branch(prob, 1.0)
        assert seed.points[0].lam < 1.0
        assert seed.points[0].sup_norm > 1e-3

    def test_zero_amplitude_rejected(self, circle_pitchfork):
        with pytest.raises(ValueError):
            switch_branch(circle_pitchfork, 1.0, amplitude=0.0)

    def test_amplitude_law_along_branch(self, circle_pitchfork):
        seed = switch_branch(circle_pitchfork, 1.0)
        branch = continue_branch(circle_pitchfork, seed, (0.9, 1.21), max_steps=100, ds_max=0.05)
        in_range = [bp for bp in branch.points if 1.03 <= bp.lam <= 1.2]
        assert len(in_range) >= 3
        for bp in in_range:
            law = math.sqrt(4 * (bp.lam - 1.0) / 3.0)
            assert abs(bp.sup_norm - law) / law < 0.05
        assert branch.termination in ("lambda-limit", "max-steps")

    def test_trivial_branch_crosses_level(self, circle_pitchfork):
        prob = circle_pitchfork
        start = newton_solve(prob, np.zeros(prob.n_dof), 0.6)
        branch = continue_branch(
            prob, Branch(points=[start], origin=("trivial", None)), (0.5, 1.4), max_steps=40
        )
        assert all(bp.sup_norm < 1e-9 for bp in branch.points)
        assert max(bp.lam for bp in branch.points) > 1.0
        # the smallest off-symmetry singular value of the trivial-branch
        # Jacobian touches zero at the level
        s_away = continuation.min_offsym_singular(prob, np.zeros(prob.n_dof), 0.6)
        s_at = continuation.min_offsym_singular(prob, np.zeros(prob.n_dof), 1.0)
        assert s_away > 0.1
        assert s_at < 1e-10

    def test_ring_branch_and_pinning_rank(self, circle_ring):
        prob = circle_ring
        det = detect_bifurcation(prob, (0.5, 1.5), steps=40)
        assert len(det) == 1 and abs(det[0] - 1.0) < 1e-7
        seed = switch_branch(prob, det[0])
        branch = continue_branch(prob, seed, (0.9, 1.3), max_steps=40)
        bp = branch.points[-1]
        assert bp.sup_norm > 0.1
        # without pinning the Jacobian is rank-deficient by the symmetry
        # dimension of the solution orbit: 2 on the branch (domain rotation
        # and component rotation both act), 1 on the trivial branch
        J = jacobian(prob, bp.c, bp.lam)
        svals = np.linalg.svd(J, compute_uv=False)
        assert int(np.sum(svals < 1e-6)) == 2
        J0 = jacobian(prob, np.zeros(prob.n_dof), bp.lam)
        svals0 = np.linalg.svd(J0, compute_uv=False)
        assert int(np.sum(svals0 < 1e-6)) == 1

    def test_sphere2_branches(self, sphere_ring, monkeypatch):
        # three-dimensional kernel: the amplitude-pinned fallback must engage
        prob = sphere_ring
        det = detect_bifurcation(prob, (1.0, 7.0), steps=60)
        np.testing.assert_allclose(det, [2.0, 6.0], atol=1e-7)
        solves = []
        bordered = continuation._bordered_newton

        def spy(*args):
            out = bordered(*args)
            solves.append((args, out))
            return out

        with monkeypatch.context() as m:
            m.setattr(continuation, "_bordered_newton", spy)
            seed = switch_branch(prob, det[0])
        assert len(solves) == 1
        args, (c, lam, _) = solves[0]
        bp = seed.points[0]
        assert bp.lam == lam and np.array_equal(bp.c, c)
        assert bp.sup_norm > 1e-3
        # the border is (vhat, 0) for the kernel direction v, and the seed
        # keeps the amplitude it started from: vhat . c = 0.05 |v|
        v = continuation._kernel_direction(prob, det[0])
        vhat = v / np.linalg.norm(v)
        np.testing.assert_array_equal(args[3], np.append(vhat, 0.0))
        assert abs(float(np.dot(vhat, bp.c)) - 0.05 * np.linalg.norm(v)) <= 1e-10
        branch = continue_branch(prob, seed, (1.7, 2.2), max_steps=20)
        assert all(bp.residual_norm <= 1e-10 for bp in branch.points)
        assert max(bp.sup_norm for bp in branch.points) > 0.1

    def test_no_branch_error_message(self, circle_pitchfork, monkeypatch):
        # a level that is not a bifurcation point has no kernel direction to
        # follow; the probes collapse back to the trivial family, and the
        # amplitude-pinned fallback converges only at the level lambda = 1,
        # too far from 2.5 to count
        solves = []
        bordered = continuation._bordered_newton

        def spy(*args):
            out = bordered(*args)
            solves.append(out)
            return out

        monkeypatch.setattr(continuation, "_bordered_newton", spy)
        with pytest.raises(NoBranchError, match="no branch captured"):
            switch_branch(circle_pitchfork, 2.5, amplitude=1e-8)
        assert len(solves) == 1 and abs(solves[0][1] - 1.0) < 1e-6

    @pytest.mark.parametrize("failure", ["not-converged", "diverged"])
    def test_fallback_failure_is_no_branch(self, circle_pitchfork, monkeypatch, failure):
        # a fallback that stops short of convergence (one step allowed) or
        # takes a non-finite step ends as NoBranchError, not an escaped error
        bordered = continuation._bordered_newton
        raised = []

        def failing(*args):
            try:
                if failure == "diverged":
                    raise NewtonError("bordered Newton step diverged")
                return bordered(*args[:-1], 1)
            except NewtonError as err:
                raised.append(str(err))
                raise

        monkeypatch.setattr(continuation, "_bordered_newton", failing)
        with pytest.raises(NoBranchError, match="no branch captured"):
            switch_branch(circle_pitchfork, 2.5, amplitude=1e-8)
        assert len(raised) == 1
        assert ("diverged" if failure == "diverged" else "did not converge") in raised[0]


class TestEquivariance:
    def test_circle_domain_rotation(self, circle_pitchfork):
        prob = circle_pitchfork
        for _ in range(5):
            c = 0.4 * RNG.normal(size=prob.n_dof)
            lam = RNG.uniform(-2, 2)
            alpha = RNG.uniform(0, 2 * np.pi)
            lhs = assemble_residual(prob, apply_group_element(prob, c, domain_angle=alpha), lam)
            rhs = apply_group_element(
                prob, assemble_residual(prob, c, lam), domain_angle=alpha, include_shift=False
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_circle_full_group(self, circle_ring):
        prob = circle_ring
        for _ in range(5):
            c = 0.4 * RNG.normal(size=prob.n_dof)
            lam = RNG.uniform(-2, 2)
            alpha = RNG.uniform(0, 2 * np.pi)
            ang = RNG.uniform(0, 2 * np.pi)
            gam = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            lhs = assemble_residual(
                prob, apply_group_element(prob, c, domain_angle=alpha, gamma=gam), lam
            )
            rhs = apply_group_element(
                prob,
                assemble_residual(prob, c, lam),
                domain_angle=alpha,
                gamma=gam,
                include_shift=False,
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_sphere2(self, sphere_ring):
        prob = sphere_ring
        for _ in range(3):
            c = 0.3 * RNG.normal(size=prob.n_dof)
            lam = RNG.uniform(-2, 2)
            alpha = RNG.uniform(0, 2 * np.pi)
            ang = RNG.uniform(0, 2 * np.pi)
            gam = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            lhs = assemble_residual(
                prob, apply_group_element(prob, c, domain_angle=alpha, gamma=gam), lam
            )
            rhs = apply_group_element(
                prob,
                assemble_residual(prob, c, lam),
                domain_angle=alpha,
                gamma=gam,
                include_shift=False,
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestEnergy:
    def test_residual_is_energy_gradient(self, circle_pitchfork):
        prob = circle_pitchfork
        for _ in range(5):
            c = 0.3 * RNG.normal(size=prob.n_dof)
            lam = RNG.uniform(-1, 2)
            d = RNG.normal(size=prob.n_dof)
            d /= np.linalg.norm(d)
            h = 1e-6
            fd = (discrete_energy(prob, c + h * d, lam) - discrete_energy(prob, c - h * d, lam)) / (2 * h)
            r = assemble_residual(prob, c, lam)
            assert abs(fd - np.dot(r, d)) < 1e-6 * (1 + abs(fd))

    def test_newton_step_decreases_energy(self, circle_pitchfork):
        prob = circle_pitchfork
        lam = -0.5  # all modes stable: the functional is locally convex
        c = 0.2 * RNG.normal(size=prob.n_dof)
        r = assemble_residual(prob, c, lam)
        J = jacobian(prob, c, lam)
        step = np.linalg.solve(J, -r)
        e0 = discrete_energy(prob, c, lam)
        assert any(
            discrete_energy(prob, c + s * step, lam) < e0 for s in (1.0, 0.5, 0.25)
        )


class TestExport:
    def test_csv(self, tmp_path, circle_pitchfork):
        seed = switch_branch(circle_pitchfork, 1.0)
        branch = continue_branch(circle_pitchfork, seed, (0.9, 1.1), max_steps=10)
        path = tmp_path / "branch.csv"
        continuation.branch_to_csv(branch, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda,sup_norm,residual_norm,min_offsym_singular"
        assert len(lines) == len(branch.points) + 1

    def test_json(self, circle_pitchfork):
        seed = switch_branch(circle_pitchfork, 1.0)
        doc = continuation.branch_to_json(seed)
        assert doc["origin"] == {"kind": "bifurcated", "lambda_star": 1.0}
        assert "coefficients" not in doc["points"][0]
        doc = continuation.branch_to_json(seed, include_coefficients=True)
        assert len(doc["points"][0]["coefficients"]) == circle_pitchfork.n_dof

    def test_build_problem_validation(self):
        with pytest.raises(ValueError):
            build_problem(ball(3), builtin("pitchfork-scalar"))


class TestDiskBuild:
    def test_one_catalog_and_no_per_node_bessel_calls(self, monkeypatch):
        calls = {"ball_neumann_spectrum": 0, "neumann_roots": 0, "besselj": 0}

        def count(module, name):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        count(spectral, "ball_neumann_spectrum")
        count(bessel, "neumann_roots")
        count(bessel, "besselj")
        prob = build_problem(ball(2), builtin("so2-ring"), beta_cutoff=200.0)
        assert calls["ball_neumann_spectrum"] == 1
        assert calls["neumann_roots"] == 1
        # the root bisection makes about 40 calls, the basis one per
        # eigenvalue and one per function; never one per quadrature node
        assert calls["besselj"] <= 3 * prob.n_funcs < prob.quad.weights.size


class TestProblemQuadrature:
    @pytest.mark.parametrize("fixture", ["circle_pitchfork", "sphere_ring", "disk_pitchfork"])
    def test_retained_basis_products_integrate_exactly(self, fixture, request):
        prob = request.getfixturevalue(fixture)
        G = prob.E @ (prob.quad.weights[:, None] * prob.E.T)
        assert np.max(np.abs(G - np.eye(prob.n_funcs))) < 1e-10

    def test_dof_count(self, circle_ring):
        expected = circle_ring.p * sum(e.multiplicity for e in circle_ring.eigens)
        assert circle_ring.n_dof == expected

    def test_problem_is_frozen(self, circle_ring):
        with pytest.raises(dataclasses.FrozenInstanceError):
            circle_ring.beta = np.zeros(circle_ring.n_funcs)
