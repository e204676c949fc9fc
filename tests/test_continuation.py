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


@pytest.fixture(scope="module")
def sphere12_ring():
    return build_problem(sphere(3), builtin("so2-ring"), truncation=12)


def _block_loop_jacobian(prob, c, lam):
    """Reference Jacobian: all p^2 component blocks, each a negated product."""
    U = prob.evaluate(c)
    H = np.asarray(prob.spec.hess(U, lam), float).reshape(U.shape[0], prob.p, prob.p)
    Ew = prob.E * prob.quad.weights[None, :]
    J = np.zeros((prob.n_funcs, prob.p, prob.n_funcs, prob.p))
    for i in range(prob.p):
        for j in range(prob.p):
            J[:, i, :, j] = -Ew @ (H[:, i, j][:, None] * prob.E.T)
    J = J.reshape(prob.n_dof, prob.n_dof)
    J[np.diag_indices_from(J)] += np.repeat(prob.beta, prob.p)
    return J


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

    @pytest.mark.parametrize("domain", ["sphere12", "disk"])
    def test_half_block_assembly_is_bit_identical(self, domain, sphere12_ring):
        # the builtin Hessians are bitwise symmetric, so assembling the
        # blocks i <= j changes no bit
        if domain == "sphere12":
            prob = sphere12_ring
        else:
            prob = build_problem(ball(2), builtin("so2-ring"))
        rng = np.random.default_rng(41)
        for c, lam in ((np.zeros(prob.n_dof), 2.0), (0.1 * rng.normal(size=prob.n_dof), 2.3)):
            assert np.array_equal(jacobian(prob, c, lam), _block_loop_jacobian(prob, c, lam))

    def test_mixed_blocks_equal_for_a_config_potential(self):
        spec = coupled_potential()
        H = spec.hess
        # a Hessian that is symmetric only to rounding, as a polynomial's
        # d1 d2 F and d2 d1 F can be
        skewed = dataclasses.replace(
            spec, hess=lambda u, lam: H(u, lam) + 1e-13 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        )
        rng = np.random.default_rng(42)
        for s in (spec, skewed):
            prob = build_problem(sphere(2), s, truncation=8)
            c = 0.3 * rng.normal(size=prob.n_dof)
            J = jacobian(prob, c, 1.4).reshape(prob.n_funcs, 2, prob.n_funcs, 2)
            assert np.array_equal(J[:, 0, :, 1], J[:, 1, :, 0])
            # the mixed block is the one of the averaged Hessian
            Hs = np.asarray(s.hess(prob.evaluate(c), 1.4), float)
            h = 0.5 * (Hs[:, 0, 1] + Hs[:, 1, 0])
            Ew = prob.E * prob.quad.weights[None, :]
            assert np.max(np.abs(J[:, 0, :, 1] + Ew @ (h[:, None] * prob.E.T))) <= 1e-15


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


def _dense_detect(prob, window, steps):
    """Reference Morse sweep: the count below -_MORSE_ZERO_TOL of eigvalsh of
    Q^T J(0, lam) Q at every grid and bisection point, with J(0, lam) =
    diag(beta) - G kron H0(lam) and the off-symmetry complement Q, on
    detect_bifurcation's grid, bisection stack and tolerances."""
    G = (prob.E * prob.quad.weights[None, :]) @ prob.E.T
    Q = continuation._offsym_complement(prob, np.zeros(prob.n_dof))
    diag = np.repeat(prob.beta, prob.p)
    u0 = prob.spec.u0[None, :]

    def morse(lam):
        H0 = np.asarray(prob.spec.hess(u0, lam), float).reshape(prob.p, prob.p)
        J = -np.kron(G, H0)
        J[np.diag_indices_from(J)] += diag
        M = Q.T @ J @ Q
        return int(np.sum(np.linalg.eigvalsh(0.5 * (M + M.T)) < -continuation._MORSE_ZERO_TOL))

    grid = [g if abs(g) > 1e-12 else 1e-12 for g in np.linspace(window[0], window[1], steps + 1)]
    counts = [morse(g) for g in grid]
    brackets = [
        (grid[i], counts[i], grid[i + 1], counts[i + 1])
        for i in range(len(grid) - 1)
        if counts[i + 1] != counts[i]
    ]
    found = []
    while brackets:
        a, ma, b, mb = brackets.pop()
        if b - a < continuation._REFINE_TOL:
            found.append(0.5 * (a + b))
            continue
        mid = 0.5 * (a + b)
        mm = morse(mid)
        if mm != ma:
            brackets.append((a, ma, mid, mm))
        if mb != mm:
            brackets.append((mid, mm, b, mb))
    out = []
    for lam in sorted(found):
        if abs(lam) >= 1e-6 and (not out or abs(lam - out[-1]) > 1e-8):
            out.append(lam)
    return out


class TestTrivialBranchBlock:
    """The Morse sweep's count from the discrete spectrum theta against the
    assembled Jacobian at c = 0, and its levels against a dense sweep."""

    def test_morse_counts_match_assembled_path(self, trivial_case):
        problems, (lo, hi) = trivial_case
        for prob in problems:
            theta = continuation._trivial_spectrum(prob)
            levels = detect_bifurcation(prob, (lo, hi), steps=120)
            near = [lv + d for lv in levels for d in (-1e-9, -1e-11, 1e-11, 1e-9)]
            counts, dense = [], []
            for lam in list(np.linspace(lo, hi, 41)) + near:
                counts.append(continuation._trivial_morse_index(prob, theta, lam))
                M = _assembled_trivial_block(prob, lam)
                vals = np.linalg.eigvalsh(0.5 * (M + M.T))
                dense.append(int(np.sum(vals < -continuation._MORSE_ZERO_TOL)))
            assert counts == dense, prob.spec.name
            # the window holds crossings, so the comparison is not vacuous
            assert len(set(counts)) > 1 and levels, prob.spec.name

    @pytest.mark.parametrize(
        "domain,options",
        [(sphere(2), {}), (sphere(3), {"truncation": 8}), (ball(2), {"beta_cutoff": 60.0})],
        ids=["circle", "sphere2-8", "disk-60"],
    )
    def test_levels_bitwise_equal_to_dense_sweep(self, domain, options):
        specs = [builtin(name) for name in potentials.builtin_names()] + [coupled_potential()]
        for spec in specs:
            prob = build_problem(domain, spec, **options)
            for window in ((0.1, 20.0), (-10.0, 10.0)):
                det = detect_bifurcation(prob, window, steps=120)
                assert det == _dense_detect(prob, window, 120), (spec.name, window)
                if spec.name == "so2-ring-degenerate":
                    assert det == []

    @pytest.mark.parametrize(
        "domain,options,tol",
        [
            (sphere(2), {}, 1e-13),
            (sphere(3), {"truncation": 12}, 1e-13),
            (ball(2), {"beta_cutoff": 200.0}, 1e-10),
        ],
        ids=["circle", "sphere2-12", "disk-200"],
    )
    def test_discrete_spectrum_is_the_laplacian_spectrum(self, domain, options, tol):
        # the dealiased quadrature keeps the basis orthonormal, so the
        # generalized eigenvalues of (diag(beta), G) are the betas
        prob = build_problem(domain, builtin("pitchfork-scalar"), **options)
        theta = continuation._trivial_spectrum(prob)
        beta = np.sort(prob.beta)
        assert np.max(np.abs(theta - beta)) <= tol * np.max(beta)


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
        assert calls == {"jacobian": 0, "complement": 0}

    @pytest.mark.parametrize("steps", [40, 400])
    def test_morse_sweep_runs_one_large_eigensolve(self, circle_ring, steps, monkeypatch):
        # the discrete spectrum is computed once; every grid and bisection
        # point solves only the p x p eigenproblem of H0
        eigvalsh = np.linalg.eigvalsh
        sizes = []

        def spy(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(continuation.np.linalg, "eigvalsh", spy)
        det = detect_bifurcation(circle_ring, (0.5, 4.5), steps=steps)
        np.testing.assert_allclose(det, [1.0, 4.0], atol=1e-7)
        assert sum(n > circle_ring.p for n in sizes) == 1
        assert len(sizes) > steps

    @pytest.mark.parametrize(
        "fixture,lam_star,limits",
        [
            pytest.param("circle_pitchfork", 1.0, (0.9, 1.3), id="circle_pitchfork-1.0"),
            pytest.param("circle_ring", 1.0, (0.9, 1.3), id="circle_ring-1.0"),
            # the seed comes from the amplitude-pinned fallback
            pytest.param("sphere_ring", 2.0, (1.7, 2.2), id="sphere_ring-2.0"),
        ],
    )
    def test_continuation_assembles_each_point_once(
        self, fixture, lam_star, limits, request, monkeypatch
    ):
        # over switch plus continuation: the seed's J is handed over, not
        # assembled again
        prob = request.getfixturevalue(fixture)
        seen = []

        def spy(problem, c, lam):
            seen.append((np.asarray(c, float).tobytes(), float(lam)))
            return jacobian(problem, c, lam)

        monkeypatch.setattr(continuation, "jacobian", spy)
        seed = switch_branch(prob, lam_star)
        branch = continue_branch(prob, seed, limits, max_steps=40)
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
            J = jacobian(prob, bp.c, bp.lam)
            assert bp.min_offsym_singular == continuation._min_offsym_singular(prob, bp.c, J)


# the level-2 so2-ring branch on the 2-sphere at truncation 6, switched at
# the detected level and continued to (1.7, 2.6) with ds_max = 0.05: lambda
# and sup_norm per point as the least-squares solver computed them (33
# points, terminated at the lambda limit)
RECORDED_S2_LAMBDA = [
    2.00303792504, 2.0043291471, 2.00651739875, 2.01032250086, 2.0164190884,
    2.02388789609, 2.03270324811, 2.04283638522, 2.05425615558, 2.06692968221,
    2.08082297958, 2.09590150019, 2.1121306002, 2.1294759203, 2.14790368379,
    2.1673809178, 2.18787560628, 2.20935678479, 2.23179458704, 2.25516025335,
    2.27942610984, 2.30456552626, 2.33055285936, 2.35736338722, 2.38497323918,
    2.41335932471, 2.44249926401, 2.47237132232, 2.5029543491, 2.53422772314,
    2.56617130395, 2.59876538963, 2.63199068124,
]
RECORDED_S2_SUP = [
    0.0500455387568, 0.0597241473806, 0.0732419468237, 0.0920890049363,
    0.115962714806, 0.139603048663, 0.162967761856, 0.186018639816,
    0.20872173362, 0.231047447248, 0.252970495637, 0.274469757209,
    0.295528046172, 0.316131829072, 0.336270907569, 0.355938086009,
    0.37512883852, 0.393840986663, 0.412074395306, 0.429830691555,
    0.44711300931, 0.463925760257, 0.480274430871, 0.496165404159,
    0.511605804314, 0.526603362196, 0.541166299428, 0.555303228928,
    0.569023069792, 0.582334974607, 0.595248267447, 0.60777239099,
    0.619916861404,
]


class TestBorderedSolves:
    """The square systems [J B^T; B 0] and [J r_lambda B^T; B 0 0; border 0]
    with the orthonormal pin basis B."""

    @staticmethod
    def _steps(prob, c, lam, border):
        n = prob.n_dof
        J = jacobian(prob, c, lam)
        r = assemble_residual(prob, c, lam)
        A = continuation._newton_system(prob, c, lam, J)
        fixed = continuation._solve(A, np.concatenate([-r, np.zeros(A.shape[0] - n)]), lam)
        A = continuation._newton_system(prob, c, lam, J, border)
        free = continuation._solve(
            A, np.concatenate([-r, np.zeros(A.shape[0] - n - 1), [0.0]]), lam
        )
        return fixed[:n], free[: n + 1]

    def test_step_depends_only_on_the_span_of_the_pinning_rows(self, sphere_ring, monkeypatch):
        prob = sphere_ring
        bp = switch_branch(prob, 2.0).points[0]
        rng = np.random.default_rng(43)
        c = bp.c + 1e-3 * rng.normal(size=prob.n_dof)
        border = np.append(bp.c / np.linalg.norm(bp.c), 0.0)
        reference = self._steps(prob, c, bp.lam, border)
        d = rng.normal(size=prob.n_dof)
        d /= np.linalg.norm(d)
        rows = continuation._pinning_rows
        variants = {
            "duplicated": lambda pr, x: np.vstack([rows(pr, x), rows(pr, x)[1:2]]),
            "perturbed": lambda pr, x: np.vstack([rows(pr, x)[:-1], rows(pr, x)[-1] + 1e-9 * d]),
            "near-duplicate": lambda pr, x: np.vstack([rows(pr, x), rows(pr, x)[-1] + 1e-9 * d]),
        }
        for name, pinning in variants.items():
            monkeypatch.setattr(continuation, "_pinning_rows", pinning)
            for step, ref in zip(self._steps(prob, c, bp.lam, border), reference):
                assert np.max(np.abs(step - ref)) <= 1e-8 * np.linalg.norm(ref), name
        # a rank tolerance at the rounding level would take the near-duplicate
        # row's 1e-9 direction in as a constraint and move the step
        monkeypatch.setattr(continuation, "_PIN_RANK_TOL", 1e-10)
        step = self._steps(prob, c, bp.lam, border)[0]
        assert np.max(np.abs(step - reference[0])) > 1e-3 * np.linalg.norm(reference[0])

    def test_sphere_branch_matches_recorded_values(self, sphere_ring):
        prob = sphere_ring
        det = detect_bifurcation(prob, (1.0, 7.0), steps=60)
        seed = switch_branch(prob, det[0])
        branch = continue_branch(prob, seed, (1.7, 2.6), max_steps=80, ds_max=0.05)
        assert branch.termination == "lambda-limit"
        assert len(branch.points) == len(RECORDED_S2_LAMBDA)
        for bp, lam, sup in zip(branch.points, RECORDED_S2_LAMBDA, RECORDED_S2_SUP):
            assert abs(bp.lam - lam) <= 1e-9
            assert abs(bp.sup_norm - sup) <= 1e-9

    def test_no_least_squares_solve(self, sphere_ring, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        seed = switch_branch(sphere_ring, 2.0)
        branch = continue_branch(sphere_ring, seed, (1.7, 2.2), max_steps=20)
        assert len(branch.points) > 5

    def test_singular_factorization_is_newton_error(self, circle_pitchfork, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        c0 = np.zeros(circle_pitchfork.n_dof)
        c0[1] = 0.4 * math.sqrt(math.pi)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NewtonError, match="singular Newton system"):
            newton_solve(circle_pitchfork, c0, 1.12)


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
        zero = np.zeros(prob.n_dof)
        s_away = continuation._min_offsym_singular(prob, zero, jacobian(prob, zero, 0.6))
        s_at = continuation._min_offsym_singular(prob, zero, jacobian(prob, zero, 1.0))
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


class TestRotationGenerators:
    """The exact generator table: T_z on every domain, T_x and T_y on the
    2-sphere from the ladder relations."""

    def test_sphere_table_is_an_exact_so3_representation(self, sphere12_ring):
        prob = sphere12_ring
        Tz, Tx, Ty = prob.rotation_generators
        B = np.diag(prob.beta)
        for T in (Tz, Tx, Ty):
            assert np.array_equal(T, -T.T)
            assert np.array_equal(T @ B, B @ T)
        for A, Bm, C in ((Tx, Ty, Tz), (Ty, Tz, Tx), (Tz, Tx, Ty)):
            assert np.max(np.abs(A @ Bm - Bm @ A - C)) <= 1e-12

    @pytest.mark.parametrize("name", ["so2-ring", "pitchfork-scalar"])
    def test_residual_is_orthogonal_to_every_tangent(self, name):
        # the functional is invariant under every rotation and the quadrature
        # integrates it exactly, so r(c) . t vanishes to rounding
        prob = build_problem(sphere(3), builtin(name), truncation=6)
        rng = np.random.default_rng(29)
        for _ in range(5):
            c = 0.3 * rng.normal(size=prob.n_dof)
            r = assemble_residual(prob, c, 2.5)
            tangents = continuation.symmetry_vectors(prob, c)
            assert len(tangents) >= 3
            for t in tangents:
                assert abs(np.dot(r, t)) <= 1e-13 * np.linalg.norm(r) * np.linalg.norm(t)

    @pytest.mark.parametrize("fixture", ["circle_pitchfork", "disk_pitchfork", "sphere_ring"])
    def test_axial_generator_is_the_derivative_of_the_rotation(self, fixture, request):
        prob = request.getfixturevalue(fixture)
        c = np.random.default_rng(31).normal(size=prob.n_dof)
        h = 1e-5
        diff = (
            apply_group_element(prob, c, domain_angle=h)
            - apply_group_element(prob, c, domain_angle=-h)
        ) / (2.0 * h)
        Tz_c = (prob.rotation_generators[0] @ c.reshape(prob.n_funcs, prob.p)).ravel()
        assert np.linalg.norm(Tz_c - diff) <= 1e-6 * np.linalg.norm(Tz_c)


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
