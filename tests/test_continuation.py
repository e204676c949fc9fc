import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from symbif import bessel, continuation, potentials, predictor, spectral
from symbif.continuation import (
    Branch,
    NewtonError,
    NoBranchError,
    assemble_residual,
    build_problem,
    continue_branch,
    detect_bifurcation,
    jacobian,
    switch_branch,
)
from symbif.polynomial import Evaluator, parse_polynomial
from symbif.potentials import builtin, from_config_dict
from symbif.spectral import ball, sphere

from group_action import apply_group_element
from lambda_column import central_difference
from replays import fixed_growth

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
def disk_ring():
    return build_problem(ball(2), builtin("so2-ring"))


@pytest.fixture(scope="module")
def disk200_pitchfork():
    return build_problem(ball(2), builtin("pitchfork-scalar"), beta_cutoff=200.0)


@pytest.fixture(scope="module")
def disk200_ring():
    # the disk workload's so2-ring problem, 64 x 56 quadrature nodes
    return build_problem(ball(2), builtin("so2-ring"), beta_cutoff=200.0)


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


def _dense_offsym_complement(prob, c):
    """Orthonormal complement of every full-space symmetry tangent at c."""
    return continuation._complement(continuation._pinning_rows(prob, c))


def _dense_min_offsym_singular(prob, c, J):
    """Reference value: the smallest singular value of Q^T J Q on the full
    space, with Q the complement of every symmetry tangent at c."""
    Q = _dense_offsym_complement(prob, c)
    M = Q.T @ J @ Q
    if M.size == 0:
        return 0.0
    return float(np.min(np.abs(np.linalg.eigvalsh(0.5 * (M + M.T)))))


def discrete_energy(problem, c, lam):
    """Discretized functional: quadratic Dirichlet part minus the potential
    F, parsed from the builtin's polynomial text."""
    C = np.asarray(c, float).reshape(problem.n_funcs, problem.p)
    dirichlet = 0.5 * float(np.sum(problem.beta[:, None] * C * C))
    names = [f"u{i + 1}" for i in range(problem.p)] + ["lambda"]
    F = parse_polynomial(potentials._BUILTINS[problem.spec.name]["f"], names)
    Fv = np.asarray(Evaluator([F])(*(problem.spec.u0 + problem.evaluate(c)).T, lam)[0], float)
    return dirichlet - float(np.dot(problem.quad.weights, Fv))


def linear_potential():
    return from_config_dict(
        {"name": "linear", "p": "1", "action": "trivial", "u0": "0", "f": "lambda*u1^2/2"}
    )


def subcritical_potential():
    return from_config_dict(
        {
            "name": "subcritical",
            "p": "1",
            "action": "trivial",
            "u0": "0",
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
        E = spectral.basis(prob.domain, prob.eigens, (theta,))
        for row, e in enumerate(E[:8]):
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

    @pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 3.0), (math.nan, 1.0)])
    def test_nonfinite_window_is_rejected(self, circle_pitchfork, window):
        # a bracket of infinite width would be bisected forever
        with pytest.raises(ValueError, match="window must be finite"):
            detect_bifurcation(circle_pitchfork, window)


def coupled_potential():
    # p = 2 with a non-diagonal Hessian at u0 that is not affine in lambda
    return from_config_dict(
        {
            "name": "coupled",
            "p": "2",
            "action": "trivial",
            "u0": "0, 0",
            "f": "lambda*(2*u1^2 + 2*u1*u2 + 3*u2^2)/2 + lambda^2*u1*u2/4"
            " - (u1^4 + u2^4)/4 + u1^2*u2",
        }
    )


class TestArrayLambda:
    """The Morse sweep evaluates hess at v = 0 with an array lambda: grad,
    hess and grad_lambda at an array lambda of the batch shape equal the
    per-point calls at scalar lambda, bit for bit."""

    @pytest.mark.parametrize("name", [*potentials.builtin_names(), "coupled"])
    def test_array_lambda_matches_scalar_calls_bitwise(self, name):
        spec = coupled_potential() if name == "coupled" else builtin(name)
        rng = np.random.default_rng(37)
        lams = np.concatenate([[-2.5, -1e-12, 0.0, 1e-12, 1.0, 6.0], rng.uniform(-8.0, 8.0, 26)])
        V = rng.uniform(-1.2, 1.2, size=(lams.size, spec.p))
        for v in (V, np.broadcast_to(np.zeros(spec.p), V.shape)):
            for fn in (spec.grad, spec.hess, spec.grad_lambda):
                batch = fn(v, lams)
                single = np.array([fn(v[i], float(lams[i])) for i in range(lams.size)])
                assert batch.dtype == np.float64 and batch.shape == single.shape
                assert np.array_equal(batch.view(np.int64), single.view(np.int64))


def _assembled_trivial_block(prob, lam):
    zero = np.zeros(prob.n_dof)
    Q = _dense_offsym_complement(prob, zero)
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
    Q = _dense_offsym_complement(prob, np.zeros(prob.n_dof))
    diag = np.repeat(prob.beta, prob.p)
    v0 = np.zeros((1, prob.p))

    def morse(lam):
        H0 = np.asarray(prob.spec.hess(v0, lam), float).reshape(prob.p, prob.p)
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


def _isotypic_labels(prob):
    """Each basis row's isotypic block, read from the basis layout
    (spectral.basis): on the 2-sphere (m, "cos") or (m, "sin"), the zonal
    row being (0, "cos"); on the circle and the disk "sin" for the sin rows
    and "even" for the others."""
    labels = []
    for eig in prob.eigens:
        if prob.domain.dim == 3:
            orders = range(1, eig.angular_degree + 1)
            labels += [(0, "cos")] + [(m, kind) for m in orders for kind in ("cos", "sin")]
        else:
            labels += ["even", "sin"][: eig.multiplicity]
    return labels


def _block_sizes(prob, distinct=False):
    """Sorted row counts of the isotypic blocks; with distinct, each block
    once whose rows stand for an equal block (on the 2-sphere the sin rows
    of each m have the block of its cos rows)."""
    labels = _isotypic_labels(prob)
    if distinct and prob.domain.dim == 3:
        labels = [label for label in labels if label[1] == "cos"]
    return sorted(labels.count(label) for label in set(labels))


def _whole_gram_spectrum(prob):
    """Sorted theta from the whole quadrature Gram matrix in one Cholesky
    factorization, as the sweep computed it before factoring per block."""
    G = (prob.E * prob.quad.weights[None, :]) @ prob.E.T
    Linv = np.linalg.inv(np.linalg.cholesky(G))
    return np.linalg.eigvalsh((Linv * prob.beta[None, :]) @ Linv.T)


class TestTrivialBranchBlock:
    """The Morse sweep's count from the discrete spectrum theta against the
    assembled Jacobian at c = 0, and its levels against a dense sweep."""

    def test_morse_counts_match_assembled_path(self, trivial_case):
        problems, (lo, hi) = trivial_case
        for prob in problems:
            theta = np.concatenate(continuation._trivial_spectrum(prob))
            levels = detect_bifurcation(prob, (lo, hi), steps=120)
            near = [lv + d for lv in levels for d in (-1e-9, -1e-11, 1e-11, 1e-9)]
            lams = list(np.linspace(lo, hi, 41)) + near
            counts, dense = continuation._morse_counts(prob, theta, lams), []
            for lam in lams:
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
        theta = np.sort(np.concatenate(continuation._trivial_spectrum(prob)))
        beta = np.sort(prob.beta)
        assert np.max(np.abs(theta - beta)) <= tol * np.max(beta)

    @pytest.mark.parametrize(
        "domain,options",
        [
            (sphere(2), {}),
            (sphere(3), {}),
            (sphere(3), {"truncation": 12}),
            (ball(2), {"beta_cutoff": 60.0}),
            (ball(2), {"beta_cutoff": 200.0}),
        ],
        ids=["circle", "sphere2", "sphere2-12", "disk-60", "disk-200"],
    )
    def test_gram_matrix_is_block_diagonal_by_isotypic_block(self, domain, options):
        # _trivial_spectrum factors G one isotypic block at a time: its
        # off-block entries are rounding, and the union of the block spectra
        # is the spectrum of the whole G
        prob = build_problem(domain, builtin("so2-ring"), **options)
        G = (prob.E * prob.quad.weights[None, :]) @ prob.E.T
        labels = _isotypic_labels(prob)
        off_block = np.array([[a != b for b in labels] for a in labels])
        assert np.max(np.abs(G[off_block])) <= 1e-13
        blocks = continuation._trivial_spectrum(prob)
        assert sorted(theta.size for theta in blocks) == _block_sizes(prob)
        theta = np.sort(np.concatenate(blocks))
        assert np.max(np.abs(theta - _whole_gram_spectrum(prob))) <= 1e-12 * np.max(prob.beta)


MORSE_JUMP_CASES = {
    # domain, build options, window, the jumps on the sphere
    "circle": (sphere(2), {}, (0.5, 30.0), [2] * 5),
    "sphere2-8": (sphere(3), {"truncation": 8}, (0.5, 31.0), [3, 5, 7, 9, 11]),
    "sphere2-12": (sphere(3), {"truncation": 12}, (0.5, 31.0), [3, 5, 7, 9, 11]),
    "disk-60": (ball(2), {"beta_cutoff": 60.0}, (0.5, 30.0), None),
    "disk-200": (ball(2), {"beta_cutoff": 200.0}, (0.5, 30.0), None),
}


class TestMorseJumpsMatchPredict:
    """The cross-check at every level: across a level Verify detects, the
    Morse index of J(0, lambda), counted over its isotypic blocks each as
    often as it occurs (_isotypic_rows), jumps by Predict's V.dim, the
    dimension of the resonant eigenspace counted from harmonic_dimension."""

    @pytest.mark.parametrize("name", ["pitchfork-scalar", "so2-ring"])
    @pytest.mark.parametrize("case", list(MORSE_JUMP_CASES))
    def test_morse_index_jumps_by_the_predicted_dimension(self, case, name):
        domain, options, (lo, hi), sphere_jumps = MORSE_JUMP_CASES[case]
        spec = builtin(name)
        prob = build_problem(domain, spec, **options)
        theta = np.concatenate(continuation._trivial_spectrum(prob))
        levels = detect_bifurcation(prob, (lo, hi))

        def jump(lam):
            d = 1e-6 * max(1.0, abs(lam))
            below, above = continuation._morse_counts(prob, theta, [lam - d, lam + d])
            return above - below

        candidates = predictor.predict(spec, domain, 2.0 * hi)
        if domain.kind == "sphere":
            # one candidate at each detected level
            in_window = [c for c in candidates if lo <= c.lambda0 <= hi]
            assert len(in_window) == len(levels)
            assert all(abs(c.lambda0 - lam) <= 1e-6 for c, lam in zip(in_window, levels))
            jumps = [jump(lam) for lam in levels]
            assert jumps == [c.V.total_dimension for c in in_window] == sphere_jumps
        else:
            # the levels inside each candidate interval the window covers
            covered = [
                c for c in candidates if lo <= c.lambda0 - c.epsilon and c.lambda0 + c.epsilon <= hi
            ]
            assert len(covered) >= 4
            for c in covered:
                inside = [lam for lam in levels if abs(lam - c.lambda0) < c.epsilon]
                assert inside and sum(jump(lam) for lam in inside) == c.V.total_dimension == 2


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
            continuation, "_complement", counting("complement", continuation._complement)
        )
        det = detect_bifurcation(circle_ring, (0.5, 4.5), steps=40)
        np.testing.assert_allclose(det, [1.0, 4.0], atol=1e-7)
        assert calls == {"jacobian": 0, "complement": 0}

    @pytest.mark.parametrize(
        "fixture,window,levels",
        [
            ("circle_ring", (0.5, 4.5), [1.0, 4.0]),
            ("circle_ring", (0.5, 60.5), [1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0]),
            ("sphere12_ring", (0.5, 8.0), [2.0, 6.0]),
        ],
        ids=["circle-2-levels", "circle-7-levels", "sphere2-12"],
    )
    @pytest.mark.parametrize("steps", [40, 400])
    def test_morse_sweep_factors_each_block_once_and_batches_lambda(
        self, fixture, window, levels, steps, request, monkeypatch
    ):
        # one Gram eigensolve per distinct isotypic block, of that block's
        # size (on the 2-sphere at truncation 12, 12 for its 23 blocks); one
        # hess call and one stacked eigvalsh per chunk of the grid and per
        # bisection round, however many levels the window holds
        prob = request.getfixturevalue(fixture)
        eigvalsh, hess = np.linalg.eigvalsh, prob.spec.hess
        shapes, batches = [], []

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def counting(u, lam):
            batches.append(np.size(lam))
            return hess(u, lam)

        counted = dataclasses.replace(prob, spec=dataclasses.replace(prob.spec, hess=counting))
        monkeypatch.setattr(continuation.np.linalg, "eigvalsh", spy)
        det = detect_bifurcation(counted, window, steps=steps)
        np.testing.assert_allclose(det, levels, atol=1e-7)
        grams = [shape for shape in shapes if len(shape) == 2]
        assert all(n == m for n, m in grams)
        assert sorted(n for n, _ in grams) == _block_sizes(prob, distinct=True)
        if prob.domain.dim == 3:
            assert (len(grams), len(_block_sizes(prob))) == (12, 23)
        assert [shape for shape in shapes if len(shape) == 3] == [(n, prob.p, prob.p) for n in batches]
        chunk = continuation._MORSE_CHUNK
        h = (window[1] - window[0]) / steps
        rounds = math.ceil(math.log2(h / continuation._REFINE_TOL))
        assert len(batches) <= math.ceil((steps + 1) / chunk) + rounds + 1
        assert max(batches) <= chunk

    def test_morse_sweep_memory_does_not_grow_with_steps(self):
        # the sweep counts the grid in chunks of _MORSE_CHUNK lambda, so
        # 20001 grid points keep its temporaries small
        prob = build_problem(sphere(3), builtin("so2-ring"), truncation=12)
        tracemalloc.start()
        try:
            levels = detect_bifurcation(prob, (0.5, 8.0), steps=20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [x.hex() for x in levels] == ["0x1.00000000c49bap+1", "0x1.8000000020c4bp+2"]
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize(
        "fixture,lam_star,limits",
        [
            pytest.param("circle_pitchfork", 1.0, (0.9, 1.3), id="circle_pitchfork-1.0"),
            pytest.param("circle_ring", 1.0, (0.9, 1.3), id="circle_ring-1.0"),
            pytest.param("sphere_ring", 2.0, (1.7, 2.2), id="sphere_ring-2.0"),
            pytest.param("sphere12_ring", 2.0, (1.7, 2.2), id="sphere12_ring-2.0"),
        ],
    )
    def test_continuation_assembles_each_point_once(
        self, fixture, lam_star, limits, request, monkeypatch
    ):
        # continue_branch evaluates the nodal Hessian of the fixed-point
        # subspace once at every point it accepts, for the point's blocks and
        # the next tangent alike, never twice at one (c, lambda), and never on
        # the full space; at its start point (the seed) once, or not at all
        # when the seed comes from switch_branch, whose Jacobian there it
        # takes: the branch is the same bit for bit
        prob = request.getfixturevalue(fixture)
        seed = switch_branch(prob, lam_star)
        space = continuation._subspace(prob)
        assert space.problem.n_dof < prob.n_dof
        seen = []
        hessian = continuation._nodal_hessian

        def spy(problem, c, lam):
            assert problem.n_dof == space.problem.n_dof
            seen.append((np.asarray(c, float).tobytes(), float(lam)))
            return hessian(problem, c, lam)

        monkeypatch.setattr(continuation, "_nodal_hessian", spy)
        branches = []
        for start, at_seed in ((seed, 0), (Branch(points=seed.points, origin=seed.origin), 1)):
            seen.clear()
            branch = continue_branch(prob, start, limits, max_steps=40)
            assert len(branch.points) > 5
            assert branch.points[0] is seed.points[0]
            assert len(seen) == len(set(seen))
            for k, bp in enumerate(branch.points):
                expected = at_seed if k == 0 else 1
                assert seen.count((bp.c[space.idx].tobytes(), bp.lam)) == expected
            branches.append([(bp.lam, bp.c.tobytes()) for bp in branch.points])
        assert branches[0] == branches[1]

    @pytest.mark.parametrize(
        "fixture,lam_star,limits,fold_lam",
        [
            ("sphere12_ring", 6.0, (4.5, 7.5), 5.481409214087),
            ("disk_ring", 9.328363213439783, (8.5, 10.0), 9.289219848450),
        ],
        ids=["sphere2-12", "disk"],
    )
    def test_fold_location_evaluates_one_hessian_per_point(
        self, fixture, lam_star, limits, fold_lam, request, monkeypatch
    ):
        # so2-ring on S^2 at truncation 12 from lambda* = 6 passes the fold
        # near 5.48, and on the disk (beta <= 60) from 9.33 the fold near
        # 9.289; each trial point's tangent and, at the fold, the point's
        # diagnostics share one nodal Hessian and one first block (the fold's
        # Hessian was evaluated twice, 28 evaluations at 27 distinct points
        # on S^2, and then its first block assembled twice from one Hessian)
        prob = request.getfixturevalue(fixture)
        seed = switch_branch(prob, lam_star)
        seen, firsts = [], []
        hessian, block_jacobian = continuation._nodal_hessian, continuation._Block.jacobian

        def spy(problem, c, lam):
            seen.append((np.asarray(c, float).tobytes(), float(lam)))
            return hessian(problem, c, lam)

        def block_spy(block, H):
            # the first block, the only one without a Weyl bound
            if block.weyl is None:
                firsts.append(H)
            return block_jacobian(block, H)

        monkeypatch.setattr(continuation, "_nodal_hessian", spy)
        monkeypatch.setattr(continuation._Block, "jacobian", block_spy)
        branch = continue_branch(prob, seed, limits)
        assert branch.termination == "lambda-limit"
        fold = min(branch.points, key=lambda bp: bp.lam)
        assert 0 < branch.points.index(fold) < len(branch.points) - 1
        assert abs(fold.lam - fold_lam) < 1e-9
        assert len(seen) > len(branch.points)
        assert len(seen) == len(set(seen))
        # firsts keeps every Hessian alive, so their ids are distinct
        assert len(firsts) == len({id(H) for H in firsts}) == len(seen)

    @pytest.mark.parametrize("fixture", ["circle_pitchfork", "disk_ring", "sphere12_ring"])
    def test_switch_and_continue_build_one_subspace_each(self, fixture, request, monkeypatch):
        # switch_branch builds the subspace once for the kernel direction,
        # the solve and the point, and continue_branch takes it from the seed
        prob = request.getfixturevalue(fixture)
        lam_star = detect_bifurcation(prob, (0.5, 4.0), steps=60)[0]
        builds = []
        subspace = continuation._subspace

        def spy(*args):
            builds.append(args[0])
            return subspace(*args)

        monkeypatch.setattr(continuation, "_subspace", spy)
        seed = switch_branch(prob, lam_star)
        continue_branch(prob, seed, (lam_star - 0.3, lam_star + 0.3), max_steps=4)
        assert builds == [prob]

    @pytest.mark.parametrize(
        "fixture,lam_star,limits",
        [
            ("circle_pitchfork", 1.0, (0.9, 1.2)),
            ("circle_ring", 1.0, (0.9, 1.3)),
            ("sphere_ring", 2.0, (1.7, 2.2)),
        ],
    )
    def test_point_singular_values_match_fresh_assembly(self, fixture, lam_star, limits, request):
        # the block value of a branch point is the dense value of a full
        # Jacobian assembled from scratch at the point, to rounding
        prob = request.getfixturevalue(fixture)
        branch = continue_branch(prob, switch_branch(prob, lam_star), limits, max_steps=20)
        for bp in branch.points:
            J = jacobian(prob, bp.c, bp.lam)
            dense = _dense_min_offsym_singular(prob, bp.c, J)
            assert abs(bp.min_offsym_singular - dense) <= 1e-12 * np.linalg.norm(J, 1)


# the level-2 so2-ring branch on the 2-sphere at truncation 6, switched at
# the detected level by the amplitude-pinned solve from the zonal (axial)
# seed and continued to (1.7, 2.6) with ds_max = 0.05 on the fixed growth
# (fixed_growth): lambda and sup_norm
# per point (33 points, terminated at the lambda limit); every point is
# zonal, T_z C = 0, with residual norm at most 1e-10.  The last point is the
# first one past the limit, as recorded before continue_branch replaced it
# by the point on the limit
RECORDED_S2_LAMBDA = [
    2.00309285171, 2.00439460974, 2.00659754546, 2.01042304544, 2.01654532073,
    2.02403937157, 2.03287945923, 2.0430367729, 2.05448012316, 2.06717660722,
    2.08109222429, 2.09619242077, 2.11244255517, 2.1298082765, 2.14825582119,
    2.16775223291, 2.18826551447, 2.20976472148, 2.23222000827, 2.25560263557,
    2.2798849493, 2.30504033808, 2.33104317639, 2.35786875877, 2.38549322968,
    2.4138935124, 2.44304723971, 2.47293268823, 2.50352871772, 2.53481471631,
    2.56677055203, 2.59937653077, 2.63261336076,
]
RECORDED_S2_SUP = [
    0.0500790104577, 0.0596841846655, 0.0731028344581, 0.0918180989816,
    0.11553522817, 0.139031428996, 0.162263881947, 0.185193775805,
    0.207786549424, 0.230011985296, 0.251844173463, 0.273261369425,
    0.294245771109, 0.314783239719, 0.334862986022, 0.354477240849,
    0.373620924547, 0.392291326456, 0.410487802093, 0.42821149309,
    0.445465072283, 0.462252515015, 0.478578896195, 0.494450211898,
    0.509873223716, 0.524855323811, 0.539404418488, 0.553528828118,
    0.567237201351, 0.580538441715, 0.593441644843, 0.605956044815,
    0.618090968216,
]


class TestBorderedSolves:
    """The square system [J r_lambda B^T; B 0 0; border 0] with the
    orthonormal pin basis B."""

    @staticmethod
    def _step(prob, c, lam, border):
        """The Newton step in (c, lambda) that keeps the border residual."""
        n = prob.n_dof
        J = jacobian(prob, c, lam)
        r = assemble_residual(prob, c, lam)
        A = continuation._newton_system(prob, c, lam, J, border)
        step = continuation._solve(A, np.concatenate([-r, np.zeros(A.shape[0] - n - 1), [0.0]]), lam)
        return step[: n + 1]

    def test_step_depends_only_on_the_span_of_the_pinning_rows(self, sphere_ring, monkeypatch):
        prob = sphere_ring
        bp = switch_branch(prob, 2.0).points[0]
        rng = np.random.default_rng(43)
        c = bp.c + 1e-3 * rng.normal(size=prob.n_dof)
        border = np.append(bp.c / np.linalg.norm(bp.c), 0.0)
        reference = self._step(prob, c, bp.lam, border)
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
            step = self._step(prob, c, bp.lam, border)
            assert np.max(np.abs(step - reference)) <= 1e-8 * np.linalg.norm(reference), name
        # a rank tolerance at the rounding level would take the near-duplicate
        # row's 1e-9 direction in as a constraint and move the step
        monkeypatch.setattr(continuation, "_PIN_RANK_TOL", 1e-10)
        step = self._step(prob, c, bp.lam, border)
        assert np.max(np.abs(step - reference)) > 1e-3 * np.linalg.norm(reference)

    def test_sphere_branch_matches_recorded_values(self, sphere_ring, monkeypatch):
        prob = sphere_ring
        fixed_growth(monkeypatch)
        det = detect_bifurcation(prob, (1.0, 7.0), steps=60)
        seed = switch_branch(prob, det[0])
        branch = continue_branch(prob, seed, (1.7, 2.6), max_steps=80, ds_max=0.05)
        _assert_ends_on_limit(branch, RECORDED_S2_LAMBDA[-1], (1.7, 2.6))
        assert len(branch.points) == len(RECORDED_S2_LAMBDA)
        Tz = prob.rotation_generators[0]
        for bp, lam, sup in zip(branch.points[:-1], RECORDED_S2_LAMBDA, RECORDED_S2_SUP):
            assert abs(bp.lam - lam) <= 1e-9
            assert abs(bp.sup_norm - sup) <= 1e-9
        for bp in branch.points:
            C = bp.c.reshape(prob.n_funcs, prob.p)
            assert np.max(np.abs(Tz @ C)) <= 1e-14 * np.max(np.abs(C))
            assert bp.residual_norm <= 1e-10

    def test_no_least_squares_solve(self, sphere_ring, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        seed = switch_branch(sphere_ring, 2.0)
        branch = continue_branch(sphere_ring, seed, (1.7, 2.2), max_steps=20)
        assert len(branch.points) > 5

    def test_singular_factorization_is_newton_error(self, circle_pitchfork, monkeypatch):
        # the branch switch's bordered solve fails on the singular LU, and
        # the NoBranchError chains the NewtonError that names it
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NoBranchError, match="singular Newton system") as info:
            switch_branch(circle_pitchfork, 1.0)
        assert isinstance(info.value.__cause__, NewtonError)
        assert "singular Newton system" in str(info.value.__cause__)
        assert isinstance(info.value.__cause__.__cause__, np.linalg.LinAlgError)


class TestLambdaColumn:
    """r_lambda of the bordered matrix is exact: one projection of the
    potential's grad_lambda, with no residual evaluated."""

    # lambda*u1^2/2 - u1^4/4 + lambda^3*u1^4/24: nonlinear in lambda, with
    # d/dlambda of grad F = u1 + lambda^2 u1^3 / 2 written out below
    CUBIC = {
        "name": "lambda-cubic", "p": "1", "action": "trivial", "u0": "0",
        "f": "lambda*u1^2/2 - u1^4/4 + lambda^3*u1^4/24",
    }

    @pytest.mark.parametrize(
        "domain", [sphere(2), sphere(3), ball(2)], ids=["circle", "s2", "disk"]
    )
    def test_column_is_exact_where_the_difference_is_not(self, domain):
        prob = build_problem(domain, from_config_dict(self.CUBIC), truncation=6)
        rng = np.random.default_rng(37)
        n = prob.n_dof
        for lam in (-1.3, 0.7, 2.9):
            c = 0.3 * rng.normal(size=n) / np.sqrt(n)
            u = prob.evaluate(c)[:, 0]
            expected = -(prob.E @ (prob.quad.weights * (u + lam**2 * u**3 / 2)))
            scale = np.max(np.abs(expected))
            column = continuation._lambda_column(prob, c, lam)
            assert np.max(np.abs(column - expected)) <= 1e-13 * scale
            border = np.append(c, 1.0)
            A = continuation._newton_system(prob, c, lam, jacobian(prob, c, lam), border)
            assert np.array_equal(A[:n, n], column)
            # the central difference the column replaced misses by far more
            assert np.max(np.abs(central_difference(prob, c, lam) - expected)) > 1e-13 * scale

    def test_a_bordered_matrix_evaluates_no_residual(self, circle_ring, monkeypatch):
        space = continuation._subspace(circle_ring)
        sub, n = space.problem, space.problem.n_dof
        bp = switch_branch(circle_ring, 1.0).points[0]
        c, lam = bp.c[space.idx], bp.lam
        J = jacobian(sub, c, lam)
        t_prev = np.append(c, lam - 1.0)
        t_prev /= np.linalg.norm(t_prev)
        calls = []

        def residual_spy(*args):
            calls.append(args)
            return assemble_residual(*args)

        monkeypatch.setattr(continuation, "assemble_residual", residual_spy)
        A = continuation._newton_system(sub, c, lam, J, t_prev)
        t, B = continuation._tangent(sub, c, lam, J, t_prev)
        assert calls == []
        assert A.shape == B.shape and np.linalg.norm(t) == pytest.approx(1.0, rel=1e-15)
        assert np.array_equal(A[:n, n], continuation._lambda_column(sub, c, lam))


# lambda of every point, as float.hex, of the circle pitchfork branch from
# lambda* = 1 to (0.9, 1.3) and of the disk (beta <= 60) pitchfork branch
# from the first detected level to (lambda* - 0.3, lambda* + 0.6), both with
# max_steps=40 and ds_max=0.2 on the fixed growth (fixed_growth) and the
# amplitude-pinned switch from the cos-mode seed, as full Newton correctors
# on the reflection-even rows compute them with no chord attempt (12 points
# each, terminated at the lambda limit), on the half-turn
# of the angular rule, the disk's with every Jacobian from the
# sum-factorized kernel and every Bessel value from one Miller sweep.  The
# last point of each branch here is the first one past the limit, which
# continue_branch now replaces by the point on it
RECORDED_NEWTON_HEX = {
    "circle_pitchfork": [
        "0x1.007aded2c7b2dp+0", "0x1.00b881175071fp+0", "0x1.0123afe410b30p+0",
        "0x1.01e28bfe3011fp+0", "0x1.033d339ee4a12p+0", "0x1.05bc664e55920p+0",
        "0x1.0a6263df337fap+0", "0x1.1310351c1009dp+0", "0x1.223d2744497ddp+0",
        "0x1.352707d14b900p+0", "0x1.4b55f77bd6e07p+0", "0x1.645836b6a3af2p+0",
    ],
    "disk_pitchfork": [
        "0x1.b21cbae002860p+1", "0x1.b24a5f875fd29p+1", "0x1.b2a27c502ffd9p+1",
        "0x1.b34cae8d8ca81p+1", "0x1.b4947e9c6ae36p+1", "0x1.b706d7a81272fp+1",
        "0x1.bba096508165dp+1", "0x1.c40bab55b9e5cp+1", "0x1.d203dde91334ep+1",
        "0x1.e2480c5aca6a9p+1", "0x1.f42dbf8dbad61p+1", "0x1.03a1735e6f9ebp+2",
    ],
}

# the disk branch as recorded when the Bessel values below x = 12 came from
# the ascending series, each entry summed on its own
SERIES_BESSEL_NEWTON_HEX = {
    "disk_pitchfork": [
        "0x1.b21cbae002867p+1", "0x1.b24a5f875fd26p+1", "0x1.b2a27c502ffd9p+1",
        "0x1.b34cae8d8ca8bp+1", "0x1.b4947e9c6ae49p+1", "0x1.b706d7a812745p+1",
        "0x1.bba096508164cp+1", "0x1.c40bab55b9b63p+1", "0x1.d203dde912ccdp+1",
        "0x1.e2480c5acafc2p+1", "0x1.f42dbf8dbbe2dp+1", "0x1.03a1735e6f9ebp+2",
    ],
}

# the disk branch as recorded when its first block, the Jacobian of every
# tangent, corrector and seed, was assembled dense over the half-turn rule
DENSE_FIRST_BLOCK_NEWTON_HEX = {
    "disk_pitchfork": [
        "0x1.b21cbae002863p+1", "0x1.b24a5f875fd2cp+1", "0x1.b2a27c502ffd6p+1",
        "0x1.b34cae8d8ca88p+1", "0x1.b4947e9c6ae46p+1", "0x1.b706d7a8126f5p+1",
        "0x1.bba09650816c6p+1", "0x1.c40bab55bac3cp+1", "0x1.d203dde913e2bp+1",
        "0x1.e2480c5acbd0cp+1", "0x1.f42dbf8dbc9a9p+1", "0x1.03a1735e6f9ebp+2",
    ],
}

# the disk branch as recorded when the Neumann roots were bisected to 1e-12
# instead of refined by Newton to working precision
BISECTION_NEWTON_HEX = {
    "disk_pitchfork": [
        "0x1.b21cbae002155p+1", "0x1.b24a5f875f61dp+1", "0x1.b2a27c502f8cbp+1",
        "0x1.b34cae8d8c37ep+1", "0x1.b4947e9c6a763p+1", "0x1.b706d7a8120bcp+1",
        "0x1.bba0965081113p+1", "0x1.c40bab55b96b4p+1", "0x1.d203dde912b7ep+1",
        "0x1.e2480c5acab0ep+1", "0x1.f42dbf8dbb2a0p+1", "0x1.03a1735e6edfdp+2",
    ],
}

# the same branches as recorded on the full angular rule, before the
# reflection-even rows were integrated on its half-turn
FULL_RULE_NEWTON_HEX = {
    "circle_pitchfork": [
        "0x1.007aded2c7b2dp+0", "0x1.00b8811750720p+0", "0x1.0123afe410b30p+0",
        "0x1.01e28bfe30120p+0", "0x1.033d339ee4a10p+0", "0x1.05bc664e55914p+0",
        "0x1.0a6263df33808p+0", "0x1.1310351c1006ap+0", "0x1.223d27444982dp+0",
        "0x1.352707d14b9f5p+0", "0x1.4b55f77bd6e08p+0", "0x1.645836b6a39ffp+0",
    ],
    "disk_pitchfork": [
        "0x1.b21cbae002159p+1", "0x1.b24a5f875f620p+1", "0x1.b2a27c502f8cbp+1",
        "0x1.b34cae8d8c380p+1", "0x1.b4947e9c6a74cp+1", "0x1.b706d7a811fe2p+1",
        "0x1.bba0965080fb7p+1", "0x1.c40bab55b9f79p+1", "0x1.d203dde91403bp+1",
        "0x1.e2480c5acb3edp+1", "0x1.f42dbf8dbbf00p+1", "0x1.03a1735e6f484p+2",
    ],
}


def _assert_near_recorded(lams, recorded_hex, rtol):
    """Every lambda within rtol |lambda| of its recorded value, and as many
    lambdas as recorded."""
    recorded = [float.fromhex(h) for h in recorded_hex]
    assert len(lams) == len(recorded)
    for lam, rec in zip(lams, recorded):
        assert abs(lam - rec) <= rtol * abs(rec)


def _assert_ends_on_limit(branch, recorded_last, limits=None):
    """The branch ends on a lambda limit (on one of limits, bit for bit, when
    given) between its last point but one and recorded_last, the last point
    recorded before continue_branch replaced the first point past a limit by
    the point on it."""
    assert branch.termination == "lambda-limit"
    before, last = branch.points[-2].lam, branch.points[-1].lam
    assert min(before, recorded_last) < last < max(before, recorded_last)
    if limits is not None:
        assert last in limits


def _first_level_branch(prob, window, limits=None, **kwargs):
    """Branch from the first level detected in window (lambda* = 1 when
    window is None), continued to limits (default (lambda* - 0.3,
    lambda* + 0.6))."""
    lam_star = 1.0 if window is None else detect_bifurcation(prob, window, steps=60)[0]
    if limits is None:
        limits = (lam_star - 0.3, lam_star + 0.6)
    return continue_branch(prob, switch_branch(prob, lam_star), limits, **kwargs)


class TestChordCorrector:
    """One corrector: good-Broyden (QNERR) steps on a reused bordered matrix
    while each cuts the residual norm by _CHORD_BAR and has alpha < 1/2; a
    step that does not is retaken from the iterate before it on a matrix
    built there."""

    @pytest.mark.parametrize(
        "fixture,window,limits",
        [
            ("circle_pitchfork", None, (0.9, 1.3)),
            ("disk_pitchfork", (0.5, 12.0), None),
        ],
    )
    def test_stalled_chord_is_the_full_newton_corrector(
        self, fixture, window, limits, request, monkeypatch
    ):
        # with a bar of 0 every step on a reused matrix stalls and is retaken
        # on one built at its iterate, the first step on the tangent's matrix
        # too, so every kept step is a Newton step and the branch is bit for
        # bit what full Newton correctors computed; the disk's within 1e-11
        # |lambda| of the branch on its dense first block (measured: 8.2e-13)
        # and of the branch on the series Bessel values (measured: 4.9e-13)
        prob = request.getfixturevalue(fixture)
        chords = []
        bordered = continuation._bordered_newton

        def spy(*args):
            if len(args) > 8 and args[8] is not None:
                chords.append(args[2])
            return bordered(*args)

        monkeypatch.setattr(continuation, "_CHORD_BAR", 0.0)
        monkeypatch.setattr(continuation, "_bordered_newton", spy)
        fixed_growth(monkeypatch)
        branch = _first_level_branch(prob, window, limits, max_steps=40, ds_max=0.2)
        recorded = RECORDED_NEWTON_HEX[fixture]
        _assert_ends_on_limit(branch, float.fromhex(recorded[-1]), limits)
        assert len(chords) >= len(branch.points) - 1
        lams = [bp.lam for bp in branch.points[:-1]]
        _assert_near_recorded(lams, FULL_RULE_NEWTON_HEX[fixture][:-1], 1e-11)
        if fixture in BISECTION_NEWTON_HEX:
            _assert_near_recorded(lams, BISECTION_NEWTON_HEX[fixture][:-1], 1e-11)
        if fixture in DENSE_FIRST_BLOCK_NEWTON_HEX:
            _assert_near_recorded(lams, DENSE_FIRST_BLOCK_NEWTON_HEX[fixture][:-1], 1e-11)
        if fixture in SERIES_BESSEL_NEWTON_HEX:
            _assert_near_recorded(lams, SERIES_BESSEL_NEWTON_HEX[fixture][:-1], 1e-11)
        assert [lam.hex() for lam in lams] == recorded[:-1]

    @staticmethod
    def _corrector_steps(prob, ds, monkeypatch):
        """Run _bordered_newton from the predictor at arclength ds past the
        seed at lambda* = 1, on the tangent's matrix at the seed (stale at
        the predictor), and return its steps and its iterates.  A step is one
        solve, (start, end, fresh, raw): the index of the iterate whose
        residual it solved with, the index of the iterate whose residual was
        evaluated next (None when the step was retaken before that), whether
        its matrix was built at its start, and the (c, lambda) part of the
        solution.  The iterates are (c, lambda, residual norm), the returned
        point last.  Last comes the theta0 the corrector returned."""
        space = continuation._subspace(prob)
        sub, n = space.problem, space.problem.n_dof
        bp = switch_branch(prob, 1.0).points[0]
        c0, lam0 = bp.c[space.idx], bp.lam
        t_prev = np.append(c0, lam0 - 1.0)
        t_prev /= np.linalg.norm(t_prev)
        t, A = continuation._tangent(sub, c0, lam0, jacobian(sub, c0, lam0), t_prev)
        A[-1, : n + 1] = t
        iterates, residuals, builds, solves = [], [], [], []
        residual, system, solve = (
            continuation.assemble_residual,
            continuation._newton_system,
            continuation._solve,
        )

        def residual_spy(problem, c, lam):
            r = residual(problem, c, lam)
            iterates.append((np.array(c), float(lam), float(np.linalg.norm(r))))
            residuals.append(r)
            return r

        def system_spy(problem, c, lam, J, border):
            M = system(problem, c, lam, J, border)
            builds.append((M, np.array(c), float(lam)))
            return M

        def solve_spy(M, b, lam):
            x = solve(M, b, lam)
            solves.append((M, b[:n], x[: n + 1].copy(), len(iterates)))
            return x

        pred = (c0 + ds * t[:n], lam0 + ds * t[n])
        with monkeypatch.context() as m:
            m.setattr(continuation, "assemble_residual", residual_spy)
            m.setattr(continuation, "_newton_system", system_spy)
            m.setattr(continuation, "_solve", solve_spy)
            c, lam, rn, theta0 = continuation._bordered_newton(
                space, *pred, t, np.append(c0, lam0), ds, 10 * continuation.NEWTON_TOL, 20, A
            )
        assert rn <= continuation.NEWTON_TOL
        steps = []
        for k, (M, b, raw, count) in enumerate(solves):
            # the step solved with the residual of its start, negated
            start = max(i for i in range(count) if np.array_equal(residuals[i], -b))
            following = solves[k + 1][3] if k + 1 < len(solves) else len(iterates)
            c_s, lam_s, _ = iterates[start]
            fresh = any(M is B and np.array_equal(x, c_s) and y == lam_s for B, x, y in builds)
            steps.append((start, count if following > count else None, fresh, raw))
        return steps, iterates + [(c, lam, rn)], theta0

    @staticmethod
    def _kept(steps, iterates):
        """Per step, whether the corrector went on from the iterate it
        reached (kept) rather than from the one it started at (retaken)."""
        def same(i, j):
            return np.array_equal(iterates[i][0], iterates[j][0]) and iterates[i][1] == iterates[j][1]

        following = [step[0] for step in steps[1:]] + [len(iterates) - 1]
        kept = []
        for (start, end, _, _), nxt in zip(steps, following):
            kept.append(end is not None and same(nxt, end))
            assert kept[-1] or same(nxt, start)
        return kept

    @staticmethod
    def _qnerr(raw, earlier):
        """QNERR's step from the raw solve and the steps kept on its matrix
        before it, and its alpha (0 for the first step on a matrix)."""
        v = raw.copy()
        for s, s_next in zip(earlier, earlier[1:]):
            v = v + (s @ v / (s @ s)) * s_next
        if not earlier:
            return v, 0.0
        alpha = earlier[-1] @ v / (earlier[-1] @ earlier[-1])
        return v / (1.0 - alpha), alpha

    @pytest.mark.parametrize(
        "fixture,ds,retaken,updated",
        [
            ("circle_ring", 0.024, [], 3),
            ("circle_ring", 0.1, [1], 1),
            ("circle_pitchfork", 0.5, [0], 3),
        ],
    )
    def test_retake_rule(self, fixture, ds, retaken, updated, request, monkeypatch):
        # on the circle ring at ds = 0.024 every step on the stale matrix
        # halves the residual, three of them moved by the updates; at ds =
        # 0.1 the updated second step stalls; on the circle pitchfork at ds =
        # 0.5 the first step stalls, and three updated steps on the matrix
        # built at the predictor follow
        prob = request.getfixturevalue(fixture)
        steps, iterates, theta0 = self._corrector_steps(prob, ds, monkeypatch)
        kept = self._kept(steps, iterates)
        bar = continuation._CHORD_BAR
        assert [k for k, keep in enumerate(kept) if not keep] == retaken
        on_matrix, moved = [], 0  # steps kept on the current matrix
        for k, ((start, end, fresh, raw), keep) in enumerate(zip(steps, kept)):
            if fresh:
                on_matrix = []
            v, alpha = self._qnerr(raw, on_matrix)
            if keep:
                # the step taken is QNERR's, to the rounding of c + v
                c_s, lam_s, rn_start = iterates[start]
                c_e, lam_e, rn_end = iterates[end]
                scale = 1e-14 * max(1.0, np.max(np.abs(c_s)), abs(lam_s))
                np.testing.assert_allclose(np.append(c_e - c_s, lam_e - lam_s), v, rtol=0, atol=scale)
                assert fresh or (alpha < 0.5 and rn_end <= bar * rn_start)
                moved += len(on_matrix) > 0 and np.linalg.norm(v - raw) > 1e-3 * np.linalg.norm(v)
                on_matrix.append(v)
            else:
                # a stall or a guarded alpha on a reused matrix, retaken from
                # the iterate before it (_kept) on a matrix built there
                assert not fresh
                assert alpha >= 0.5 or iterates[end][2] > bar * iterates[start][2]
                assert steps[k + 1][2]
        # the first step is on the stale matrix; a kept step on a reused
        # matrix is moved when its update changes the chord step by more
        # than 1e-3 of its length
        assert not steps[0][2]
        assert moved == updated
        # theta0 is the ratio of the first two steps kept on the tangent's
        # matrix, and inf when a retake leaves it before them
        if retaken and retaken[0] <= 1:
            assert theta0 == math.inf
        else:
            first = steps[0][3]
            second = self._qnerr(steps[1][3], [first])[0]
            ratio = np.linalg.norm(second) / np.linalg.norm(first)
            assert theta0 == pytest.approx(ratio, rel=1e-12)
            assert 0 < theta0 < bar

    @pytest.mark.parametrize("ds", [0.024, 0.5])
    def test_bar_zero_keeps_only_newton_steps(self, circle_pitchfork, ds, monkeypatch):
        # with a bar of 0 every kept step is a Newton step from its own
        # iterate, and every step on a reused matrix is retaken
        monkeypatch.setattr(continuation, "_CHORD_BAR", 0.0)
        steps, iterates, theta0 = self._corrector_steps(circle_pitchfork, ds, monkeypatch)
        kept = self._kept(steps, iterates)
        assert len(steps) > sum(kept) >= 2
        for keep, (_, _, fresh, _) in zip(kept, steps):
            assert keep == fresh
        # the first step stalls on the tangent's matrix, which is left
        assert theta0 == math.inf

    @staticmethod
    def _affine_corrector(K, f, A, monkeypatch):
        """_bordered_newton on the affine residual K c - f with lambda held
        at 0 by the border, from c = 0 on the given matrix A: the returned
        (c, lam, residual norm), every residual norm and the (c, lambda) of
        every matrix built, whose J is K."""
        norms, builds = [], []

        def residual(problem, c, lam):
            r = K @ c - f
            norms.append(float(np.linalg.norm(r)))
            return r

        def system(problem, c, lam, J, border):
            builds.append((np.array(c), lam))
            return np.block([[K, np.zeros((2, 1))], [border[None, :]]])

        monkeypatch.setattr(continuation, "assemble_residual", residual)
        monkeypatch.setattr(continuation, "_branch_jacobian", lambda space, c, lam: None)
        monkeypatch.setattr(continuation, "_newton_system", system)
        border = np.array([0.0, 0.0, 1.0])
        space = SimpleNamespace(problem=SimpleNamespace(n_dof=2))
        out = continuation._bordered_newton(
            space, np.zeros(2), 0.0, border, np.zeros(3), 0.0, 1e-12, 20, A
        )
        np.testing.assert_allclose(out[0], np.linalg.solve(K, f), rtol=1e-14)
        assert out[1] == 0.0 and out[2] <= continuation.NEWTON_TOL
        return out, norms, builds

    def test_updates_converge_on_a_wrong_matrix_without_a_rebuild(self, monkeypatch):
        # the reused matrix has K11 = 5 where the Jacobian has 2: a chord on
        # it contracts by 0.61 per step, so a step after the first would
        # stall and be retaken on a rebuilt matrix; the good-Broyden updates
        # halve the residual at every step and end exactly, as the secant
        # method does on an affine map (Gay, SIAM J. Numer. Anal. 16, 1979)
        K = np.array([[2.0, -1.0], [-1.0, 10.0]])
        A = np.block([[K, np.zeros((2, 1))], [np.array([[0.0, 0.0, 1.0]])]])
        A[0, 0] = 5.0
        chord = np.eye(3) - np.linalg.solve(A, np.block([[K, np.zeros((2, 1))], [A[2:]]]))
        assert np.max(np.abs(np.linalg.eigvals(chord))) > 0.6
        out, norms, builds = self._affine_corrector(K, np.array([3.0, 3.0]), A, monkeypatch)
        assert builds == []
        assert len(norms) == 4
        assert all(b <= continuation._CHORD_BAR * a for a, b in zip(norms, norms[1:]))
        # the first contraction, the length ratio of the first two steps on
        # the given matrix, is measured
        assert 0 < out[3] < math.inf

    def test_one_step_reports_no_contraction(self, monkeypatch):
        # on the exact matrix of an affine residual the first step ends the
        # solve, and no second step measures a contraction: theta0 = 0, on
        # which the continuation grows its step by _DS_GROWTH
        K = np.array([[2.0, -1.0], [-1.0, 10.0]])
        A = np.block([[K, np.zeros((2, 1))], [np.array([[0.0, 0.0, 1.0]])]])
        out, norms, builds = self._affine_corrector(K, np.array([3.0, 3.0]), A, monkeypatch)
        assert builds == [] and len(norms) == 2
        assert out[3] == 0.0

    def test_alpha_guard_retakes_before_the_residual(self, monkeypatch):
        # on the reused matrix diag(7, 2) the first step cuts the residual to
        # 0.36 of its norm, but the next has alpha = 0.62: it is retaken from
        # the first step's iterate, with no residual evaluated at its end, on
        # a matrix built there, whose Newton step ends exactly
        K, f = np.array([[8.0, 1.0], [1.0, 1.0]]), np.array([2.0, -1.0])
        A = np.diag([7.0, 2.0, 1.0])
        _, norms, builds = self._affine_corrector(K, f, A, monkeypatch)
        assert len(norms) == 3 and norms[1] <= 0.37 * norms[0]
        c1 = np.linalg.solve(A[:2, :2], f)
        assert len(builds) == 1 and np.array_equal(builds[0][0], c1)

    @pytest.mark.parametrize(
        "fixture,window,limits",
        [
            # the level-2 branch of test_sphere_branch_matches_recorded_values
            ("sphere_ring", (1.0, 7.0), (1.7, 2.6)),
            ("disk_pitchfork", (0.5, 12.0), None),
        ],
    )
    def test_chord_moves_points_only_within_tolerance(
        self, fixture, window, limits, request, monkeypatch
    ):
        # on one step schedule: with a bar of 0 the tangent's matrix is
        # always left, and the contraction rule would halve every step
        prob = request.getfixturevalue(fixture)
        fixed_growth(monkeypatch)
        kwargs = dict(max_steps=80, ds_max=0.05)
        chord = _first_level_branch(prob, window, limits, **kwargs)
        monkeypatch.setattr(continuation, "_CHORD_BAR", 0.0)
        newton = _first_level_branch(prob, window, limits, **kwargs)
        assert chord.termination == newton.termination == "lambda-limit"
        assert len(chord.points) == len(newton.points) > 20
        for a, b in zip(chord.points, newton.points):
            assert abs(a.lam - b.lam) <= 1e-9
            assert abs(a.sup_norm - b.sup_norm) <= 1e-9

    def test_non_finite_residual_names_lambda(self, monkeypatch):
        # a residual that overflows at the first step's iterate ends the
        # solve with a NewtonError naming lambda there; the overflow is
        # evaluated under np.errstate, so no RuntimeWarning is raised (an
        # error under this suite's filters)
        K = np.array([[2.0, -1.0], [-1.0, 10.0]])
        monkeypatch.setattr(
            continuation, "assemble_residual", lambda problem, c, lam: K @ c - np.exp(1e4 * c)
        )
        A = np.block([[K, np.zeros((2, 1))], [np.array([[0.0, 0.0, 1.0]])]])
        space = SimpleNamespace(problem=SimpleNamespace(n_dof=2))
        with pytest.raises(NewtonError, match=r"not finite at lambda=0\.25$"):
            continuation._bordered_newton(
                space, np.zeros(2), 0.25, A[2], np.zeros(3), 0.25, 1e-12, 20, A
            )

    def test_one_bordered_matrix_per_accepted_point_on_the_fixed_growth(
        self, sphere_ring, monkeypatch
    ):
        # the branch of test_sphere_branch_matches_recorded_values; full
        # Newton correctors assembled 96 Jacobians for its 32 accepted points
        # (3.0 per point), the chord corrector 36; with the Broyden updates
        # no step is retaken, so every accepted point's one bordered matrix
        # is its tangent's, and its diagnostic blocks share that Jacobian's
        # nodal Hessian; on the fixed growth that branch was recorded with.
        # The seed's Hessian is switch_branch's, whose Jacobian there
        # continue_branch takes
        prob = sphere_ring
        det = detect_bifurcation(prob, (1.0, 7.0), steps=60)
        seed = switch_branch(prob, det[0])
        fixed_growth(monkeypatch)
        hessians, systems = self._count_builds(monkeypatch)
        branch = continue_branch(prob, seed, (1.7, 2.6), max_steps=80, ds_max=0.05)
        accepted = len(branch.points) - 1
        assert accepted == 32
        assert len(systems) == accepted
        assert len(hessians) == accepted

    @staticmethod
    def _count_builds(monkeypatch):
        """Lists that collect the lambda of every nodal Hessian and of every
        bordered matrix from now on."""
        hessians, systems = [], []
        hessian, system = continuation._nodal_hessian, continuation._newton_system

        def hessian_spy(*args):
            hessians.append(args[2])
            return hessian(*args)

        def system_spy(*args):
            systems.append(args[2])
            return system(*args)

        monkeypatch.setattr(continuation, "_nodal_hessian", hessian_spy)
        monkeypatch.setattr(continuation, "_newton_system", system_spy)
        return hessians, systems

    @pytest.mark.parametrize("fixture", ["disk200_pitchfork", "disk200_ring"])
    def test_disk_one_bordered_matrix_per_accepted_point_on_the_fixed_growth(
        self, fixture, request, monkeypatch
    ):
        # the disk workload's branches from the level in (0.5, 6.25) to
        # lambda* -/+ lambda*/4 at ds_max = 0.2, the library default of the
        # fixed growth; restarting full Newton from the predictor on a
        # stall took 3.46 (pitchfork-scalar) and 3.80 (so2-ring) Jacobians
        # per accepted point, retaking the stalled chord step 1.85 and 2.10;
        # with the Broyden updates no step is retaken: one bordered matrix
        # and one nodal Hessian per accepted point (the seed's Jacobian is
        # switch_branch's)
        prob = request.getfixturevalue(fixture)
        lam = detect_bifurcation(prob, (0.5, 6.25))[0]
        seed = switch_branch(prob, lam)
        fixed_growth(monkeypatch)
        hessians, systems = self._count_builds(monkeypatch)
        branch = continue_branch(prob, seed, (lam - 0.25 * lam, lam + 0.25 * lam), ds_max=0.2)
        assert branch.termination == "lambda-limit"
        accepted = len(branch.points) - 1
        assert accepted >= 10
        assert len(systems) == accepted
        assert len(hessians) <= accepted

    @pytest.mark.parametrize("fixture", ["sphere_ring", "disk200_pitchfork", "disk200_ring"])
    def test_bordered_matrices_per_accepted_point_at_the_default_step(
        self, fixture, request, monkeypatch
    ):
        # the branches of the two tests above at the library's step: the
        # contraction rule lets the step grow until the tangent's matrix is
        # sometimes left, for a retake on a matrix built at its start, so
        # sphere_ring takes 10 bordered matrices for 8 accepted points, the
        # disk pitchfork 11 for 11 and the disk so2-ring 10 for 8; every
        # Hessian is a point's or a retake's, and a tangent's matrix reuses
        # its point's (the seed's Jacobian is switch_branch's)
        prob = request.getfixturevalue(fixture)
        if fixture == "sphere_ring":
            lam = detect_bifurcation(prob, (1.0, 7.0), steps=60)[0]
            limits = (1.7, 2.6)
        else:
            lam = detect_bifurcation(prob, (0.5, 6.25))[0]
            limits = (lam - 0.25 * lam, lam + 0.25 * lam)
        seed = switch_branch(prob, lam)
        hessians, systems = self._count_builds(monkeypatch)
        branch = continue_branch(prob, seed, limits)
        assert branch.termination == "lambda-limit"
        accepted = len(branch.points) - 1
        assert accepted >= 8
        assert accepted <= len(systems) <= 1.25 * accepted
        assert len(hessians) == len(systems)


def _corrector_offsets(monkeypatch):
    """List that collects the arclength of every continuation corrector
    solve from now on: the offset of each _bordered_newton call given the
    tangent's matrix."""
    offsets = []
    bordered = continuation._bordered_newton

    def spy(*args):
        if len(args) > 8 and args[8] is not None and args[6] > 0:
            offsets.append(args[5])
        return bordered(*args)

    monkeypatch.setattr(continuation, "_bordered_newton", spy)
    return offsets


class TestStepRule:
    """After every accepted point the step is ds * clamp(_THETA_BAR /
    theta0, 1/2, _DS_GROWTH), at most ds_max, with theta0 the first
    contraction the corrector reports; it starts at min(_DS0, ds_max) and
    halves when the corrector fails."""

    @staticmethod
    def _steps(prob, monkeypatch, theta0, ds_max=1.0, max_steps=5, fail=()):
        """The arclength of every corrector solve of the continuation of the
        circle pitchfork branch from lambda* = 1 to (0.5, 3.0), with the real
        corrector's theta0 replaced by the given one and the solves whose
        index is in fail raising NewtonError."""
        seed = switch_branch(prob, 1.0)
        offsets = []
        bordered = continuation._bordered_newton

        def stub(*args):
            if len(args) > 8 and args[8] is not None and args[6] > 0:
                offsets.append(args[5])
                if len(offsets) - 1 in fail:
                    raise NewtonError("stubbed failure")
                return (*bordered(*args)[:3], theta0)
            return bordered(*args)

        monkeypatch.setattr(continuation, "_bordered_newton", stub)
        branch = continue_branch(prob, seed, (0.5, 3.0), max_steps=max_steps, ds_max=ds_max)
        assert branch.termination == "max-steps"
        return offsets

    def test_constants(self):
        # the target contraction keeps the tangent's matrix
        assert 0 < continuation._THETA_BAR < continuation._CHORD_BAR
        assert continuation._DS_GROWTH > 1

    @pytest.mark.parametrize(
        "theta0,factor",
        [(0.0, 4.0), (0.05, 4.0), (0.2, 2.0), (0.4, 1.0), (0.5, 0.8), (0.8, 0.5), (math.inf, 0.5)],
    )
    def test_factor(self, circle_pitchfork, theta0, factor, monkeypatch):
        # theta0 = 0, a corrector that converged in one step, grows the step
        # by _DS_GROWTH = 4; a contraction above _THETA_BAR = 0.4 shrinks it,
        # by at most half
        assert continuation._step_factor(theta0) == pytest.approx(factor, rel=1e-15)
        offsets = self._steps(circle_pitchfork, monkeypatch, theta0, ds_max=0.5)
        assert offsets[0] == continuation._DS0 == 0.02
        for ds, following in zip(offsets, offsets[1:]):
            assert following == pytest.approx(min(ds * factor, 0.5), rel=1e-15)

    @pytest.mark.parametrize("ds_max", [0.005, 0.05, 0.3])
    def test_step_never_exceeds_ds_max(self, circle_pitchfork, ds_max, monkeypatch):
        offsets = self._steps(circle_pitchfork, monkeypatch, 0.0, ds_max=ds_max)
        assert offsets[0] == min(continuation._DS0, ds_max)
        assert max(offsets) == ds_max
        assert offsets[-1] == ds_max

    @pytest.mark.parametrize("fixture", ["disk200_pitchfork", "disk200_ring"])
    def test_disk_branches_take_fewer_points(self, fixture, request, monkeypatch):
        # the disk workload's branches from the level in (0.5, 6.25) to
        # lambda* -/+ lambda*/4: at the default step 11 and 8 accepted
        # points, against 13 and 10 for the fixed growth to ds_max 0.2, for
        # 11 and 10 bordered matrices against 13 and 10 (so2-ring retakes
        # two steps); the same ends, to 1e-8
        prob = request.getfixturevalue(fixture)
        lam = detect_bifurcation(prob, (0.5, 6.25))[0]
        seed = switch_branch(prob, lam)
        limits = (lam - 0.25 * lam, lam + 0.25 * lam)
        runs = []
        for fixed in (False, True):
            with monkeypatch.context() as m:
                if fixed:
                    fixed_growth(m)
                _, systems = TestChordCorrector._count_builds(m)
                branch = continue_branch(prob, seed, limits, ds_max=0.2 if fixed else 1.0)
            assert branch.termination == "lambda-limit"
            runs.append((branch, len(systems)))
        (branch, systems), (fixed, fixed_systems) = runs
        assert len(branch.points) < len(fixed.points)
        assert systems <= fixed_systems
        assert branch.points[-1].lam == fixed.points[-1].lam
        sups = [max(bp.sup_norm for bp in b.points) for b in (branch, fixed)]
        assert abs(sups[0] - sups[1]) <= 1e-8 * sups[1]

    def test_failed_corrector_halves_the_step(self, circle_pitchfork, monkeypatch):
        # the second solve fails at 4 x 0.02 and is retried at half of it;
        # the next step grows from the step accepted
        offsets = self._steps(circle_pitchfork, monkeypatch, 0.0, max_steps=3, fail={1})
        assert offsets == pytest.approx([0.02, 0.08, 0.04, 0.16], rel=1e-15)


class TestBranchEnds:
    """The ends of a branch do not depend on the step: a branch ends on its
    lambda limit bit for bit, and a fold between two points is located and
    inserted between them."""

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"ds_max": 0.0}, "ds_max"),
            ({"ds_max": -0.1}, "ds_max"),
            ({"ds_max": math.inf}, "ds_max"),
            ({"ds_max": math.nan}, "ds_max"),
            ({"max_steps": 0}, "max_steps"),
        ],
    )
    def test_bad_step_settings_raise(self, circle_pitchfork, kwargs, name):
        # they used to end in a silent step-underflow or return the seed alone
        seed = switch_branch(circle_pitchfork, 1.0)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            continue_branch(circle_pitchfork, seed, (0.9, 1.3), **kwargs)

    def test_first_step_is_at_most_ds_max(self, circle_pitchfork, monkeypatch):
        # the first step was _DS0 = 0.02 whatever ds_max, which clamped only
        # the steps after it
        seed = switch_branch(circle_pitchfork, 1.0)
        offsets = _corrector_offsets(monkeypatch)
        continue_branch(circle_pitchfork, seed, (0.9, 1.3), max_steps=3, ds_max=0.005)
        assert offsets == [0.005] * 3

    @pytest.mark.parametrize(
        "fixture,lam_star,limits,end",
        [
            ("circle_pitchfork", 1.0, (0.9, 1.3), 1),
            ("disk_ring", None, (3.0, 3.6), 1),
            # the level-6 branch turns down to its fold near 5.49 and crosses
            # the lower limit first
            ("sphere_ring", 6.0, (5.6, 7.0), 0),
        ],
    )
    def test_last_point_lies_on_the_limit(self, fixture, lam_star, limits, end, request):
        prob = request.getfixturevalue(fixture)
        if lam_star is None:
            lam_star = detect_bifurcation(prob, (0.5, 4.0), steps=60)[0]
        branch = continue_branch(prob, switch_branch(prob, lam_star), limits, max_steps=80)
        assert branch.termination == "lambda-limit"
        last = branch.points[-1]
        assert last.lam == limits[end]
        assert all(limits[0] < bp.lam < limits[1] for bp in branch.points[:-1])
        assert last.residual_norm <= continuation.NEWTON_TOL
        r = assemble_residual(prob, last.c, last.lam)
        assert np.linalg.norm(r) <= 10 * continuation.NEWTON_TOL

    def test_failed_limit_solve_halves_the_step(self, circle_pitchfork, monkeypatch):
        # a limit solve that fails is a failed step: the step halves and the
        # corrector runs again from the same point
        seed = switch_branch(circle_pitchfork, 1.0)
        end_on_limit = continuation._end_on_limit
        failures = []

        def fail_once(*args):
            if not failures:
                failures.append(len(offsets))
                raise NewtonError("limit solve failed")
            return end_on_limit(*args)

        offsets = _corrector_offsets(monkeypatch)
        monkeypatch.setattr(continuation, "_end_on_limit", fail_once)
        branch = continue_branch(circle_pitchfork, seed, (0.9, 1.3), max_steps=80)
        assert branch.termination == "lambda-limit" and branch.points[-1].lam == 1.3
        (k,) = failures
        assert offsets[k] == 0.5 * offsets[k - 1]

    def test_fold_is_located_between_the_accepted_points(self, sphere_ring, monkeypatch):
        # the so2-ring branch from lambda* = 6 on S^2 at truncation 6 turns
        # at lambda 5.4895; the fold point is inserted between the two points
        # whose tangents' lambda components differ in sign, where the
        # tangent's lambda component is 0, and the accepted points are bit
        # for bit those of a run that locates no fold
        prob = sphere_ring
        limits = (4.5, 7.5)
        branch = continue_branch(prob, switch_branch(prob, 6.0), limits, max_steps=80)
        lams = [bp.lam for bp in branch.points]
        k = int(np.argmin(lams))
        assert 0 < k < len(lams) - 1 and abs(lams[k] - 5.4895388) < 1e-6
        fold = branch.points[k]
        space = continuation._subspace(prob)
        sub, c = space.problem, fold.c[space.idx]
        t, _ = continuation._tangent(
            sub, c, fold.lam, jacobian(sub, c, fold.lam), np.append(c, 0.0) / np.linalg.norm(c)
        )
        assert abs(t[-1]) <= continuation._FOLD_TOL
        assert fold.residual_norm <= continuation.NEWTON_TOL

        def no_fold(*args):
            raise NewtonError("fold not located")

        monkeypatch.setattr(continuation, "_locate_fold", no_fold)
        bare = continue_branch(prob, switch_branch(prob, 6.0), limits, max_steps=80)
        assert len(bare.points) == len(branch.points) - 1
        for a, b in zip(bare.points, branch.points[:k] + branch.points[k + 1 :]):
            assert a.lam == b.lam and np.array_equal(a.c, b.c)
            assert a.block_morse_index == b.block_morse_index


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
        # the smallest off-symmetry singular value of the trivial-branch
        # Jacobian touches zero at the level
        prob = circle_pitchfork
        zero = np.zeros(prob.n_dof)
        s_away = _dense_min_offsym_singular(prob, zero, jacobian(prob, zero, 0.6))
        s_at = _dense_min_offsym_singular(prob, zero, jacobian(prob, zero, 1.0))
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

    def test_sphere2_branches(self, sphere_ring, sphere12_ring, monkeypatch):
        # at truncations 6 and 12 the level-2 so2-ring seed is the point of
        # the one amplitude-pinned bordered solve from the zonal seed
        bordered = continuation._bordered_newton
        for prob in (sphere_ring, sphere12_ring):
            det = detect_bifurcation(prob, (1.0, 7.0), steps=60)
            np.testing.assert_allclose(det, [2.0, 6.0], atol=1e-7)
            solves = []

            def spy(*args):
                out = bordered(*args)
                solves.append((args, out))
                return out

            with monkeypatch.context() as m:
                m.setattr(continuation, "_bordered_newton", spy)
                seed = switch_branch(prob, det[0])
            assert len(solves) == 1
            args, (c, lam, _, _) = solves[0]
            bp = seed.points[0]
            # the solve runs on the zonal rows, and the point is its lift
            idx = continuation._subspace(prob).idx
            assert args[0].problem.n_dof == idx.size < prob.n_dof
            assert bp.lam == lam and np.array_equal(bp.c[idx], c)
            assert np.count_nonzero(bp.c) == np.count_nonzero(c)
            assert bp.sup_norm > 1e-3
            # the border is (vhat, 0) for the kernel direction v on those
            # rows, and the seed keeps the amplitude it started from:
            # vhat . c = 0.05 |v|
            v = continuation._kernel_direction(continuation._subspace(prob), det[0])[idx]
            vhat = v / np.linalg.norm(v)
            np.testing.assert_array_equal(args[3], np.append(vhat, 0.0))
            assert abs(float(np.dot(vhat, c)) - 0.05 * np.linalg.norm(v)) <= 1e-10
            branch = continue_branch(prob, seed, (1.7, 2.2), max_steps=20)
            assert all(bp.residual_norm <= 1e-10 for bp in branch.points)
            assert max(bp.sup_norm for bp in branch.points) > 0.1

    def test_no_branch_error_message(self, circle_pitchfork, monkeypatch):
        # a level that is not a bifurcation point has no kernel direction to
        # follow; the amplitude-pinned solve converges only at the level
        # lambda = 1, too far from 2.5 to count, and the message says so
        solves = []
        bordered = continuation._bordered_newton

        def spy(*args):
            out = bordered(*args)
            solves.append(out)
            return out

        monkeypatch.setattr(continuation, "_bordered_newton", spy)
        monkeypatch.setattr(continuation, "_SEED_AMPLITUDE", 1e-8)
        message = r"^no branch captured at lambda_star=2\.5: lambda drift 1\.500e\+00 outside"
        with pytest.raises(NoBranchError, match=message + r" \(1e-13, 1\.25\]$"):
            switch_branch(circle_pitchfork, 2.5)
        assert len(solves) == 1 and abs(solves[0][1] - 1.0) < 1e-6

    @pytest.mark.parametrize("failure", ["not-converged", "diverged"])
    def test_fallback_failure_is_no_branch(self, circle_pitchfork, monkeypatch, failure):
        # a pinned solve that stops short of convergence (one step allowed)
        # or takes a non-finite step ends as NoBranchError, not an escaped
        # error, with the NewtonError chained and its text in the message
        bordered = continuation._bordered_newton
        raised = []

        def failing(*args):
            try:
                if failure == "diverged":
                    raise NewtonError("bordered Newton step diverged")
                return bordered(*args[:-1], 1)
            except NewtonError as err:
                raised.append(err)
                raise

        monkeypatch.setattr(continuation, "_bordered_newton", failing)
        monkeypatch.setattr(continuation, "_SEED_AMPLITUDE", 1e-8)
        cause = "diverged" if failure == "diverged" else "did not converge"
        message = f"^no branch captured at lambda_star=2.5: .*{cause}"
        with pytest.raises(NoBranchError, match=message) as info:
            switch_branch(circle_pitchfork, 2.5)
        assert len(raised) == 1
        assert cause in str(raised[0])
        assert info.value.__cause__ is raised[0]
        assert str(info.value).endswith(str(raised[0]))


SEED_CASES = {
    # domain, build options, detection window
    "circle": (sphere(2), {}, (0.5, 9.5)),
    "disk": (ball(2), {"beta_cutoff": 60.0}, (0.5, 12.0)),
    "sphere2-12": (sphere(3), {"truncation": 12}, (0.5, 8.0)),
}


@pytest.fixture(scope="module", params=list(SEED_CASES))
def seed_case(request):
    """(problem, detected levels) for both builtins on one domain."""
    domain, options, window = SEED_CASES[request.param]
    cases = []
    for name in ("pitchfork-scalar", "so2-ring"):
        prob = build_problem(domain, builtin(name), **options)
        cases.append((prob, detect_bifurcation(prob, window)))
    return cases


class TestAxialSeed:
    """The branch seed lies in the fixed-point space of an axial isotropy
    subgroup, where the kernel of J(0, lambda*) is simple."""

    def test_seed_is_fixed_by_the_axial_subgroup(self, seed_case):
        for prob, levels in seed_case:
            assert levels
            sin_rows = [s for _, s, _ in continuation._angular_pairs(prob.eigens)]
            Tz = prob.rotation_generators[0]
            for lam in levels:
                v = continuation._kernel_direction(continuation._subspace(prob), lam)
                V = v.reshape(prob.n_funcs, prob.p)
                assert np.all(V[sin_rows] == 0)
                if len(prob.rotation_generators) == 3:
                    # the 2-sphere: zonal, so fixed by every rotation about z
                    assert np.all(Tz @ V == 0)
                assert v[np.argmax(np.abs(v))] > 0
                assert abs(prob.sup_deviation(v) - 1.0) <= 1e-12
                J = jacobian(prob, np.zeros(prob.n_dof), lam)
                assert np.linalg.norm(J @ v) <= 1e-7 * np.linalg.norm(v)

    def test_seed_ignores_the_last_bit_of_the_hessian(self, seed_case):
        for prob, levels in seed_case:
            hess = prob.spec.hess
            spec = dataclasses.replace(prob.spec, hess=lambda u, lam: hess(u, lam) * (1 + 2**-52))
            bumped = dataclasses.replace(prob, spec=spec)
            for lam in levels:
                v = continuation._kernel_direction(continuation._subspace(prob), lam)
                w = continuation._kernel_direction(continuation._subspace(bumped), lam)
                assert np.max(np.abs(v - w)) <= 1e-12, (prob.spec.name, lam)


class TestPinnedSwitch:
    """switch_branch seeds every branch by one bordered solve that holds the
    kernel amplitude vhat . c at its starting value amplitude |v|."""

    def test_every_seed_holds_its_amplitude(self, seed_case, monkeypatch):
        bordered = continuation._bordered_newton
        calls = []

        def spy(*args):
            calls.append(args)
            return bordered(*args)

        monkeypatch.setattr(continuation, "_bordered_newton", spy)
        for prob, levels in seed_case:
            assert levels
            for lam_star in levels:
                calls.clear()
                bp = switch_branch(prob, lam_star).points[0]
                assert len(calls) == 1, (prob.spec.name, lam_star)
                v = continuation._kernel_direction(continuation._subspace(prob), lam_star)
                target = 0.05 * np.linalg.norm(v)
                vhat = v / np.linalg.norm(v)
                assert abs(float(np.dot(vhat, bp.c)) - target) <= 1e-10 * target
                # the residual norm is the one of the solve on the axial
                # rows; the full-space residual at the lifted point is as small
                space = continuation._subspace(prob)
                r = assemble_residual(space.problem, bp.c[space.idx], bp.lam)
                assert bp.residual_norm == np.linalg.norm(r) <= continuation.NEWTON_TOL
                r = assemble_residual(prob, bp.c, bp.lam)
                assert np.linalg.norm(r) <= 10 * continuation.NEWTON_TOL


BRANCH_CASES = {
    # domain, build options, detection window
    "circle": (sphere(2), {}, (0.5, 9.5)),
    "disk": (ball(2), {"beta_cutoff": 60.0}, (0.5, 12.0)),
    "sphere2-6": (sphere(3), {"truncation": 6}, (0.5, 8.0)),
    "sphere2-12": (sphere(3), {"truncation": 12}, (0.5, 8.0)),
}


@pytest.fixture(scope="module", params=list(BRANCH_CASES))
def branch_case(request):
    """(problem, branch) for the first 12 steps from every detected level of
    both builtins on one domain."""
    domain, options, window = BRANCH_CASES[request.param]
    cases = []
    for name in ("pitchfork-scalar", "so2-ring"):
        prob = build_problem(domain, builtin(name), **options)
        levels = detect_bifurcation(prob, window)
        assert levels
        for lam in levels:
            half = 0.25 * max(1.0, lam)
            seed = switch_branch(prob, lam)
            cases.append((prob, continue_branch(prob, seed, (lam - half, lam + half), max_steps=12)))
    return cases


class TestFixedSpace:
    """Branches are followed on the rows of the axial fixed-point subspace,
    and their full-space diagnostics come from the isotypic blocks."""

    def test_block_diagnostics_match_the_dense_jacobian(self, branch_case):
        for prob, branch in branch_case:
            weights = [multiplicity for _, multiplicity in continuation._isotypic_rows(prob)]
            assert len(branch.points) > 5
            for bp in branch.points:
                J = jacobian(prob, bp.c, bp.lam)
                dense = _dense_min_offsym_singular(prob, bp.c, J)
                assert abs(bp.min_offsym_singular - dense) <= 1e-12 * np.linalg.norm(J, 1)
                # the block counts add up to the full-space Morse index
                Q = _dense_offsym_complement(prob, bp.c)
                M = Q.T @ J @ Q
                vals = np.linalg.eigvalsh(0.5 * (M + M.T))
                morse = int(np.sum(vals < -continuation._MORSE_ZERO_TOL))
                assert len(bp.block_morse_index) == len(weights)
                assert np.dot(weights, bp.block_morse_index) == morse

    def test_points_solve_the_full_problem_off_the_subspace(self, branch_case):
        for prob, branch in branch_case:
            fixed = continuation._isotypic_rows(prob)[0][0]
            off = np.ones(prob.n_funcs, bool)
            off[fixed] = False
            for bp in branch.points:
                assert bp.c.size == prob.n_dof
                assert np.all(bp.c.reshape(prob.n_funcs, prob.p)[off] == 0)
                r = assemble_residual(prob, bp.c, bp.lam)
                assert np.linalg.norm(r) <= 10 * continuation.NEWTON_TOL

    def test_no_full_space_matrix_in_switch_or_continue(self, sphere12_ring, monkeypatch):
        prob = sphere12_ring
        levels = detect_bifurcation(prob, (0.5, 8.0))
        largest = max(rows.size for rows, _ in continuation._isotypic_rows(prob)) * prob.p
        assert largest == 24 < prob.n_dof == 288
        widths = {"jacobian": [], "solve": [], "svd": [], "eigvalsh": [], "eigh": []}

        def spy(key, fn):
            def wrapped(*args, **kwargs):
                if key == "jacobian":
                    out = fn(*args, **kwargs)
                    widths[key].append(out.shape[1])
                    return out
                widths[key].append(max(np.shape(args[0])))
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            continuation, "_assemble_jacobian", spy("jacobian", continuation._assemble_jacobian)
        )
        for key in ("solve", "svd", "eigvalsh", "eigh"):
            monkeypatch.setattr(continuation.np.linalg, key, spy(key, getattr(np.linalg, key)))
        for lam in levels:
            seed = switch_branch(prob, lam)
            continue_branch(prob, seed, (lam - 0.5, lam + 0.5), max_steps=20)
        assert all(widths.values())
        # the bordered systems add the lambda column and one multiplier per
        # pinned component generator to the zonal block
        borders = 1 + len(prob.spec.action.generators())
        assert max(widths.pop("solve")) <= largest + borders
        assert max(max(w) for w in widths.values()) <= largest

    def test_rotated_or_trivial_seed_is_rejected(self, circle_ring):
        # continue_branch follows switch_branch seeds: a seed rotated off the
        # reflection-even rows, or one without a bifurcation level, is an
        # input error and no continuation runs
        prob = circle_ring
        seed = switch_branch(prob, 1.0)
        bp = seed.points[0]
        turned = dataclasses.replace(bp, c=apply_group_element(prob, bp.c, domain_angle=0.3))
        with pytest.raises(ValueError, match="off the axial fixed-point subspace"):
            continue_branch(prob, Branch(points=[turned], origin=seed.origin), (0.9, 1.3))
        with pytest.raises(ValueError, match="origin must be"):
            continue_branch(prob, Branch(points=[bp], origin=("trivial", None)), (0.9, 1.3))
        assert len(continue_branch(prob, seed, (0.9, 1.3), max_steps=8).points) > 1


def _record_blocks(monkeypatch):
    """Spy on _make_point: one record (space, c, lam, point, assembled) per
    branch point, with assembled the indices k >= 1 of the isotypic blocks
    it assembled from their tables (_Block.E)."""
    records, tables = [], []
    make, assemble = continuation._make_point, continuation._assemble_jacobian

    def spy_assemble(E, weights, beta, H):
        tables.append(E)
        return assemble(E, weights, beta, H)

    def spy_make(space, *args):
        tables.clear()
        bp, J = make(space, *args)
        assembled = {k for k, block in enumerate(space.blocks) if any(E is block.E for E in tables)}
        records.append((space, *args[:2], bp, assembled))
        return bp, J

    monkeypatch.setattr(continuation, "_assemble_jacobian", spy_assemble)
    monkeypatch.setattr(continuation, "_make_point", spy_make)
    return records


def _block_spectrum(space, c, lam, k):
    """Off-symmetry eigenvalues of isotypic block k at the coefficients c of
    space.problem, assembled as a branch point assembles it (_Block.jacobian)."""
    H = continuation._nodal_hessian(space.problem, c, lam)
    pins = continuation._pinning_rows(space.full, space.lift(c))
    block = space.blocks[k]
    return continuation._offsym_eigenvalues(pins[:, block.idx], block.jacobian(H))


class TestBlockSkip:
    """_make_point skips an isotypic block k >= 1 when Weyl's bound
    min beta_k - h g_k puts its whole spectrum above max(0, mu)."""

    @pytest.mark.parametrize("name", ["pitchfork-scalar", "so2-ring"])
    def test_skipped_blocks_are_certified(self, name, monkeypatch):
        # every point of the verify branches on S^2 at truncation 12: each
        # skipped block, assembled here, has no off-symmetry eigenvalue at or
        # below max(0, min_offsym_singular), so it counts 0 and cannot lower
        # the minimum
        prob = build_problem(sphere(3), builtin(name), truncation=12)
        records = _record_blocks(monkeypatch)
        levels = detect_bifurcation(prob, (0.5, 8.0))
        assert len(levels) == 2
        for lam in levels:
            limits = (0.75 * lam, 1.25 * lam)
            continue_branch(prob, switch_branch(prob, lam), limits, max_steps=80, ds_max=0.05)
        assert len(records) > 90
        skipped = 0
        for space, c, lam, bp, assembled in records:
            assert len(space.blocks) == 12
            for k in range(1, len(space.blocks)):
                if k in assembled:
                    continue
                skipped += 1
                ev = _block_spectrum(space, c, lam, k)
                assert bp.block_morse_index[k] == 0
                assert np.min(ev) > max(0.0, bp.min_offsym_singular)
        # most m >= 1 blocks are certified, which is what the skip saves
        assert skipped > 0.6 * 11 * len(records)

    @pytest.mark.parametrize("shift", [0.0, 40.0, -40.0])
    def test_point_equals_every_block_assembled(self, shift, monkeypatch):
        # the skip reads mu from the blocks computed before it: with the
        # first block shifted far from zero, its smallest modulus is large and
        # the m >= 1 blocks with a positive bound below it must still be
        # assembled; the point's diagnostics equal those of every block, bit
        # for bit, and the Jacobian it returns is the first block
        prob = build_problem(sphere(3), builtin("pitchfork-scalar"), truncation=12)
        lam = 2.0
        branch = continue_branch(prob, switch_branch(prob, lam), (1.5, 2.5), max_steps=12)
        space = continuation._subspace(prob)
        assemble = continuation._assemble_jacobian

        def shifted(E, weights, beta, H):
            J = assemble(E, weights, beta, H)
            return J + shift * np.eye(J.shape[0]) if E is space.blocks[0].E else J

        for bp in branch.points[:: len(branch.points) // 4]:
            c = bp.c[space.idx]
            J = jacobian(space.problem, c, bp.lam) + shift * np.eye(space.problem.n_dof)
            pins = continuation._pinning_rows(prob, bp.c)
            spectra = [continuation._offsym_eigenvalues(pins[:, space.idx], J)]
            spectra += [_block_spectrum(space, c, bp.lam, k) for k in range(1, len(space.blocks))]
            with monkeypatch.context() as m:
                m.setattr(continuation, "_assemble_jacobian", shifted)
                point, J0 = continuation._make_point(space, c, bp.lam, 0.0)
            assert np.array_equal(J0, J)
            assert point.min_offsym_singular == min(float(np.min(np.abs(ev))) for ev in spectra)
            assert point.block_morse_index == tuple(
                int(np.count_nonzero(ev < -continuation._MORSE_ZERO_TOL)) for ev in spectra
            )

    def test_blocks_with_negative_eigenvalues_are_computed(self, monkeypatch):
        # pitchfork-scalar on S^2 from lambda = 12 up to 15: the m = 1, 2, 3
        # blocks have beta = 2, 6, 12 < lambda and negative eigenvalues, so
        # the bound cannot certify them; every block with a dense off-symmetry
        # eigenvalue below zero is assembled, and the counts match the
        # full-space Jacobian block by block and in the weighted sum; at
        # ds_max 0.2, which takes more than 20 points to the limit
        prob = build_problem(sphere(3), builtin("pitchfork-scalar"), truncation=12)
        records = _record_blocks(monkeypatch)
        (lam_star,) = detect_bifurcation(prob, (11.0, 13.0))
        seed = switch_branch(prob, lam_star)
        branch = continue_branch(prob, seed, (9.0, 15.0), max_steps=40, ds_max=0.2)
        assert branch.termination == "lambda-limit" and branch.points[-1].lam > 14.5
        weights = [multiplicity for _, multiplicity in continuation._isotypic_rows(prob)]
        assert len(records) == len(branch.points) > 20
        for space, c, lam, bp, assembled in records:
            J = jacobian(prob, bp.c, bp.lam)
            pins = continuation._pinning_rows(prob, bp.c)
            dense = []
            for block in space.blocks:
                idx = block.idx
                ev = continuation._offsym_eigenvalues(pins[:, idx], J[np.ix_(idx, idx)])
                dense.append(int(np.count_nonzero(ev < -continuation._MORSE_ZERO_TOL)))
            assert dense[1:4] == [2, 1, 1] and not any(dense[4:])
            assert {k for k in range(1, len(dense)) if dense[k]} <= assembled
            assert list(bp.block_morse_index) == dense
            Q = _dense_offsym_complement(prob, bp.c)
            M = Q.T @ J @ Q
            morse = int(np.sum(np.linalg.eigvalsh(0.5 * (M + M.T)) < -continuation._MORSE_ZERO_TOL))
            assert np.dot(weights, bp.block_morse_index) == morse
            assert abs(bp.min_offsym_singular - _dense_min_offsym_singular(prob, bp.c, J)) <= (
                1e-12 * np.linalg.norm(J, 1)
            )


def _assert_reduced_rule_matches_the_full_rule(prob, branch, sup_rtol):
    """At every point of a branch and at a perturbed point of the same
    fixed-point rows, the restricted problem on its reduced rule against the
    same rows on the full rule: residual, Jacobian and sup deviation, and
    every isotypic block as the branch path assembles it (_Block.jacobian:
    on the disk by the sum-factorized kernel) against the full-space
    Jacobian on its rows."""
    space = continuation._subspace(prob)
    sub = space.problem
    fixed = continuation._isotypic_rows(prob)[0][0]
    ref = dataclasses.replace(prob, E=prob.E[fixed], beta=prob.beta[fixed], rotation_generators=())
    rng = np.random.default_rng(5)
    assert len(branch.points) > 5
    for bp in branch.points:
        c = bp.c[space.idx]
        for x in (c, c + 0.05 * rng.normal(size=c.size)):
            r = assemble_residual(sub, x, bp.lam)
            assert np.max(np.abs(r - assemble_residual(ref, x, bp.lam))) <= 1e-13
            J = jacobian(sub, x, bp.lam)
            J_ref = jacobian(ref, x, bp.lam)
            assert np.max(np.abs(J - J_ref)) <= 1e-12 * np.linalg.norm(J_ref, 1)
            sup = ref.sup_deviation(x)
            assert abs(sub.sup_deviation(x) - sup) <= sup_rtol * sup
        H = continuation._nodal_hessian(sub, c, bp.lam)
        J_full = jacobian(prob, bp.c, bp.lam)
        assert len(space.blocks) > 1
        for block in space.blocks:
            assert block.E.shape[1] == sub.quad.weights.size
            dense = J_full[np.ix_(block.idx, block.idx)]
            assert np.max(np.abs(block.jacobian(H) - dense)) <= 1e-12 * np.linalg.norm(J_full, 1)


@pytest.fixture(
    scope="module",
    params=[(cut, name) for cut in (60.0, 200.0) for name in ("pitchfork-scalar", "so2-ring")],
    ids=lambda param: f"disk-{param[0]:g}-{param[1]}",
)
def disk_case(request):
    """(problem, subspace) on the disk, where the sum-factorized kernel
    assembles every block."""
    cutoff, name = request.param
    prob = build_problem(ball(2), builtin(name), beta_cutoff=cutoff)
    return prob, continuation._subspace(prob)


class TestBlockKernel:
    """On the disk every block of a branch Jacobian, the reflection-even
    rows' and the sin rows', comes from the sum-factorized kernel
    (_factored_block); the dense assembly on the block's table and the dense
    full-space jacobian are its references."""

    def test_blocks_match_the_dense_assembly(self, disk_case):
        # at c = 0 and at a random c of the subspace, at two lambda: each
        # block is what _Block.jacobian returns, bitwise symmetric, and within 1e-13
        # |J|_1 of the dense block on its table and of the full-space
        # Jacobian on its rows (measured: 4.0e-16)
        prob, space = disk_case
        sub = space.problem
        rng = np.random.default_rng(11)
        assert len(space.blocks) == 2
        assert all(block.kernel is not None for block in space.blocks)
        for c in (np.zeros(sub.n_dof), 0.3 * rng.normal(size=sub.n_dof) / np.sqrt(sub.n_dof)):
            for lam in (1.5, 7.5):
                H = continuation._nodal_hessian(sub, c, lam)
                J_full = jacobian(prob, space.lift(c), lam)
                for block in space.blocks:
                    J = continuation._factored_block(block, H)
                    assert np.array_equal(block.jacobian(H), J)
                    assert np.array_equal(J, J.T)
                    dense = continuation._assemble_jacobian(block.E, block.weights, block.beta, H)
                    bound = 1e-13 * np.linalg.norm(dense, 1)
                    assert np.max(np.abs(J - dense)) <= bound
                    assert np.max(np.abs(J - J_full[np.ix_(block.idx, block.idx)])) <= bound
                first = jacobian(sub, c, lam)
                bound = 1e-13 * np.linalg.norm(first, 1)
                assert np.max(np.abs(continuation._branch_jacobian(space, c, lam) - first)) <= bound

    def test_rows_are_radial_times_angular_factors(self, disk_case):
        # what the kernel reads, bit for bit: on the half-turn rule the cos
        # and sin rows of order l are R(r) cos(l theta) and R(r) sin(l theta)
        # with R the cos row at theta = 0, every reflection-even row of the
        # first block (l = 0 for a zonal row) is R(r) cos(l theta) with R
        # its value at theta = 0, and the weights are w_r w_theta; a basis or
        # rule that is not separable fails here
        prob, space = disk_case
        sub = space.problem
        theta = sub.quad.points[-1]
        n_r = int(np.count_nonzero(theta == 0.0))
        n_t = theta.size // n_r
        angles = theta[:n_t]
        assert n_r > 1 and np.array_equal(theta.reshape(n_r, n_t), np.tile(angles, (n_r, 1)))
        weights = sub.quad.weights.reshape(n_r, n_t)
        assert np.array_equal(weights, weights[:, :1] * (weights[0] / weights[0, 0])[None, :])
        cols = continuation._half_turn(prob.quad)[0]
        sin_rows = continuation._isotypic_rows(prob)[1][0]
        pairs = continuation._angular_pairs(prob.eigens)
        assert [sin_row for _, sin_row, _ in pairs] == sin_rows.tolist()
        sin_table = space.blocks[1].E.reshape(sin_rows.size, n_r, n_t)
        for k, (cos_row, _, l) in enumerate(pairs):
            cos_values = prob.E[cos_row, cols].reshape(n_r, n_t)
            R = cos_values[:, :1]
            assert np.array_equal(cos_values, R * np.cos(l * angles)[None, :])
            assert np.array_equal(sin_table[k], R * np.sin(l * angles)[None, :])
        even_rows = continuation._isotypic_rows(prob)[0][0]
        orders = np.repeat([e.angular_degree for e in prob.eigens],
                           [e.multiplicity for e in prob.eigens])[even_rows]
        assert set(orders.tolist()) >= {0, 1}
        even_table = space.blocks[0].E.reshape(even_rows.size, n_r, n_t)
        for values, l in zip(even_table, orders):
            R = values[:, :1]
            assert np.array_equal(values, R * np.cos(l * angles)[None, :])

    def test_branch_points_match_the_dense_full_space(self, disk_ring):
        # so2-ring from 9.33, where the sin rows hold the smallest modulus
        # at some points: each point's value is the dense full-space one to
        # rounding (measured: 4.8e-14 relative to the dense blocks)
        prob = disk_ring
        lam_star = detect_bifurcation(prob, (8.0, 10.0), steps=60)[0]
        assert abs(lam_star - 9.3284) < 1e-3
        limits = (0.7 * lam_star, 1.3 * lam_star)
        branch = continue_branch(prob, switch_branch(prob, lam_star), limits, max_steps=20)
        space = continuation._subspace(prob)
        in_sin_rows = 0
        for bp in branch.points:
            J = jacobian(prob, bp.c, bp.lam)
            dense = _dense_min_offsym_singular(prob, bp.c, J)
            assert abs(bp.min_offsym_singular - dense) <= 1e-12 * np.linalg.norm(J, 1)
            ev = _block_spectrum(space, bp.c[space.idx], bp.lam, 1)
            in_sin_rows += bool(ev.size) and np.min(np.abs(ev)) == bp.min_offsym_singular
        assert in_sin_rows > 0

    @pytest.mark.parametrize("fixture", ["circle_ring", "circle_pitchfork", "sphere12_ring"])
    def test_one_radius_or_the_sphere_keeps_the_dense_blocks(self, fixture, request):
        # the circle's rule has one radius and the 2-sphere's column one
        # angle: nothing to factor, every block dense from its table, and
        # the first block is the dense jacobian of the branch problem, bit
        # for bit
        space = continuation._subspace(request.getfixturevalue(fixture))
        assert len(space.blocks) > 1 and all(block.kernel is None for block in space.blocks)
        sub = space.problem
        c = 0.1 * np.random.default_rng(3).normal(size=sub.n_dof)
        assert np.array_equal(continuation._branch_jacobian(space, c, 1.5), jacobian(sub, c, 1.5))


class TestReducedRule:
    """On the 2-sphere the branch problem and every isotypic block are
    integrated on one longitude column of the rule; on the circle and the
    disk on the half-turn theta in [0, pi] of the angular rule."""

    def test_column_rule_matches_the_full_rule(self, sphere12_ring):
        # the m >= 1 blocks from their column tables have half weight; the
        # sup deviation over the column is the full rule's bit for bit
        prob = sphere12_ring
        space = continuation._subspace(prob)
        n_theta = np.unique(prob.quad.points[0]).size
        assert space.problem.quad.weights.size == n_theta == 26 < prob.quad.weights.size
        branch = continue_branch(prob, switch_branch(prob, 2.0), (1.7, 2.2), max_steps=8)
        _assert_reduced_rule_matches_the_full_rule(prob, branch, 0.0)

    @pytest.mark.parametrize(
        "fixture,window",
        [
            ("circle_ring", (0.5, 4.0)),
            ("disk_pitchfork", (0.5, 12.0)),
            # p = 2: the off-diagonal component blocks are symmetrized
            ("disk_ring", (0.5, 12.0)),
        ],
    )
    def test_half_turn_rule_matches_the_full_rule(self, fixture, window, request):
        # the sin-row block is even in theta too; mirror nodes round apart,
        # so the sup deviation matches to rounding
        prob = request.getfixturevalue(fixture)
        space = continuation._subspace(prob)
        theta = prob.quad.points[-1]
        rings = np.count_nonzero(theta == 0.0)
        n_theta = theta.size // rings
        assert space.problem.quad.weights.size == rings * (n_theta // 2 + 1)
        assert np.all(space.problem.quad.points[-1] <= math.pi)
        lam_star = detect_bifurcation(prob, window, steps=60)[0]
        limits = (lam_star - 0.3, lam_star + 0.6)
        branch = continue_branch(prob, switch_branch(prob, lam_star), limits, max_steps=8)
        _assert_reduced_rule_matches_the_full_rule(prob, branch, 1e-14)

    @pytest.mark.parametrize(
        "fixture,window,nodes",
        [("sphere12_ring", (0.5, 8.0), 26), ("disk200_ring", (0.5, 6.25), 1856)],
    )
    def test_switch_and_continue_evaluate_one_column(self, fixture, window, nodes, request):
        # every grad and hess call of the branch switch and the continuation
        # sees the nodes of the reduced rule: on S^2 truncation 12 the 26 of
        # the column rule, not the 1352 of the full one; on the disk at
        # beta <= 200 the 64 x 29 of the half-turn, not the 64 x 56
        prob = request.getfixturevalue(fixture)
        assert nodes < prob.quad.weights.size
        levels = detect_bifurcation(prob, window)
        nodes_seen = {"grad": [], "hess": []}

        def spy(key, fn):
            def wrapped(u, lam):
                nodes_seen[key].append(np.asarray(u).size // prob.p)
                return fn(u, lam)

            return wrapped

        spec = dataclasses.replace(
            prob.spec, grad=spy("grad", prob.spec.grad), hess=spy("hess", prob.spec.hess)
        )
        spied = dataclasses.replace(prob, spec=spec)
        assert levels
        for lam in levels:
            seed = switch_branch(spied, lam)
            continue_branch(spied, seed, (lam - 0.5, lam + 0.5), max_steps=20)
        assert nodes_seen["grad"] and nodes_seen["hess"]
        assert set(nodes_seen["grad"] + nodes_seen["hess"]) == {nodes}


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

    def test_ball3_generators_are_an_exact_so3_representation(self):
        # the angular group of B^3 is that of S^2, read from domain.dim
        eigens = spectral.ball_neumann_spectrum(3, 30.0)
        generators = continuation._rotation_generators(ball(3), eigens)
        assert len(generators) == 3
        Tz, Tx, Ty = generators
        B = np.diag(np.repeat([e.value for e in eigens], [e.multiplicity for e in eigens]))
        for T in (Tz, Tx, Ty):
            assert np.array_equal(T, -T.T)
            assert np.array_equal(T @ B, B @ T)
        for A, Bm, C in ((Tx, Ty, Tz), (Ty, Tz, Tx), (Tz, Tx, Ty)):
            assert np.max(np.abs(A @ Bm - Bm @ A - C)) <= 1e-12

    @pytest.mark.parametrize(
        "domain,eigens",
        [
            (sphere(2), spectral.sphere_spectrum(2, 16)),
            (sphere(3), spectral.sphere_spectrum(3, 12)),
            (ball(2), spectral.ball_neumann_spectrum(2, 200.0)),
            (ball(3), spectral.ball_neumann_spectrum(3, 30.0)),
        ],
        ids=["circle", "sphere2-12", "disk-200", "ball3-30"],
    )
    def test_angular_pairs_follow_the_angular_group(self, domain, eigens):
        # the pairs read from the eigenspace layout are those of the angular
        # group: for N = 2 one (cos, sin) pair of order l per eigenspace, for
        # N = 3 the zonal row, then the pairs of m = 1, ..., l
        expected, row = [], 0
        for e in eigens:
            l = e.angular_degree
            if domain.dim == 2 and l > 0:
                expected.append((row, row + 1, l))
            if domain.dim == 3:
                expected += [(row + 2 * m - 1, row + 2 * m, m) for m in range(1, l + 1)]
            row += e.multiplicity
        assert continuation._angular_pairs(eigens) == expected
        if domain == ball(3):
            assert len(expected) == 6 and expected[0] == (2, 3, 1)

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
        # reflection-even rows, then sin rows: the cos mode of the seed is
        # the one negative direction
        assert doc["points"][0]["block_morse_index"] == [1, 0]
        doc = continuation.branch_to_json(seed, include_coefficients=True)
        assert len(doc["points"][0]["coefficients"]) == circle_pitchfork.n_dof

    def test_build_problem_validation(self):
        with pytest.raises(ValueError):
            build_problem(ball(3), builtin("pitchfork-scalar"))

    @pytest.mark.parametrize("domain", [sphere(2), sphere(3), ball(2)], ids=lambda d: d.label)
    @pytest.mark.parametrize(
        "options,name",
        [
            ({"truncation": 0}, "truncation"),
            ({"truncation": -3}, "truncation"),
            ({"beta_cutoff": 0.0}, "beta_cutoff"),
            ({"beta_cutoff": -10.0}, "beta_cutoff"),
            ({"beta_cutoff": math.inf}, "beta_cutoff"),
            ({"beta_cutoff": math.nan}, "beta_cutoff"),
        ],
    )
    def test_build_problem_rejects_bad_sizes(self, domain, options, name):
        # neither falls back to a default nor trims the basis from its top
        with pytest.raises(ValueError, match=f"^{name} must"):
            build_problem(domain, builtin("pitchfork-scalar"), **options)

    @pytest.mark.parametrize("domain", [sphere(2), sphere(3)], ids=lambda d: d.label)
    def test_beta_cutoff_on_a_sphere_is_rejected(self, domain):
        # the cutoff sets only the disk catalog; on a sphere it was ignored
        message = f"^beta_cutoff sets only the disk catalog, not the one on {domain.label}$"
        with pytest.raises(ValueError, match=message):
            build_problem(domain, builtin("pitchfork-scalar"), beta_cutoff=500.0)

    @pytest.mark.parametrize("domain", [sphere(2), sphere(3), ball(2)], ids=lambda d: d.label)
    def test_build_problem_smallest_truncation(self, domain):
        prob = build_problem(domain, builtin("pitchfork-scalar"), truncation=1)
        assert prob.n_funcs == 1 and prob.beta.tolist() == [0.0]

    @pytest.mark.parametrize(
        "options,message",
        [
            ({"truncation": 12}, "at most 11, the entries of the disk catalog beta <= 60, got 12"),
            (
                {"truncation": 33, "beta_cutoff": 200.0},
                "at most 32, the entries of the disk catalog beta <= 200, got 33",
            ),
        ],
        ids=["beta-60", "beta-200"],
    )
    def test_ball_truncation_past_the_catalog_is_rejected(self, options, message):
        # it used to build the whole catalog, the same problem for every N
        with pytest.raises(ValueError, match=f"^truncation must be {message}$"):
            build_problem(ball(2), builtin("so2-ring"), **options)

    @pytest.mark.parametrize("truncation", [1, 6, 11])
    def test_ball_truncation_cuts_the_default_catalog(self, truncation):
        # the first N entries of the beta <= 60 catalog on the quadrature
        # of their largest angular degree, as before the bound
        spec = builtin("so2-ring")
        prob = build_problem(ball(2), spec, truncation=truncation)
        catalog = spectral.ball_neumann_spectrum(2, 60.0)
        assert len(catalog) == 11
        eigens = catalog[:truncation]
        max_l = max(e.angular_degree for e in eigens)
        quad = spectral.default_quadrature(ball(2), (spec.grad_degree + 1) * max_l)
        assert prob.eigens == eigens
        beta = np.repeat([e.value for e in eigens], [e.multiplicity for e in eigens])
        assert np.array_equal(prob.beta, beta)
        assert np.array_equal(prob.E, spectral.basis(ball(2), eigens, quad.points))
        assert np.array_equal(prob.quad.weights, quad.weights)
        if truncation == len(catalog):
            whole = build_problem(ball(2), spec)
            assert np.array_equal(prob.E, whole.E) and np.array_equal(prob.beta, whole.beta)


RECORDED_DISK200_HEX = {
    "level": ["0x1.b1ea226b51ebap+1"],
    "branch": [
        "0x1.b2a459223baa2p+1", "0x1.b346934e04b58p+1", "0x1.b475492f02700p+1",
        "0x1.b69de301b5f30p+1", "0x1.ba6bf5152b125p+1", "0x1.c0d505572bc5dp+1",
        "0x1.cb21af21f808fp+1", "0x1.db034148eac83p+1", "0x1.f180e8fed0d92p+1",
        "0x1.046e07cfd545cp+2", "0x1.105f41fd23c20p+2",
    ],
}

# the branch as recorded when the Bessel values below x = 12 came from the
# ascending series, each entry summed on its own
SERIES_BESSEL_DISK200_BRANCH_HEX = [
    "0x1.b2a459223ba94p+1", "0x1.b346934e04b91p+1", "0x1.b475492f027f9p+1",
    "0x1.b69de301b6210p+1", "0x1.ba6bf5152bb15p+1", "0x1.c0d505572c31ap+1",
    "0x1.cb21af21f7e3ep+1", "0x1.db034148e92cap+1", "0x1.f180e8fecd5fcp+1",
    "0x1.046e07cfd2d2dp+2", "0x1.105f41fd23c20p+2",
]

# the branch as recorded when its first block, the Jacobian of every
# tangent, corrector and seed, was assembled dense over the half-turn rule
DENSE_FIRST_BLOCK_DISK200_BRANCH_HEX = [
    "0x1.b2a459223baa1p+1", "0x1.b346934e04b44p+1", "0x1.b475492f0261ap+1",
    "0x1.b69de301b5a37p+1", "0x1.ba6bf5152b068p+1", "0x1.c0d5055729f0fp+1",
    "0x1.cb21af21f68b0p+1", "0x1.db034148e7b1cp+1", "0x1.f180e8feca91dp+1",
    "0x1.046e07cfd1a3ep+2", "0x1.105f41fd23c20p+2",
]

# the branch as recorded before the potential was centred at u0, when its
# derivatives were evaluated from F's own monomials at u0 + v
UNCENTRED_DISK200_BRANCH_HEX = [
    "0x1.b2a459223baaap+1", "0x1.b346934e04b8ep+1", "0x1.b475492f02754p+1",
    "0x1.b69de301b5dc3p+1", "0x1.ba6bf5152bca7p+1", "0x1.c0d505572bdc8p+1",
    "0x1.cb21af21f7b35p+1", "0x1.db034148e9680p+1", "0x1.f180e8fecb590p+1",
    "0x1.046e07cfd1e56p+2", "0x1.105f41fd23c20p+2",
]

# the branch as recorded when the corrector took plain chord steps on its
# reused matrix, each cutting the residual norm fourfold
CHORD_DISK200_BRANCH_HEX = [
    "0x1.b2a4592237911p+1", "0x1.b346934e17803p+1", "0x1.b475492f71e83p+1",
    "0x1.b69de301e0907p+1", "0x1.ba6bf5151fbbdp+1", "0x1.c0d5055730a5bp+1",
    "0x1.cb21af222b667p+1", "0x1.db034148faaddp+1", "0x1.f180e8fed8b7ap+1",
    "0x1.046e07cfdb8eap+2", "0x1.105f41fd2d330p+2",
]

# the branch as recorded when the Neumann roots were bisected to 1e-12
BISECTION_DISK200_BRANCH_HEX = [
    "0x1.b2a4592237203p+1", "0x1.b346934e170ddp+1", "0x1.b475492f71755p+1",
    "0x1.b69de301e0335p+1", "0x1.ba6bf5151f9bfp+1", "0x1.c0d505572fc1fp+1",
    "0x1.cb21af222af86p+1", "0x1.db034148fa998p+1", "0x1.f180e8fedadc6p+1",
    "0x1.046e07cfdc614p+2", "0x1.105f41fd2e9edp+2",
]

# the branch on the half-turn rule as recorded when the switch took full
# Newton steps and a stalled chord restarted full Newton from the predictor
RESTART_DISK200_BRANCH_HEX = [
    "0x1.b2a45921903f8p+1", "0x1.b346934e0aa8cp+1", "0x1.b475492f54b3dp+1",
    "0x1.b69de30172309p+1", "0x1.ba6bf514ffab3p+1", "0x1.c0d505570b3f1p+1",
    "0x1.cb21af2202a39p+1", "0x1.db034148cdf6fp+1", "0x1.f180e8feaf5e6p+1",
    "0x1.046e07cfc4db4p+2", "0x1.105f41fd166a4p+2",
]

# the branch as recorded on the full angular rule (FULL_RULE_NEWTON_HEX),
# with that restarting corrector
FULL_RULE_DISK200_BRANCH_HEX = [
    "0x1.b2a45921903bfp+1", "0x1.b346934e0aac5p+1", "0x1.b475492f54c0cp+1",
    "0x1.b69de30172367p+1", "0x1.ba6bf514ffcd8p+1", "0x1.c0d505570ba56p+1",
    "0x1.cb21af220332fp+1", "0x1.db034148cf62bp+1", "0x1.f180e8feaf62ep+1",
    "0x1.046e07cfc48b1p+2", "0x1.105f41fd1614fp+2",
]


class TestDiskBuild:
    def test_one_catalog_and_no_per_node_bessel_calls(self, monkeypatch):
        calls = {"ball_neumann_spectrum": 0, "neumann_roots": 0, "_sweep": 0}

        def count(module, name):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        count(spectral, "ball_neumann_spectrum")
        count(bessel, "neumann_roots")
        count(bessel, "_sweep")
        build_problem(ball(2), builtin("so2-ring"), beta_cutoff=200.0)
        assert calls["ball_neumann_spectrum"] == 1
        assert calls["neumann_roots"] == 1
        # one sweep of Miller's recurrence for the table on the root grid,
        assert calls["_sweep"] == (
            1
            # one per Newton step of the roots (three from the regula-falsi
            # points; a bisection to 1e-12 takes 37 levels),
            + 3
            # and one for the basis: the norms J_l(x) and the radial rows
            # J_l(x r) in one call
            + 1
        )

    def test_so2_ring_beta_200_branch_matches_recorded_bits(self, monkeypatch):
        # the disk workload's so2-ring pipeline at beta <= 200: the level
        # detected in (0.5, 6.25), then the branch from it to lambda* -/+
        # lambda*/4 at ds_max = 0.2 on the fixed growth (fixed_growth; 11
        # points, terminated at the lambda limit), as float.hex,
        # its last point the first past the limit, which continue_branch now
        # replaces by the point on the limit:
        # the level as recorded with one bisection level per Bessel call and
        # one Bessel call per basis function, the branch on the half-turn rule
        # with the Broyden-updated corrector and the Newton-refined Neumann
        # roots and the potential centred at u0 and every Jacobian from the
        # sum-factorized kernel and every Bessel value from one Miller sweep,
        # within 1e-11 |lambda| of the branch on the series Bessel values
        # (measured: 2.2e-12), of the branch on the dense first block
        # (measured: 3.3e-12) and of the branch before the centring
        # (measured: 3.0e-12) and within 1e-9
        # |lambda| of the branch the chord corrector computed and of the one
        # its restarting predecessor computed; the chord branch was within
        # 1e-11 |lambda| of the branch on the bisected roots, the restarting
        # one within 1e-11 |lambda| of the full rule's
        prob = build_problem(ball(2), builtin("so2-ring"), beta_cutoff=200.0)
        detected = detect_bifurcation(prob, (0.5, 6.25))
        assert [d.hex() for d in detected] == RECORDED_DISK200_HEX["level"]
        lam = detected[0]
        limits = (lam - 0.25 * lam, lam + 0.25 * lam)
        fixed_growth(monkeypatch)
        branch = continue_branch(prob, switch_branch(prob, lam), limits, ds_max=0.2)
        recorded = RECORDED_DISK200_HEX["branch"]
        _assert_ends_on_limit(branch, float.fromhex(recorded[-1]), limits)
        lams = [bp.lam for bp in branch.points[:-1]]
        _assert_near_recorded(lams, SERIES_BESSEL_DISK200_BRANCH_HEX[:-1], 1e-11)
        _assert_near_recorded(lams, DENSE_FIRST_BLOCK_DISK200_BRANCH_HEX[:-1], 1e-11)
        _assert_near_recorded(lams, UNCENTRED_DISK200_BRANCH_HEX[:-1], 1e-11)
        _assert_near_recorded(lams, CHORD_DISK200_BRANCH_HEX[:-1], 1e-9)
        _assert_near_recorded(lams, RESTART_DISK200_BRANCH_HEX[:-1], 1e-9)
        chord = [float.fromhex(h) for h in CHORD_DISK200_BRANCH_HEX]
        _assert_near_recorded(chord, BISECTION_DISK200_BRANCH_HEX, 1e-11)
        restart = [float.fromhex(h) for h in RESTART_DISK200_BRANCH_HEX]
        _assert_near_recorded(restart, FULL_RULE_DISK200_BRANCH_HEX, 1e-11)
        assert [lam.hex() for lam in lams] == recorded[:-1]


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
