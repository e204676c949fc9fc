"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line."""

import csv
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
from scipy import optimize, special

from symbif import continuation, euler_ring as er, predictor, spectral
from symbif.brouwer import Box, InconclusiveDegreeError, Interval, degree_1d, degree_nd
from symbif.cli import main
from symbif.potentials import builtin
from symbif.predictor import BallAlternative, RepresentationBlock, RepresentationDescriptor
from symbif.spectral import ball, sphere

from group_action import apply_group_element
from unit_ball import unit_ball


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_seconds:
        print(f"FAIL criterion {number}: {label} (runtime {elapsed:.1f}s over budget)")
        raise AssertionError(f"criterion {number} exceeded {budget_seconds}s ({elapsed:.1f}s)")
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def harmonic_count_oracle(n, l):
    def monos(deg):
        if deg < 0:
            return 0
        return sum(1 for _ in itertools.combinations_with_replacement(range(n), deg))

    return monos(l) - monos(l - 2)


def test_criterion_1_spectrum_oracles():
    with criterion(1, "spectrum oracles", 1.0):
        entries = spectral.sphere_spectrum(3, 6)
        for e in entries:
            assert e.multiplicity == harmonic_count_oracle(3, e.angular_degree)
            assert e.value == e.angular_degree * (e.angular_degree + 1)
        # disk Neumann roots vs an independent bisection oracle
        catalog = spectral.ball_neumann_spectrum(2, 140.0)
        for l in range(0, 4):
            g = lambda x: special.jvp(l, x)
            xs = np.linspace(1e-3, 12.0, 1200)
            vals = np.array([g(x) for x in xs])
            oracle_roots = [
                optimize.brentq(g, xs[i], xs[i + 1], xtol=1e-14)
                for i in range(len(xs) - 1)
                if vals[i] * vals[i + 1] < 0
            ][:3]
            base = 2 if l == 0 else 1
            mine = [
                e.value
                for e in catalog
                if e.angular_degree == l and e.radial_index >= base
            ][:3]
            assert len(mine) == 3
            for got, root in zip(mine, oracle_roots):
                assert abs(got - root * root) < 1e-8
        first_nonzero = min(e.value for e in catalog if e.value > 0)
        assert abs(first_nonzero - 3.3900) < 1e-3


def test_criterion_2_necessary_condition():
    with criterion(2, "necessary-condition consistency", 30.0):
        spec = builtin("pitchfork-scalar")
        prob = continuation.build_problem(sphere(2), spec)
        detected = continuation.detect_bifurcation(prob, (0.5, 9.5), steps=200)
        assert len(detected) == 3
        np.testing.assert_allclose(detected, [1.0, 4.0, 9.0], atol=1e-7)
        levels = predictor.lambda_set(spec, sphere(2), 10.0)
        assert len(levels) == len(detected)
        assert all(abs(d - l) <= 1e-7 for d, l in zip(detected, levels))

        degen = builtin("so2-ring-degenerate")
        assert predictor.predict(degen, sphere(2), 20.0) == []
        prob2 = continuation.build_problem(sphere(2), degen, truncation=10)
        assert continuation.detect_bifurcation(prob2, (0.1, 20.0), steps=150) == []


def test_criterion_3_sphere_branches(tmp_path, capsys):
    with criterion(3, "sphere global-bifurcation reproduction", 60.0):
        out = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--potential",
                "pitchfork-scalar",
                "--domain",
                "sphere",
                "--dim",
                "2",
                "--beta-cutoff",
                "10",
                "--window",
                "0.5:9.5",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "CONSISTENT"
        levels = {rec["lambda0"]: rec for rec in doc["levels"]}
        assert set(levels) == {1.0, 4.0, 9.0}
        for rec in levels.values():
            assert rec["detected_match"] is not None
            assert rec["branch"]["captured"]
            assert rec["branch"]["max_sup_norm"] > 1e-2
        with open(f"{out}.branch-1.csv") as fh:
            rows = list(csv.DictReader(fh))
        in_range = [r for r in rows if 1.03 <= float(r["lambda"]) <= 1.2]
        assert len(in_range) >= 2
        for r in in_range:
            lam = float(r["lambda"])
            law = math.sqrt(4.0 * (lam - 1.0) / 3.0)
            assert abs(float(r["sup_norm"]) - law) / law < 0.05


def test_criterion_4_ball_alternative():
    with criterion(4, "ball interval-alternative reproduction", 120.0):
        spec = builtin("pitchfork-scalar")
        cands = predictor.predict(spec, ball(2), 10.0)
        assert len(cands) == 2
        assert abs(cands[0].lambda0 - 3.3900) < 1e-3
        assert abs(cands[1].lambda0 - 9.3284) < 1e-3
        catalog = spectral.ball_neumann_spectrum(2, 10.0)
        radial = [e.value for e in catalog if e.multiplicity == 1 and e.value > 0]
        for c in cands:
            assert isinstance(c.guarantee, BallAlternative)
            assert all(abs(c.lambda0 - r) > 1e-6 for r in radial)
        prob = continuation.build_problem(ball(2), spec)
        for c in cands:
            lo, hi = c.guarantee.lo, c.guarantee.hi
            detected = continuation.detect_bifurcation(prob, (lo, hi), steps=80)
            assert detected, f"no detected level inside {lo}:{hi}"
            target = min(detected, key=lambda d: abs(d - c.lambda0))
            seed = continuation.switch_branch(prob, target)
            branch = continuation.continue_branch(
                prob, seed, (lo, hi), max_steps=40, ds_max=0.05
            )
            assert all(lo < bp.lam < hi for bp in branch.points)
            assert max(bp.sup_norm for bp in branch.points) > 1e-2


def test_criterion_5_degree_properties():
    with criterion(5, "Brouwer degree properties", 10.0):
        rng = np.random.default_rng(0)
        assert degree_1d(lambda x: x, Interval(-1, 1)) == 1
        assert degree_1d(lambda x: -x, Interval(-1, 1)) == -1
        assert degree_nd(*unit_ball(lambda x: x, 2)) == 1
        assert degree_nd(*unit_ball(lambda x: -x, 2)) == 1
        sq = lambda x: np.array([x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1]])
        assert degree_nd(*unit_ball(sq, 2)) == 2
        assert degree_nd(lambda x: x, Box((-1,) * 3, (1,) * 3)) == 1
        assert degree_nd(lambda x: -x, Box((-1,) * 3, (1,) * 3)) == -1
        prod = lambda x: np.array([0.5 * x[0] - x[0] ** 3, x[1], x[2]])
        assert degree_nd(prod, Box((-2,) * 3, (2,) * 3)) == -1

        # 2-D vs 3-D cross-checks on random polynomial maps
        done = 0
        while done < 20:
            coeffs = rng.normal(size=(2, 10))

            def f(x, coeffs=coeffs):
                u, v = x[0], x[1]
                mono = np.array(
                    [1.0, u, v, u * u, u * v, v * v, u**3, u * u * v, u * v * v, v**3]
                )
                return coeffs @ mono

            angles = np.linspace(0, 2 * np.pi, 128, endpoint=False)
            margin = min(
                np.linalg.norm(f(np.array([np.cos(t), np.sin(t)]))) for t in angles
            )
            if margin < 0.2:
                continue
            try:
                d2 = degree_nd(*unit_ball(f, 2))
            except InconclusiveDegreeError:
                continue
            g = lambda x, f=f: np.array([*f(x[:2]), x[2]])
            d3 = degree_nd(*unit_ball(g, 3))
            assert d2 == d3
            done += 1

        # scaling invariance on random admissible instances
        done = 0
        while done < 20:
            c = float(rng.uniform(0.1, 10.0))
            coeff = rng.normal(size=4)
            f = lambda x: coeff[0] + coeff[1] * x + coeff[2] * x * x + coeff[3] * x**3
            if abs(f(-1.5)) < 1e-2 or abs(f(1.5)) < 1e-2:
                continue
            assert degree_1d(lambda x: c * f(x), Interval(-1.5, 1.5)) == degree_1d(
                f, Interval(-1.5, 1.5)
            )
            done += 1


def test_criterion_6_euler_ring_properties():
    with criterion(6, "Euler-ring properties", 30.0):
        rng = np.random.default_rng(1)
        labels = [f"H{i}" for i in range(5)]
        targets = ["A", "B"]
        for _ in range(100):
            e = er.element("H", {lab: int(rng.integers(-4, 5)) for lab in labels})
            cmap = {lab: targets[int(rng.integers(2))] for lab in labels}
            pushed = er.push_forward(e, cmap, "G")
            assert sum(pushed.as_dict().values()) == sum(e.as_dict().values())

        table = er.MultiplicationTable.from_json(
            {
                "context": "Z2",
                "labels": ["G", "e"],
                "products": {"G|G": {"G": 1}, "G|e": {"e": 1}, "e|e": {"e": 2}},
            }
        )
        for _ in range(50):
            a = er.element("Z2", {"G": int(rng.integers(-4, 5)), "e": int(rng.integers(-4, 5))})
            b = er.element("Z2", {"G": int(rng.integers(-4, 5)), "e": int(rng.integers(-4, 5))})
            c = er.element("Z2", {"G": int(rng.integers(-4, 5)), "e": int(rng.integers(-4, 5))})
            assert er.add(a, b) == er.add(b, a)
            assert er.add(er.add(a, b), c) == er.add(a, er.add(b, c))
            assert er.star(er.unit("Z2"), a, table) == a
            assert er.star(a, b, table) == er.star(b, a, table)
            assert er.star(er.star(a, b, table), c, table) == er.star(
                a, er.star(b, c, table), table
            )

        for d in range(0, 7):
            blocks = tuple(
                RepresentationBlock(beta=1.0, copies=1, dimension=1, nontrivial=False)
                for _ in range(d)
            )
            deg = er.deg_minus_id(RepresentationDescriptor(blocks=blocks))
            assert er.scalar_unit_test(deg.exact_value) == (-1) ** d

        atom = er.SymbolicDegree.atom("H", 2)
        assert er.product_decision(-1, -1, atom, er.ATOM_ON_PLUS) is True
        assert er.product_decision(0, 0, atom, er.ATOM_ON_PLUS) is False
        assert er.product_decision(0, 2, atom, er.ATOM_ON_PLUS) is True


def test_criterion_7_galerkin_consistency():
    with criterion(7, "Galerkin linearization consistency", 60.0):
        rng = np.random.default_rng(2)
        cases = [
            continuation.build_problem(sphere(2), builtin("pitchfork-scalar")),
            continuation.build_problem(sphere(3), builtin("so2-ring"), truncation=6),
        ]
        for prob in cases:
            A = prob.spec.A
            p = prob.p
            for lam in rng.uniform(-5, 5, size=10):
                J = continuation.jacobian(prob, np.zeros(prob.n_dof), lam)
                expected = np.kron(np.diag(prob.beta), np.eye(p)) - lam * np.kron(
                    np.eye(prob.n_funcs), A
                )
                assert np.max(np.abs(J - expected)) < 1e-10
        states = 0
        while states < 20:
            prob = cases[states % 2]
            c = 0.3 * rng.normal(size=prob.n_dof)
            lam = rng.uniform(-2, 2)
            d = rng.normal(size=prob.n_dof)
            d /= np.linalg.norm(d)
            h = 1e-6
            fd = (
                continuation.assemble_residual(prob, c + h * d, lam)
                - continuation.assemble_residual(prob, c - h * d, lam)
            ) / (2 * h)
            J = continuation.jacobian(prob, c, lam)
            assert np.max(np.abs(J @ d - fd)) < 1e-6
            states += 1


def test_criterion_8_equivariance():
    with criterion(8, "residual equivariance", 30.0):
        rng = np.random.default_rng(3)
        for prob in (
            continuation.build_problem(sphere(2), builtin("so2-ring")),
            continuation.build_problem(sphere(3), builtin("so2-ring"), truncation=6),
        ):
            for _ in range(5):
                c = 0.4 * rng.normal(size=prob.n_dof)
                lam = rng.uniform(-2, 2)
                alpha = rng.uniform(0, 2 * np.pi)
                ang = rng.uniform(0, 2 * np.pi)
                gam = np.array(
                    [[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]]
                )
                moved = apply_group_element(
                    prob, c, domain_angle=alpha, gamma=gam
                )
                lhs = continuation.assemble_residual(prob, moved, lam)
                rhs = apply_group_element(
                    prob,
                    continuation.assemble_residual(prob, c, lam),
                    domain_angle=alpha,
                    gamma=gam,
                    include_shift=False,
                )
                assert np.max(np.abs(lhs - rhs)) <= 1e-9
