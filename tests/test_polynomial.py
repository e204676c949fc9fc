from fractions import Fraction

import numpy as np
import pytest

from symbif.polynomial import Polynomial, parse_polynomial


def test_parse_and_evaluate():
    p = parse_polynomial("lambda*u1^2/2 - u1^4/4", ["u1", "lambda"])
    u = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(p(u, 0.7), 0.7 * u**2 / 2 - u**4 / 4, atol=1e-14)


def test_differentiation_matches_pitchfork_gradient():
    p = parse_polynomial("lambda*u1^2/2 - u1^4/4", ["u1", "lambda"])
    g = p.diff(0)
    u = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(g(u, 0.7), 0.7 * u - u**3, atol=1e-14)
    h = g.diff(0)
    np.testing.assert_allclose(h(u, 0.7), 0.7 - 3 * u**2, atol=1e-14)


def test_rational_coefficients_are_exact():
    p = parse_polynomial("1/3*u1 + u1/6", ["u1"])
    assert p.terms[(1,)] == Fraction(1, 2)


def test_decimal_literals():
    p = parse_polynomial("0.5*u1^2", ["u1"])
    assert p.terms[(2,)] == Fraction(1, 2)


def test_nested_parentheses_and_signs():
    p = parse_polynomial("-(u1 - 2)^2 + (u1^2 - 4*u1 + 4)", ["u1"])
    assert p.terms == {}


def test_multivariate():
    p = parse_polynomial("(u1^2 + u2^2 - 1)^2 * lambda / 8", ["u1", "u2", "lambda"])
    g1 = p.diff(0)
    x, y = 0.3, -0.7
    s = x * x + y * y - 1.0
    assert abs(g1(x, y, 2.0) - 2.0 * s * x / 2.0) < 1e-14


def test_degree_and_variable_restriction():
    p = parse_polynomial("lambda^2*u1^3 + u2", ["u1", "u2", "lambda"])
    assert p.degree() == 5
    assert p.degree(variables=[0, 1]) == 3


def test_errors():
    with pytest.raises(ValueError):
        parse_polynomial("u1 + q", ["u1"])
    with pytest.raises(ValueError):
        parse_polynomial("u1^-1", ["u1"])
    with pytest.raises(ValueError):
        parse_polynomial("1/u1", ["u1"])
    with pytest.raises(ValueError):
        parse_polynomial("u1 @ 2", ["u1"])
    with pytest.raises(ValueError):
        parse_polynomial("(u1", ["u1"])


def test_power_of_zero_and_constants():
    p = parse_polynomial("3", ["u1"])
    assert p.is_constant() and p.constant_value() == 3
    q = Polynomial.variable(1, 0) ** 0
    assert q.constant_value() == 1


def _reference(poly, args, absolute=False):
    """sum(c * prod(a**e)) term by term; with absolute, of |c| and |a|."""
    total = 0.0
    for m, c in poly.terms.items():
        term = abs(float(c)) if absolute else float(c)
        for a, e in zip(args, m):
            a = np.asarray(a, float)
            term = term * (np.abs(a) if absolute else a) ** e
        total = total + term
    return total


def test_evaluator_matches_reference_on_random_polynomials():
    rng = np.random.default_rng(5)
    for _ in range(20):
        terms = {}
        for _ in range(int(rng.integers(1, 9))):
            mono = tuple(int(e) for e in rng.integers(0, 6, size=3))
            terms[mono] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        poly = Polynomial(3, terms)
        for args in (
            (rng.normal(size=(4, 1)), rng.normal(size=(1, 5)), np.float64(rng.normal())),
            (rng.normal(size=7), 0.8, rng.normal(size=7)),
            (np.array(rng.normal()), -1.3, 0.4),
        ):
            got = poly(*args)
            ref = _reference(poly, args)
            assert np.shape(got) == np.broadcast_shapes(*(np.shape(a) for a in args))
            scale = _reference(poly, args, absolute=True)
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)
