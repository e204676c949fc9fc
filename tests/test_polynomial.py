import hashlib
from fractions import Fraction

import numpy as np
import pytest

from symbif import potentials
from symbif.polynomial import Evaluator, Polynomial, parse_polynomial


def value(poly, *args):
    """poly at the broadcast arguments, by the kernel of an Evaluator of poly
    alone: a float when every argument is a scalar, else an array of the
    broadcast shape."""
    return Evaluator([poly])(*args)[0]


def test_parse_and_evaluate():
    p = parse_polynomial("lambda*u1^2/2 - u1^4/4", ["u1", "lambda"])
    u = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(value(p, u, 0.7), 0.7 * u**2 / 2 - u**4 / 4, atol=1e-14)


def test_differentiation_matches_pitchfork_gradient():
    p = parse_polynomial("lambda*u1^2/2 - u1^4/4", ["u1", "lambda"])
    g = p.diff(0)
    u = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(value(g, u, 0.7), 0.7 * u - u**3, atol=1e-14)
    h = g.diff(0)
    np.testing.assert_allclose(value(h, u, 0.7), 0.7 - 3 * u**2, atol=1e-14)


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
    assert abs(value(g1, x, y, 2.0) - 2.0 * s * x / 2.0) < 1e-14


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
            got = value(poly, *args)
            ref = _reference(poly, args)
            assert np.shape(got) == np.broadcast_shapes(*(np.shape(a) for a in args))
            scale = _reference(poly, args, absolute=True)
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)


def _frozen_call(poly, *args):
    """The interpreting evaluator that the compiled kernels replaced, kept
    as the bitwise reference: each variable's powers by repeated
    multiplication; each term's coefficient times the scalar (0-d)
    arguments' powers first, as floats, then the array arguments' powers;
    terms added in dict order, from zeros of the broadcast shape."""
    if len(args) != poly.nvars:
        raise ValueError(f"expected {poly.nvars} arguments")
    terms = [(float(c), m) for m, c in poly.terms.items()]
    tops = [max((m[i] for m in poly.terms), default=0) for i in range(poly.nvars)]
    args = [np.asarray(a, float) for a in args]
    shape = np.broadcast(*args).shape
    scalars = [i for i, a in enumerate(args) if a.ndim == 0]
    arrays = [i for i, a in enumerate(args) if a.ndim]
    powers = []
    for a, top in zip(args, tops):
        a = a if a.ndim else float(a)
        pw = [1.0, a]
        for _ in range(1, top):
            pw.append(pw[-1] * a)
        powers.append(pw)
    total = np.zeros(shape) if shape else 0.0
    for c, m in terms:
        for i in scalars:
            c *= powers[i][m[i]]
        for i in arrays:
            if m[i]:
                c = c * powers[i][m[i]]
        total = total + c
    return total


def assert_same_bits(got, ref):
    assert type(got) is type(ref)
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


# the potential of the benchmark's slice3-degree workload at seed 1: a
# rotated decoupled quartic whose rotation has denominators 1261 and 97
SEED1_QUARTIC = (
    "lambda*((1)*((739/1261)*u1 + (-60/1261)*u2 + (1020/1261)*u3)^2"
    " + (5/4)*((660/1261)*u1 + (989/1261)*u2 + (-420/1261)*u3)^2"
    " + (7/4)*((-60/97)*u1 + (60/97)*u2 + (47/97)*u3)^2)/2"
    " - (((739/1261)*u1 + (-60/1261)*u2 + (1020/1261)*u3)^4"
    " + ((660/1261)*u1 + (989/1261)*u2 + (-420/1261)*u3)^4"
    " + ((-60/97)*u1 + (60/97)*u2 + (47/97)*u3)^4)/4"
)


def test_evaluator_matches_frozen_reference_bitwise():
    rng = np.random.default_rng(17)
    shapes = [(4, 1), (1, 5), (5,)]
    scalars = [lambda: float(rng.normal()), lambda: np.float64(rng.normal()),
               lambda: np.array(rng.normal())]
    polys = [Polynomial(3), Polynomial.constant(3, Fraction(-7, 3))]
    for _ in range(30):
        terms = {}
        for _ in range(int(rng.integers(1, 12))):
            mono = tuple(int(e) for e in rng.integers(0, 6, size=3))
            terms[mono] = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 13)))
        polys.append(Polynomial(3, terms))
    for k, poly in enumerate(polys):
        for pattern in range(8):
            args = [
                rng.normal(size=shapes[i]) * 2 if pattern >> i & 1 else scalars[(k + i) % 3]()
                for i in range(3)
            ]
            assert_same_bits(value(poly, *args), _frozen_call(poly, *args))


def test_terms_keep_their_values_and_order():
    """sha256 of the parsed terms, in dict order, of every builtin and the
    seed-1 quartic, recorded from the parser before its results skipped
    renormalization: evaluation adds terms in this order."""
    digests = {
        "pitchfork-degenerate": "1bd95c76697c81c06eeb56a6a58ce1d665bf72fa35da02147938242f55337673",
        "pitchfork-scalar": "40f6a5300408838ed0e16502bfcc84df96b42d79b475d9ad9fedfd7cecf4d836",
        "so2-ring": "9bdd67c1c7b3cd3918b56a52d87f65cc02535ffa6540b74844359f4c3f23cc05",
        "so2-ring-degenerate": "c794418733cc5c097335115fdac2d1808f6e6173a374da382d6b3e41dbe232f0",
        "seed-1 quartic": "58d1d0397cc2952c02f45c5b9c5c81ef869e180e55efeba404ff749148a20a87",
    }
    texts = {name: (potentials._BUILTINS[name]["f"], int(potentials._BUILTINS[name]["p"]))
             for name in potentials.builtin_names()}
    texts["seed-1 quartic"] = (SEED1_QUARTIC, 3)
    for name, (text, p) in texts.items():
        F = parse_polynomial(text, [f"u{i + 1}" for i in range(p)] + ["lambda"])
        got = hashlib.sha256(repr(list(F.terms.items())).encode()).hexdigest()
        assert got == digests[name], name


def test_centred_terms_keep_their_values_and_order():
    """sha256 of F centred at u0, its terms in dict order, for every
    builtin: F itself where u0 = 0, and the expansion in v = u - u0 of the
    rings, whose order evaluation keeps."""
    digests = {
        "so2-ring": "8f0c79ff94b8505a34b9dc3bf0e55c8c75d9ce2bf19281c7c90b38130ffef7cb",
        "so2-ring-degenerate": "d1528a644164d9528a67d5ac3b712f035d0f6ce204db4bf405126739d406f28a",
    }
    for name in potentials.builtin_names():
        spec = potentials.builtin(name)
        if name in digests:
            got = hashlib.sha256(repr(list(spec.centred.terms.items())).encode()).hexdigest()
            assert got == digests[name], name
        else:
            assert spec.centred is spec.F, name


def _frozen_grad_hess(text, u0, v, lam):
    """grad and hess as from_config_dict assembles them, from F centred at
    u0: one frozen evaluation at v per component and per upper-triangle
    entry."""
    p = len(u0)
    F = parse_polynomial(text, [f"u{i + 1}" for i in range(p)] + ["lambda"])
    grads = [F.shift([*u0, 0]).diff(i) for i in range(p)]
    args = [v[..., i] for i in range(p)] + [lam]
    G = np.empty(v.shape)
    for i, g in enumerate(grads):
        G[..., i] = _frozen_call(g, *args)
    H = np.empty(v.shape + (p,))
    for i in range(p):
        for j in range(i, p):
            H[..., i, j] = H[..., j, i] = _frozen_call(grads[i].diff(j), *args)
    return G, H


@pytest.mark.parametrize("name", potentials.builtin_names() + ["seed-1 quartic"])
def test_gradient_and_hessian_match_frozen_reference_bitwise(name):
    if name == "seed-1 quartic":
        cfg = {"name": name, "p": "3", "u0": "0 0 0",
               "f": SEED1_QUARTIC}
    else:
        cfg = potentials._BUILTINS[name]
    spec = potentials.from_config_dict(cfg)
    rng = np.random.default_rng(23)
    points = [np.zeros(spec.p), rng.normal(size=spec.p), rng.normal(size=(26, spec.p)),
              rng.normal(size=(2, 3, spec.p))]
    for v in points:
        for lam in (4.0, -0.7):
            G, H = _frozen_grad_hess(cfg["f"], spec.u0, v, lam)
            assert_same_bits(spec.grad(v, lam), G)
            assert_same_bits(spec.hess(v, lam), H)


def _exact_value(poly, point):
    """poly at a point of Fractions, exactly."""
    total = Fraction(0)
    for m, c in poly.terms.items():
        for x, e in zip(point, m):
            c *= x**e
        total += c
    return total


def test_shift_is_exact():
    rng = np.random.default_rng(41)
    for _ in range(20):
        terms = {}
        for _ in range(int(rng.integers(1, 10))):
            mono = tuple(int(e) for e in rng.integers(0, 5, size=3))
            terms[mono] = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 13)))
        poly = Polynomial(3, terms)
        # float offsets, some zero; Fraction(float) is the float exactly
        offsets = [float(x) * int(rng.integers(0, 2)) for x in rng.normal(size=3)]
        shifted = poly.shift(offsets)
        for _ in range(3):
            x = [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 9))) for _ in range(3)]
            moved = [xi + Fraction(o) for xi, o in zip(x, offsets)]
            assert _exact_value(shifted, x) == _exact_value(poly, moved)
        assert shifted.degree() == poly.degree()


def test_shift_by_zero_is_the_polynomial_itself():
    poly = parse_polynomial("lambda*(u1^2 + u2^2 - 1)^2/8", ["u1", "u2", "lambda"])
    assert poly.shift([0.0, 0.0, 0.0]) is poly
    # an unshifted variable keeps its exponents: u2 -> u2, u1 -> u1 + 1
    shifted = poly.shift([1.0, 0.0, 0.0])
    assert all(m[2] == 1 for m in shifted.terms)
    assert shifted.terms[(2, 0, 1)] == Fraction(1, 2) and (1, 0, 1) not in shifted.terms


def test_power_squares_only_while_bits_remain(monkeypatch):
    x = parse_polynomial("u1 + 2*u2 - 1", ["u1", "u2"])
    expected = [Polynomial.constant(2, 1)]
    for _ in range(9):
        expected.append(expected[-1] * x)
    products = []
    multiply = Polynomial.__mul__

    def counting(self, other):
        products.append(None)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    for n in range(1, 10):
        products.clear()
        assert (x**n).terms == expected[n].terms
        assert len(products) == (n.bit_length() - 1) + bin(n).count("1"), n
