"""Sparse multivariate polynomials with exact rational coefficients.

Every potential, builtin or user-defined, is one of these: a small
expression parser (+, -, *, /, ^ with nonnegative integer powers; division
only by nonzero constants) plus symbolic differentiation.  Arithmetic stays
exact; only evaluation uses floats.  An Evaluator computes a group of
polynomials in the same variables, such as the components of a gradient or
the upper triangle of a Hessian, with one straight-line kernel per pattern
of scalar and array arguments, compiled on first use and broadcasting over
numpy arrays.  A single polynomial is evaluated as a group of one.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

import numpy as np


class Polynomial:
    """Mapping from exponent tuples to Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                if len(mono) != nvars:
                    raise ValueError("monomial length does not match nvars")
                clean[tuple(mono)] = clean.get(tuple(mono), Fraction(0)) + coeff
        self.terms = {m: c for m, c in clean.items() if c != 0}

    @classmethod
    def _exact(cls, nvars, terms):
        """The polynomial of `terms`, a dict from nvars-tuples to exact
        Fractions as arithmetic makes them: their order kept, zero
        coefficients dropped, nothing validated or converted again."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = {m: c for m, c in terms.items() if c}
        return poly

    @classmethod
    def constant(cls, nvars, value):
        return cls._exact(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return cls._exact(nvars, {tuple(mono): Fraction(1)})

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        return Polynomial.constant(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return Polynomial._exact(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._exact(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                c = c1 * c2
                terms[m] = terms[m] + c if m in terms else c
        return Polynomial._exact(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n by binary powering (Knuth, TAOCP vol. 2, 4.6.3): one product
        per set bit of n, and a squaring only while bits remain, so
        floor(log2 n) squarings."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        out = Polynomial.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.is_constant():
            raise ValueError("division is supported only by constants")
        c = other.constant_value()
        if c == 0:
            raise ValueError("division by zero")
        return Polynomial._exact(self.nvars, {m: v / c for m, v in self.terms.items()})

    def is_constant(self):
        return all(all(e == 0 for e in m) for m in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return sum(self.terms.values(), Fraction(0))

    def diff(self, i):
        terms = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                terms[m[:i] + (e - 1,) + m[i + 1 :]] = c * e
        return Polynomial._exact(self.nvars, terms)

    def shift(self, offsets):
        """x -> self(x + offsets), exact, with one offset per variable.  Only
        the variables with a nonzero offset are substituted, each power of
        x_i + offset_i expanded once, so with no offset the result is self,
        its terms in its order."""
        subs = {i: Polynomial.variable(self.nvars, i) + o for i, o in enumerate(offsets) if o}
        if not subs:
            return self
        powers = {(i, e): s**e for i, s in subs.items() for e in range(self.degree([i]) + 1)}
        out = Polynomial(self.nvars)
        for m, c in self.terms.items():
            kept = tuple(0 if i in subs else e for i, e in enumerate(m))
            term = Polynomial._exact(self.nvars, {kept: c})
            for i in subs:
                term = term * powers[i, m[i]]
            out = out + term
        return out

    def degree(self, variables=None):
        """Max total degree; `variables` restricts which exponents count."""
        if not self.terms:
            return 0
        if variables is None:
            variables = range(self.nvars)
        return max(sum(m[i] for i in variables) for m in self.terms)


# --------------------------------------------------------------------------
# evaluation


class Evaluator:
    """Polynomials in the same variables, evaluated together: called with one
    argument per variable, it returns the tuple of their values.

    For each pattern of scalar (0-d) and array arguments it compiles, on
    first use, one straight-line kernel that builds each variable's powers
    once, by repeated multiplication, for every polynomial of the group.
    Each polynomial's value starts from zeros of the broadcast shape (0.0
    when every argument is a scalar) and adds its terms in dict order; a
    term is its float coefficient times the scalar arguments' powers, as
    floats, in variable order, then times the array arguments' powers, in
    variable order.  The kernel's source holds only repr(float) coefficients
    and integer indices.
    """

    __slots__ = ("nvars", "_terms", "_tops", "_kernels")

    def __init__(self, polys):
        self.nvars = polys[0].nvars
        if any(poly.nvars != self.nvars for poly in polys):
            raise ValueError("mixed variable counts")
        self._terms = [[(float(c), m) for m, c in poly.terms.items()] for poly in polys]
        self._tops = [
            max((m[i] for terms in self._terms for _, m in terms), default=0)
            for i in range(self.nvars)
        ]
        self._kernels = {}

    def __call__(self, *args):
        if len(args) != self.nvars:
            raise ValueError(f"expected {self.nvars} arguments")
        args = [np.asarray(a, float) for a in args]
        pattern = tuple([a.ndim > 0 for a in args])
        kernel = self._kernels.get(pattern)
        if kernel is None:
            kernel = self._kernels[pattern] = _compile(self._terms, self._tops, pattern)
        return kernel(*args)


def _compile(groups, tops, pattern):
    """The kernel of an Evaluator for one pattern (True marks an array)."""
    names = [f"x{i}" for i in range(len(tops))]
    arrays = [i for i, is_array in enumerate(pattern) if is_array]
    scalars = [i for i, is_array in enumerate(pattern) if not is_array]
    # a term's factors: scalar powers first, then array powers
    order = scalars + arrays

    def power(i, k):
        return names[i] if k == 1 and pattern[i] else f"{names[i]}_{k}"

    lines = [f"def kernel({', '.join(names)}):"]
    for i in scalars:
        if tops[i]:
            lines.append(f"    {power(i, 1)} = float({names[i]})")
    for i, top in enumerate(tops):
        for k in range(2, top + 1):
            lines.append(f"    {power(i, k)} = {power(i, k - 1)} * {power(i, 1)}")
    if arrays:
        lines.append(f"    shape = broadcast({', '.join(names[i] for i in arrays)}).shape")
    for g, terms in enumerate(groups):
        lines.append(f"    t{g} = zeros(shape)" if arrays else f"    t{g} = 0.0")
        for c, m in terms:
            factors = [power(i, m[i]) for i in order if m[i]]
            lines.append(f"    t{g} += {' * '.join([repr(c)] + factors)}")
    lines.append(f"    return ({''.join(f't{g}, ' for g in range(len(groups)))})")
    # the kernel leaves its namespace, so the two form no reference cycle
    namespace = {"zeros": np.zeros, "broadcast": np.broadcast}
    exec(compile("\n".join(lines), "<polynomial kernel>", "exec"), namespace)
    return namespace.pop("kernel")


# --------------------------------------------------------------------------
# parsing

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in expression")
    return tokens


class _Parser:
    def __init__(self, tokens, names):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.nvars = len(names)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        poly = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return poly

    def expr(self):
        poly = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self):
        poly = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            poly = poly * rhs if op == "*" else poly / rhs
        return poly

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ValueError("exponent must be an integer literal")
            return base ** (sign * int(tok))
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            poly = self.expr()
            self.expect(")")
            return poly
        if tok[0].isdigit() or tok[0] == ".":
            if "." in tok:
                return Polynomial.constant(self.nvars, Fraction(tok))
            return Polynomial.constant(self.nvars, int(tok))
        if tok in self.names:
            return Polynomial.variable(self.nvars, self.names.index(tok))
        raise ValueError(f"unknown symbol {tok!r}")


def parse_polynomial(text: str, names: list[str]) -> Polynomial:
    """Parse an expression in the given variable names into a Polynomial."""
    return _Parser(_tokenize(text), list(names)).parse()
