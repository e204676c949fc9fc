"""Sparse multivariate polynomials with exact rational coefficients.

Every potential, builtin or user-defined, is one of these: a small
expression parser (+, -, *, /, ^ with nonnegative integer powers; division
only by constants) plus symbolic differentiation.  Evaluation broadcasts
over numpy arrays.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class Polynomial:
    """Mapping from exponent tuples to Fraction coefficients."""

    __slots__ = ("nvars", "terms", "_plan")

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
        self._plan = None

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): Fraction(1)})

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
            terms[m] = terms.get(m, Fraction(0)) + c
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        out = Polynomial.constant(self.nvars, 1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.is_constant():
            raise ValueError("division is supported only by constants")
        c = other.constant_value()
        if c == 0:
            raise ZeroDivisionError("division by zero polynomial")
        return Polynomial(self.nvars, {m: v / c for m, v in self.terms.items()})

    def is_constant(self):
        return all(all(e == 0 for e in m) for m in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return sum(self.terms.values(), Fraction(0))

    def diff(self, i):
        terms = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            mono = list(m)
            mono[i] -= 1
            terms[tuple(mono)] = terms.get(tuple(mono), Fraction(0)) + c * m[i]
        return Polynomial(self.nvars, terms)

    def degree(self, variables=None):
        """Max total degree; `variables` restricts which exponents count."""
        if not self.terms:
            return 0
        if variables is None:
            variables = range(self.nvars)
        return max(sum(m[i] for i in variables) for m in self.terms)

    def __call__(self, *args):
        """Value at the broadcast arguments.  Each variable's powers are built
        once per call by repeated multiplication; each term multiplies its
        coefficient by the scalar (0-d) arguments' powers first, as floats,
        and by the array arguments' powers after."""
        if len(args) != self.nvars:
            raise ValueError(f"expected {self.nvars} arguments")
        if self._plan is None:
            # float coefficients and each variable's top power, made once
            self._plan = (
                [(float(c), m) for m, c in self.terms.items()],
                [max((m[i] for m in self.terms), default=0) for i in range(self.nvars)],
            )
        terms, tops = self._plan
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

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            vars_ = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(m) if e
            )
            bits.append(f"{c}*{vars_}" if vars_ else f"{c}")
        return "Polynomial(" + " + ".join(bits) + ")"


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
