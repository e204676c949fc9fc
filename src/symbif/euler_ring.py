"""Formal arithmetic in the Euler ring U(G): integer combinations of
conjugacy-class generators, star products driven by user-supplied
multiplication tables, push-forward of degrees between group contexts, and
symbolic handling of degree-of-minus-identity factors.

Group contexts are opaque string ids; within every context the label "G"
denotes the full group and indexes the unit generator.  No multiplication
table is ever fabricated: exact star products beyond the unit law require a
user table, and bifurcation decisions use only invertibility and non-unit
support of the minus-identity factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

UNIT_LABEL = "G"

ATOM_ON_PLUS = "plus"
ATOM_ON_MINUS = "minus"

__all__ = [
    "UNIT_LABEL",
    "ATOM_ON_PLUS",
    "ATOM_ON_MINUS",
    "EulerElement",
    "MultiplicationTable",
    "TableIncompleteError",
    "MinusIdAtom",
    "SymbolicDegree",
    "element",
    "unit",
    "zero",
    "add",
    "negate",
    "scale",
    "star",
    "push_forward",
    "scalar_unit_test",
    "deg_minus_id",
    "product_decision",
]


class TableIncompleteError(Exception):
    """A star product needed a pair the multiplication table does not list."""

    def __init__(self, context, pair):
        self.context = context
        self.pair = pair
        super().__init__(
            f"multiplication table for context {context!r} has no entry for pair {pair}"
        )


@dataclass(frozen=True)
class EulerElement:
    """Canonical integer combination of class generators within one context."""

    context: str
    coefficients: tuple  # sorted ((label, coefficient), ...) without zeros

    def coefficient(self, label: str) -> int:
        for lab, c in self.coefficients:
            if lab == label:
                return c
        return 0

    @property
    def support(self):
        return tuple(lab for lab, _ in self.coefficients)

    def as_dict(self) -> dict:
        return {lab: c for lab, c in self.coefficients}

    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other):
        return add(self, other)

    def __neg__(self):
        return negate(self)

    def __sub__(self, other):
        return add(self, negate(other))

    def __rmul__(self, n):
        if isinstance(n, int):
            return scale(n, self)
        return NotImplemented


def element(context: str, coefficients: Mapping[str, int]) -> EulerElement:
    """Build an element in canonical form (zero coefficients dropped)."""
    items = tuple(sorted((str(k), int(v)) for k, v in coefficients.items() if int(v) != 0))
    return EulerElement(context, items)


def unit(context: str, n: int = 1) -> EulerElement:
    return element(context, {UNIT_LABEL: n})


def zero(context: str) -> EulerElement:
    return element(context, {})


def _require_same_context(e1, e2):
    if e1.context != e2.context:
        raise ValueError(f"context mismatch: {e1.context!r} vs {e2.context!r}")


def add(e1: EulerElement, e2: EulerElement) -> EulerElement:
    _require_same_context(e1, e2)
    out = dict(e1.coefficients)
    for lab, c in e2.coefficients:
        out[lab] = out.get(lab, 0) + c
    return element(e1.context, out)


def negate(e: EulerElement) -> EulerElement:
    return element(e.context, {lab: -c for lab, c in e.coefficients})


def scale(n: int, e: EulerElement) -> EulerElement:
    return element(e.context, {lab: n * c for lab, c in e.coefficients})


@dataclass(frozen=True)
class MultiplicationTable:
    """Star products (K, L) -> element, stored under unordered label pairs."""

    context: str
    labels: frozenset
    entries: Mapping  # {(K, L) sorted: EulerElement}

    @classmethod
    def from_json(cls, doc: dict) -> "MultiplicationTable":
        context = doc.get("context")
        if not isinstance(context, str) or not context:
            raise ValueError("table document needs a nonempty 'context'")
        labels = doc.get("labels")
        if not isinstance(labels, list) or not labels:
            raise ValueError("table document needs a 'labels' list")
        labels = frozenset(str(x) for x in labels)
        entries = {}
        for key, value in doc.get("products", {}).items():
            parts = key.split("|")
            if len(parts) != 2:
                raise ValueError(f"product key {key!r} is not of the form 'K|L'")
            k, l = parts
            if k not in labels or l not in labels:
                raise ValueError(f"product key {key!r} uses labels outside the table")
            if any(lab not in labels for lab in value):
                raise ValueError(f"product value for {key!r} uses labels outside the table")
            elem = element(context, value)
            pair = tuple(sorted((k, l)))
            if pair in entries and entries[pair] != elem:
                raise ValueError(f"table entries for ({k}, {l}) violate symmetry")
            entries[pair] = elem
        for (k, l), elem in entries.items():
            if UNIT_LABEL in (k, l):
                other = l if k == UNIT_LABEL else k
                if elem != element(context, {other: 1}):
                    raise ValueError(f"table entry ({k}, {l}) violates the unit law")
        return cls(context=context, labels=labels, entries=entries)

    def lookup(self, k: str, l: str) -> EulerElement:
        pair = tuple(sorted((k, l)))
        if pair not in self.entries:
            raise TableIncompleteError(self.context, (k, l))
        return self.entries[pair]


def star(e1: EulerElement, e2: EulerElement, table: Optional[MultiplicationTable] = None) -> EulerElement:
    """Bilinear extension of the table products; unit-law pairs need no table."""
    _require_same_context(e1, e2)
    if table is not None and table.context != e1.context:
        raise ValueError("table context does not match the elements")
    total = zero(e1.context)
    for k, c1 in e1.coefficients:
        for l, c2 in e2.coefficients:
            if k == UNIT_LABEL:
                prod = element(e1.context, {l: 1})
            elif l == UNIT_LABEL:
                prod = element(e1.context, {k: 1})
            elif table is None:
                raise TableIncompleteError(e1.context, (k, l))
            else:
                prod = table.lookup(k, l)
            total = add(total, scale(c1 * c2, prod))
    return total


def push_forward(
    hdeg: EulerElement,
    class_map: Mapping[str, str],
    target_context: str,
    admissible: bool = False,
) -> EulerElement:
    """Transport a degree from context H to context G along a class map.

    Coefficients of H-classes landing on the same G-class are summed.  With
    admissible=True the map must be injective, so transport cannot collide.
    """
    missing = [lab for lab in hdeg.support if lab not in class_map]
    if missing:
        raise ValueError(f"class map is not defined on {missing}")
    if admissible:
        values = list(class_map.values())
        if len(set(values)) != len(values):
            raise ValueError("admissible push-forward requires an injective class map")
    out: dict = {}
    for lab, c in hdeg.coefficients:
        target = class_map[lab]
        out[target] = out.get(target, 0) + c
    return element(target_context, out)


def scalar_unit_test(e: EulerElement) -> Optional[int]:
    """Return a with e = a * unit, None if the support is not contained in it."""
    if e.is_zero():
        return 0
    if e.support == (UNIT_LABEL,):
        return e.coefficient(UNIT_LABEL)
    return None


@dataclass(frozen=True)
class MinusIdAtom:
    """Unevaluated degree of -Id on a ball of a nontrivial representation.

    Such a degree is invertible and is never a scalar multiple of the unit,
    which is all the jump criterion needs.
    """

    dimension: int


@dataclass(frozen=True)
class SymbolicDegree:
    """Either an exact Euler element or a product containing minus-Id atoms."""

    context: str
    factors: tuple

    @classmethod
    def exact(cls, e: EulerElement) -> "SymbolicDegree":
        return cls(context=e.context, factors=(e,))

    @classmethod
    def atom(cls, context: str, dimension: int) -> "SymbolicDegree":
        return cls(context=context, factors=(MinusIdAtom(dimension=dimension),))

    @property
    def is_exact(self) -> bool:
        return all(isinstance(f, EulerElement) for f in self.factors)

    @property
    def exact_value(self) -> Optional[EulerElement]:
        if self.is_exact and len(self.factors) == 1:
            return self.factors[0]
        return None


def deg_minus_id(rep, context: str = "H") -> SymbolicDegree:
    """Degree of -Id on the ball of a representation described by `rep`.

    `rep` lists isotypic blocks with dimensions, copy counts, and
    nontriviality flags (any object with .blocks and .total_dimension works).
    A fully trivial representation gives the exact value (-1)^dim times the
    unit; any nontrivial block leaves an invertible symbolic atom.
    """
    d = int(rep.total_dimension)
    nontrivial = any(getattr(b, "nontrivial") for b in rep.blocks)
    if not nontrivial:
        sign = -1 if d % 2 else 1
        return SymbolicDegree.exact(element(context, {UNIT_LABEL: sign}))
    return SymbolicDegree.atom(context, d)


def product_decision(b_plus: int, b_minus: int, degree: SymbolicDegree, atom_side: str) -> bool:
    """Decide whether b_atom * degree differs from b_other * unit.

    True is returned when the inequality is certain (a nonzero coefficient
    survives on a non-unit class, or two exact elements differ); False only
    when equality is provable.
    """
    if atom_side not in (ATOM_ON_PLUS, ATOM_ON_MINUS):
        raise ValueError("atom_side must be 'plus' or 'minus'")
    b_atom = b_plus if atom_side == ATOM_ON_PLUS else b_minus
    b_unit = b_minus if atom_side == ATOM_ON_PLUS else b_plus
    exact = degree.exact_value
    if exact is not None:
        return scale(b_atom, exact) != unit(degree.context, b_unit)
    # the atom has support off the unit class and is invertible, so a nonzero
    # multiple of it can never equal a multiple of the unit
    if b_atom != 0:
        return True
    return b_unit != 0
