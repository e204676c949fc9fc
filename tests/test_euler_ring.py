import numpy as np
import pytest

from symbif import euler_ring as er
from symbif.predictor import RepresentationBlock, RepresentationDescriptor

RNG = np.random.default_rng(11)

# Burnside-style table for a two-element group: (e, e) -> 2 e
Z2_TABLE = er.MultiplicationTable.from_json(
    {
        "context": "Z2",
        "labels": ["G", "e"],
        "products": {"G|G": {"G": 1}, "G|e": {"e": 1}, "e|e": {"e": 2}},
    }
)

# circle-group style table: products of finite-isotropy classes vanish
SO2_TABLE = er.MultiplicationTable.from_json(
    {
        "context": "SO2",
        "labels": ["G", "e"],
        "products": {"e|e": {"e": 0}},
    }
)


def coefficient_sum(e):
    return sum(c for _, c in e.coefficients)


def random_element(context, labels, rng):
    coeffs = {lab: int(rng.integers(-5, 6)) for lab in labels}
    return er.element(context, coeffs)


class TestAdd:
    def test_examples(self):
        assert er.add(er.unit("G"), er.unit("G")) == er.unit("G", 2)
        e = er.element("G", {"G": 2, "e": -1})
        assert er.add(e, er.element("G", {"e": 1})) == er.element("G", {"G": 2})
        x = er.element("G", {"e": 3, "K": -2})
        assert er.add(er.zero("G"), x) == x

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            er.add(er.unit("G"), er.unit("H"))

    def test_associative_commutative(self):
        labels = ["G", "e", "K", "L"]
        for _ in range(100):
            a = random_element("C", labels, RNG)
            b = random_element("C", labels, RNG)
            c = random_element("C", labels, RNG)
            assert er.add(a, b) == er.add(b, a)
            assert er.add(er.add(a, b), c) == er.add(a, er.add(b, c))
            assert er.add(a, er.zero("C")) == a

    def test_canonical_form(self):
        e = er.element("G", {"e": 0, "G": 1})
        assert e.support == ("G",)


class TestStar:
    def test_unit_law_without_table(self):
        x = er.element("Z2", {"e": 4, "G": -2})
        assert er.star(er.unit("Z2", 3), x) == 3 * x

    def test_vanishing_product(self):
        e = er.element("SO2", {"e": 1})
        assert er.star(e, e, SO2_TABLE) == er.zero("SO2")

    def test_trivial_group_is_integer_multiplication(self):
        a = er.element("triv", {"G": 3})
        b = er.element("triv", {"G": -4})
        assert er.star(a, b) == er.element("triv", {"G": -12})

    def test_missing_entry_names_pair(self):
        a = er.element("Z2", {"e": 1})
        with pytest.raises(er.TableIncompleteError) as exc:
            er.star(a, a)
        assert exc.value.pair == ("e", "e")

    def test_z2_ring_laws(self):
        labels = ["G", "e"]
        for _ in range(50):
            a = random_element("Z2", labels, RNG)
            b = random_element("Z2", labels, RNG)
            c = random_element("Z2", labels, RNG)
            assert er.star(a, b, Z2_TABLE) == er.star(b, a, Z2_TABLE)
            lhs = er.star(er.star(a, b, Z2_TABLE), c, Z2_TABLE)
            rhs = er.star(a, er.star(b, c, Z2_TABLE), Z2_TABLE)
            assert lhs == rhs
            assert er.star(er.unit("Z2"), a, Z2_TABLE) == a
            # distributivity over addition
            assert er.star(a, er.add(b, c), Z2_TABLE) == er.add(
                er.star(a, b, Z2_TABLE), er.star(a, c, Z2_TABLE)
            )

    def test_table_validation(self):
        with pytest.raises(ValueError):
            er.MultiplicationTable.from_json(
                {"context": "X", "labels": ["G", "e"], "products": {"G|e": {"e": 2}}}
            )
        with pytest.raises(ValueError):
            er.MultiplicationTable.from_json(
                {"context": "X", "labels": ["e"], "products": {"e|q": {"e": 1}}}
            )
        with pytest.raises(ValueError):
            er.MultiplicationTable.from_json({"labels": ["G"], "products": {}})


class TestPushForward:
    def test_injective_transport(self):
        h = er.element("H", {"e": 2, "Z2": 1})
        g = er.push_forward(h, {"e": "e", "Z2": "Z2"}, "G", admissible=True)
        assert g == er.element("G", {"e": 2, "Z2": 1})
        assert coefficient_sum(g) == coefficient_sum(h) == 3

    def test_collision_cancels(self):
        h = er.element("H", {"K1": 2, "K2": -2})
        g = er.push_forward(h, {"K1": "K", "K2": "K"}, "G")
        assert g == er.zero("G")

    def test_empty(self):
        assert er.push_forward(er.zero("H"), {}, "G") == er.zero("G")

    def test_admissible_requires_injective(self):
        h = er.element("H", {"K1": 1, "K2": 1})
        with pytest.raises(ValueError):
            er.push_forward(h, {"K1": "K", "K2": "K"}, "G", admissible=True)

    def test_map_must_cover_support(self):
        h = er.element("H", {"K1": 1})
        with pytest.raises(ValueError):
            er.push_forward(h, {"K2": "K"}, "G")

    def test_coefficient_sum_conserved(self):
        labels = [f"H{i}" for i in range(6)]
        targets = ["A", "B", "C"]
        for _ in range(100):
            h = random_element("H", labels, RNG)
            cmap = {lab: targets[int(RNG.integers(3))] for lab in labels}
            g = er.push_forward(h, cmap, "G")
            assert coefficient_sum(g) == coefficient_sum(h)

    def test_injective_map_is_injective_on_elements(self):
        labels = ["K1", "K2", "K3"]
        cmap = {"K1": "A", "K2": "B", "K3": "C"}
        for _ in range(50):
            a = random_element("H", labels, RNG)
            b = random_element("H", labels, RNG)
            pa = er.push_forward(a, cmap, "G", admissible=True)
            pb = er.push_forward(b, cmap, "G", admissible=True)
            assert (pa == pb) == (a == b)


class TestScalarUnit:
    def test_examples(self):
        assert er.scalar_unit_test(er.unit("G", 5)) == 5
        assert er.scalar_unit_test(er.element("G", {"G": 1, "e": 2})) is None
        assert er.scalar_unit_test(er.zero("G")) == 0


def descriptor(dims_flags):
    blocks = tuple(
        RepresentationBlock(beta=float(i + 1), copies=1, dimension=d, nontrivial=f)
        for i, (d, f) in enumerate(dims_flags)
    )
    return RepresentationDescriptor(blocks=blocks)


class TestDegMinusId:
    def test_trivial_odd(self):
        deg = er.deg_minus_id(descriptor([(3, False)]))
        assert deg.exact_value == er.element("H", {"G": -1})

    def test_trivial_even(self):
        deg = er.deg_minus_id(descriptor([(2, False)]))
        assert deg.exact_value == er.unit("H")

    def test_nontrivial_atom(self):
        deg = er.deg_minus_id(descriptor([(2, True)]))
        assert deg.exact_value is None
        # a degree with an unevaluated atom is never a scalar unit
        assert not deg.is_exact
        assert deg.factors == (er.MinusIdAtom(dimension=2),)

    def test_signs_through_dimension_six(self):
        for d in range(0, 7):
            blocks = [(1, False)] * d
            deg = er.deg_minus_id(descriptor(blocks))
            assert er.scalar_unit_test(deg.exact_value) == (-1) ** d


class TestProductDecision:
    def test_truth_table(self):
        atom = er.SymbolicDegree.atom("H", 3)
        assert er.product_decision(-1, -1, atom, er.ATOM_ON_PLUS) is True
        assert er.product_decision(0, 0, atom, er.ATOM_ON_PLUS) is False
        assert er.product_decision(0, 2, atom, er.ATOM_ON_PLUS) is True

    def test_exact_comparisons(self):
        exact = er.deg_minus_id(descriptor([(1, False)]))  # (-1)^1 * unit
        assert er.product_decision(1, 1, exact, er.ATOM_ON_PLUS) is True
        assert er.product_decision(1, -1, exact, er.ATOM_ON_PLUS) is False
        even = er.deg_minus_id(descriptor([(2, False)]))
        assert er.product_decision(2, 2, even, er.ATOM_ON_PLUS) is False

    def test_mirrored_side(self):
        atom = er.SymbolicDegree.atom("H", 2)
        assert er.product_decision(0, 3, atom, er.ATOM_ON_MINUS) is True
        assert er.product_decision(3, 0, atom, er.ATOM_ON_MINUS) is True
        assert er.product_decision(0, 0, atom, er.ATOM_ON_MINUS) is False

    def test_monotone_in_evidence(self):
        # a true verdict with an exact degree never flips when a nontrivial
        # block is added (the exact factor becomes an atom)
        for _ in range(200):
            bp = int(RNG.integers(-3, 4))
            bm = int(RNG.integers(-3, 4))
            d = int(RNG.integers(0, 5))
            exact = er.deg_minus_id(descriptor([(1, False)] * d))
            atomized = er.deg_minus_id(descriptor([(1, False)] * d + [(2, True)]))
            for side in (er.ATOM_ON_PLUS, er.ATOM_ON_MINUS):
                if er.product_decision(bp, bm, exact, side):
                    assert er.product_decision(bp, bm, atomized, side)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            er.product_decision(1, 1, er.SymbolicDegree.atom("H", 1), "sideways")
