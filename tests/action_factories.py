"""GroupAction constructors for the action tests: one primitive factor per
call, or the product of several acting on disjoint planes."""

from symbif.potentials import GroupAction


def trivial_action(p: int) -> GroupAction:
    return GroupAction(p, (("trivial",),))


def so2_action(p: int, plane=(0, 1)) -> GroupAction:
    return GroupAction(p, (("so2", plane[0], plane[1]),))


def cyclic_action(p: int, n: int, plane=(0, 1)) -> GroupAction:
    return GroupAction(p, (("zn", n, plane[0], plane[1]),))


def product_action(p: int, factors) -> GroupAction:
    flat = []
    for a in factors:
        flat.extend(a.factors)
    return GroupAction(p, tuple(flat))
