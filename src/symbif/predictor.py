"""Bifurcation-level prediction for -Laplace u = grad F(u, lambda) on spheres
and balls.

The linearization around the constant state decomposes into blocks indexed by
Laplacian eigenvalues beta_k and matrix eigenvalues alpha_j, with block
eigenvalue (beta_k - lambda alpha_j) / (1 + beta_k).  Candidate levels are the
quotients beta_k / alpha_j; each candidate carries the resonant eigenspace
descriptor, the slice Brouwer degrees on both sides, and the degree-jump
verdict.  Sphere candidates are exact bifurcation levels; ball candidates come
with an interval alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import euler_ring, potentials, spectral
from .euler_ring import ATOM_ON_MINUS, ATOM_ON_PLUS
from .potentials import PotentialSpec
from .spectral import DomainId, LaplaceEigenvalue

RESONANCE_TOL = 1e-9

__all__ = [
    "RepresentationBlock",
    "RepresentationDescriptor",
    "SphereGlobal",
    "BallAlternative",
    "BifurcationCandidate",
    "eigen_catalog",
    "lambda_set",
    "default_epsilon",
    "degree_jump",
    "predict",
    "candidate_to_json",
]


@dataclass(frozen=True)
class RepresentationBlock:
    beta: float
    copies: int
    dimension: int
    nontrivial: bool


@dataclass(frozen=True)
class RepresentationDescriptor:
    """Isotypic blocks of an eigenspace viewed as a rotation representation."""

    blocks: tuple

    @property
    def total_dimension(self) -> int:
        return sum(b.copies * b.dimension for b in self.blocks)

    def to_json(self) -> dict:
        return {
            "blocks": [
                {
                    "beta": b.beta,
                    "copies": b.copies,
                    "dimension": b.dimension,
                    "nontrivial": b.nontrivial,
                }
                for b in self.blocks
            ],
            "dim": self.total_dimension,
        }


@dataclass(frozen=True)
class SphereGlobal:
    kind: str = "sphere-global"


@dataclass(frozen=True)
class BallAlternative:
    """Either local bifurcation along a half-interval next to the level, or a
    global bifurcation somewhere in the interval."""

    lo: float
    hi: float
    kind: str = "ball-alternative"


@dataclass(frozen=True)
class BifurcationCandidate:
    lambda0: float
    witnesses: tuple  # ((alpha, beta), ...)
    V: RepresentationDescriptor
    guarantee: Optional[object]
    b_minus: int
    b_plus: int
    jump: bool
    epsilon: float


def eigen_catalog(domain: DomainId, beta_cutoff: float) -> list[LaplaceEigenvalue]:
    """Distinct Laplacian eigenvalues up to beta_cutoff on the domain; a
    cutoff that is not positive and finite raises ValueError."""
    if not 0 < beta_cutoff < math.inf:
        raise ValueError(f"beta_cutoff must be positive and finite, got {beta_cutoff}")
    if domain.kind == "sphere":
        count = 0
        while count * (count + domain.dim - 2) <= beta_cutoff:
            count += 1
        return spectral.sphere_spectrum(domain.dim, count)
    return spectral.ball_neumann_spectrum(domain.dim, beta_cutoff)


def _alpha_groups(spec: PotentialSpec):
    ms = potentials.matrix_spectrum(spec.A)
    return [(g.value, g.multiplicity) for g in ms.eigenpairs]


def lambda_set(spec: PotentialSpec, domain: DomainId, beta_cutoff: float) -> list[float]:
    """Sorted candidate levels beta_k / alpha_j over nonzero alpha and beta."""
    return _levels(eigen_catalog(domain, beta_cutoff), _alpha_groups(spec))


# the private helpers below take the eigen catalog and the alpha groups,
# built once by their caller


def _quotients(entries, groups):
    """Sorted beta / alpha over the catalog entries and the nonzero alpha."""
    return sorted(e.value / a for e in entries for a, _ in groups if abs(a) > RESONANCE_TOL)


def _levels(catalog, groups):
    out = []
    for lv in _quotients([e for e in catalog if e.value != 0.0], groups):
        if not out or abs(lv - out[-1]) > RESONANCE_TOL * max(1.0, abs(lv)):
            out.append(lv)
    return out


def _resonant_blocks(catalog, groups, predicate):
    """Blocks (alpha, eig) with beta != 0 selected by predicate(beta, alpha)."""
    hits = []
    for eig in catalog:
        if eig.value == 0.0:
            continue
        for alpha, mult in groups:
            if predicate(eig.value, alpha):
                hits.append((alpha, mult, eig))
    return hits


def _descriptor(hits) -> RepresentationDescriptor:
    # rotations act trivially on an eigenspace exactly when its l is 0
    blocks = [
        RepresentationBlock(
            beta=eig.value,
            copies=mult,
            dimension=eig.multiplicity,
            nontrivial=eig.angular_degree > 0,
        )
        for _, mult, eig in sorted(hits, key=lambda h: (h[2].value, h[0]))
    ]
    return RepresentationDescriptor(blocks=tuple(blocks))


def _resonant_at(lam0):
    def hit(beta, alpha):
        return abs(beta - lam0 * alpha) <= RESONANCE_TOL * max(1.0, abs(beta))

    return hit


def _in_window(lo, hi):
    def hit(beta, alpha):
        return abs(alpha) > RESONANCE_TOL and lo < beta / alpha < hi

    return hit


def default_epsilon(lam0: float, levels) -> float:
    """Half the gap to the nearest other level, capped at half the distance
    to zero."""
    gap = min(
        (abs(lam0 - other) for other in levels if abs(other - lam0) > RESONANCE_TOL * max(1.0, abs(lam0))),
        default=math.inf,
    )
    return min(gap / 2.0, abs(lam0) / 2.0)


def _witnesses(catalog, groups, lam0):
    hits = _resonant_blocks(catalog, groups, _resonant_at(lam0))
    return tuple(sorted((alpha, eig.value) for alpha, _, eig in hits))


def degree_jump(
    spec: PotentialSpec,
    domain: DomainId,
    lam0: float,
    eps: float,
    beta_cutoff: float,
) -> BifurcationCandidate:
    """Degree-jump decision at a candidate level.

    Computes the slice Brouwer degrees b_minus / b_plus at lam0 -/+ eps, the
    resonant eigenspace descriptor, and whether the two-sided degrees differ
    (the jump), with the candidate levels beta / alpha of the catalog
    beta <= beta_cutoff.  lam0 and eps must be finite, the window (lam0 -
    eps, lam0 + eps) must not contain zero, and on the sphere it must
    contain no other candidate level; otherwise ValueError.
    """
    _check_window(lam0, eps)
    groups = _alpha_groups(spec)
    catalog = eigen_catalog(domain, beta_cutoff)
    return _degree_jump(spec, domain, lam0, eps, catalog, groups, _levels(catalog, groups))


def _check_window(lam0, eps):
    if not (math.isfinite(lam0) and math.isfinite(eps)):
        raise ValueError(f"lambda0 and epsilon must be finite, got {lam0} and {eps}")
    if lam0 == 0.0:
        raise ValueError("lambda0 must be nonzero")
    if eps <= 0.0:
        raise ValueError("epsilon must be positive")
    if abs(lam0) < eps:
        raise ValueError("window (lambda0 - eps, lambda0 + eps) must not contain 0")


def _degree_jump(spec, domain, lam0, eps, catalog, groups, levels):
    """degree_jump on a catalog with its alpha groups and candidate levels."""
    sphere = domain.kind == "sphere"  # an exact level, not an interval
    if sphere:
        inside = [
            lv
            for lv in levels
            if lam0 - eps <= lv <= lam0 + eps
            and abs(lv - lam0) > RESONANCE_TOL * max(1.0, abs(lam0))
        ]
        if inside:
            raise ValueError(
                f"window around lambda0={lam0} contains other candidate levels {inside}"
            )
    witnesses = _witnesses(catalog, groups, lam0)
    if not witnesses:
        raise ValueError(f"no resonant eigenvalue blocks at lambda0={lam0}")
    hit = _resonant_at(lam0) if sphere else _in_window(lam0 - eps, lam0 + eps)
    V = _descriptor(_resonant_blocks(catalog, groups, hit))
    b_minus, _ = potentials.slice_brouwer_degree(spec, lam0 - eps)
    b_plus, _ = potentials.slice_brouwer_degree(spec, lam0 + eps)
    D = euler_ring.deg_minus_id(V)
    side = ATOM_ON_PLUS if lam0 > 0 else ATOM_ON_MINUS
    jump = euler_ring.product_decision(b_plus, b_minus, D, side)
    guarantee = None
    if jump:
        guarantee = SphereGlobal() if sphere else BallAlternative(lo=lam0 - eps, hi=lam0 + eps)
    return BifurcationCandidate(
        lambda0=lam0,
        witnesses=witnesses,
        V=V,
        guarantee=guarantee,
        b_minus=b_minus,
        b_plus=b_plus,
        jump=jump,
        epsilon=eps,
    )


def predict(
    spec: PotentialSpec,
    domain: DomainId,
    beta_cutoff: float,
    epsilon: Optional[float] = None,
) -> list[BifurcationCandidate]:
    """All bifurcation candidates below the cutoff, ascending in level.

    Sphere: one candidate per level in the quotient set (no bifurcation can
    occur outside it).  Ball: one candidate per (alpha, beta) pair whose
    eigenspace is not radial (angular degree l > 0), with an interval
    guarantee.  A spec that fails B3 or B4 of check_assumptions raises
    ValueError.
    """
    base = potentials._base_point(spec)
    if base["B3"].status == "fail":
        raise ValueError("u0 is not a critical point of the potential with Hessian lambda A")
    if base["B4"].status == "fail":
        raise ValueError("a nonidentity group element fixes u0")
    catalog = eigen_catalog(domain, beta_cutoff)
    groups = _alpha_groups(spec)
    levels = _levels(catalog, groups)
    if domain.kind == "sphere":
        lams = levels
    else:  # every quotient off the radial entries (l = 0), the constant included
        lams = _quotients([e for e in catalog if e.angular_degree > 0], groups)
    out = []
    for lam0 in lams:
        eps = epsilon if epsilon is not None else default_epsilon(lam0, levels)
        _check_window(lam0, eps)
        out.append(_degree_jump(spec, domain, lam0, eps, catalog, groups, levels))
    return out


def candidate_to_json(c: BifurcationCandidate) -> dict:
    if isinstance(c.guarantee, SphereGlobal):
        guarantee = {"kind": "sphere-global"}
    elif isinstance(c.guarantee, BallAlternative):
        guarantee = {
            "kind": "ball-alternative",
            "interval": [c.guarantee.lo, c.guarantee.hi],
            "statement": (
                "either a local bifurcation occurs at every level on one side "
                "of lambda0 within the interval, or a global bifurcation "
                "occurs somewhere in the interval"
            ),
        }
    else:
        guarantee = None
    return {
        "lambda0": c.lambda0,
        "witnesses": [{"alpha": a, "beta": b} for a, b in c.witnesses],
        "V": c.V.to_json(),
        "b_minus": c.b_minus,
        "b_plus": c.b_plus,
        "jump": c.jump,
        "epsilon": c.epsilon,
        "guarantee": guarantee,
    }
