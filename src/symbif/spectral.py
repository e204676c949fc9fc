"""Laplacian spectra and eigenfunction bases on round domains.

Supported domains: the sphere S^{N-1} for any N >= 2 (closed-form spectrum)
and the Neumann problem on the unit ball B^N for N in {2, 3} (Bessel-root
spectrum).  Distinct eigenvalues are indexed from 1 with beta_1 = 0.

Verify's domains (circle, S^2, disk) are the entries of _GALERKIN: basis
rows, quadrature sizing and default catalog, looked up by basis,
default_quadrature and continuation.build_problem; the angular group is read
from domain.dim (continuation).  B^3 needs its rows j_l(k r) Y_lm, a radial
rule with weight r^2 times the S^2 rule, and its entry.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import bessel

__all__ = [
    "DomainId",
    "LaplaceEigenvalue",
    "Quadrature",
    "sphere",
    "ball",
    "harmonic_dimension",
    "sphere_spectrum",
    "ball_neumann_spectrum",
    "basis",
    "circle_quadrature",
    "sphere2_quadrature",
    "disk_quadrature",
    "default_quadrature",
    "spectrum_to_json",
]


@dataclass(frozen=True)
class DomainId:
    """A round domain: kind is "sphere" (S^{N-1}) or "ball" (B^N)."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("sphere", "ball"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        if self.kind == "ball" and self.dim not in (2, 3):
            raise ValueError("ball domains are supported for N in {2, 3}")

    @property
    def measure(self) -> float:
        if self.kind == "sphere":
            if self.dim == 2:
                return 2.0 * math.pi
            if self.dim == 3:
                return 4.0 * math.pi
            # surface of the unit (N-1)-sphere
            return 2.0 * math.pi ** (self.dim / 2.0) / math.gamma(self.dim / 2.0)
        if self.dim == 2:
            return math.pi
        return 4.0 * math.pi / 3.0

    @property
    def label(self) -> str:
        return f"{self.kind}{self.dim}"


def sphere(dim: int) -> DomainId:
    return DomainId("sphere", dim)


def ball(dim: int) -> DomainId:
    return DomainId("ball", dim)


@dataclass(frozen=True)
class LaplaceEigenvalue:
    """One distinct eigenvalue of -Laplace with its multiplicity.

    index is the 1-based rank among distinct eigenvalues, angular_degree the
    spherical-harmonic degree l (for the sphere l = index - 1), radial_index
    the 1-based rank of the radial mode at fixed l (ball only).
    """

    index: int
    value: float
    multiplicity: int
    angular_degree: int
    radial_index: Optional[int] = None


def harmonic_dimension(ambient_dim: int, degree: int) -> int:
    """Dimension of degree-l spherical harmonics on S^{N-1}."""
    if ambient_dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n, l = ambient_dim, degree
    if l == 0:
        return 1
    low = math.comb(n + l - 3, l - 2) if l >= 2 else 0
    return math.comb(n + l - 1, l) - low


def sphere_spectrum(ambient_dim: int, count: int) -> list[LaplaceEigenvalue]:
    """First `count` distinct eigenvalues of -Laplace on S^{N-1}, ascending."""
    if ambient_dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    if count < 1:
        raise ValueError("count must be positive")
    out = []
    for k in range(1, count + 1):
        l = k - 1
        beta = float(l * (l + ambient_dim - 2))
        out.append(
            LaplaceEigenvalue(
                index=k,
                value=beta,
                multiplicity=harmonic_dimension(ambient_dim, l),
                angular_degree=l,
            )
        )
    return out


def ball_neumann_spectrum(ambient_dim: int, beta_cutoff: float) -> list[LaplaceEigenvalue]:
    """All distinct Neumann eigenvalues beta <= cutoff of -Laplace on B^N.

    Eigenvalues are squares of the positive roots of the radial Neumann
    condition, tagged with (l, radial_index, multiplicity); beta = 0 is the
    constant mode (l = 0, radial_index = 1).  Numerically coincident values
    across different l are kept as distinct catalog entries.
    """
    if ambient_dim not in (2, 3):
        raise ValueError("ball domains are supported for N in {2, 3}")
    if not 0.0 < beta_cutoff < math.inf:
        raise ValueError(f"beta_cutoff must be positive and finite, got {beta_cutoff}")
    entries = [(0.0, 0, 1)]  # (beta, l, radial_index)
    for l, roots in enumerate(bessel.neumann_roots(ambient_dim, math.sqrt(beta_cutoff))):
        base = 2 if l == 0 else 1  # the constant mode occupies radial_index 1
        for i, r in enumerate(roots):
            entries.append((r * r, l, base + i))
    entries.sort(key=lambda t: (t[0], t[1]))
    out = []
    for k, (beta, deg, ridx) in enumerate(entries, start=1):
        out.append(
            LaplaceEigenvalue(
                index=k,
                value=beta,
                multiplicity=harmonic_dimension(ambient_dim, deg),
                angular_degree=deg,
                radial_index=ridx,
            )
        )
    return out


# --------------------------------------------------------------------------
# eigenfunction bases


def basis(domain: DomainId, eigens: list[LaplaceEigenvalue], points) -> np.ndarray:
    """Values of L2-orthonormal functions spanning the eigenspaces of catalog
    entries (from `sphere_spectrum` or `ball_neumann_spectrum` for the domain)
    at the nodes of 1-D coordinate arrays: (theta,) on the circle, (theta, phi)
    on the 2-sphere, (r, theta) on the disk.

    One row per function, eigenvalue-major with `multiplicity` rows per entry:
    cos before sin, and on the 2-sphere the zonal function first, then the cos
    and sin of each order m = 1..l.  The radial factors J_l(x r) come from one
    Bessel call over the distinct radii, the polar factors P_l^m(cos theta)
    from one recurrence over the distinct cos(theta), and the angular factors
    cos(m phi), sin(m phi) and cos(k theta), sin(k theta) from the distinct
    angles.
    """
    rows = _galerkin(domain).rows
    if any(e.index < 1 for e in eigens):
        raise ValueError("eigenvalue index must be positive")
    points = [np.asarray(x, float) for x in points]
    E = np.empty((sum(e.multiplicity for e in eigens), points[0].size))
    for i, row in enumerate(rows(eigens, *points)):
        E[i] = row
    return E


def _circle_rows(eigens, theta):
    for e in eigens:
        freq = e.angular_degree
        if freq == 0:
            yield np.full_like(theta, 1.0 / math.sqrt(2.0 * math.pi))
        else:
            c = 1.0 / math.sqrt(math.pi)
            yield c * np.cos(freq * theta)
            yield c * np.sin(freq * theta)


def _angular_factors(orders, angle):
    """{k: (cos(k angle), sin(k angle))} at every node for each order k,
    evaluated once per distinct angle and indexed back to the nodes."""
    angles, inverse = np.unique(angle, return_inverse=True)
    return {
        k: (np.cos(k * angles)[inverse], np.sin(k * angles)[inverse]) for k in orders
    }


def _assoc_legendre(l_max, x):
    """Associated Legendre functions on an array, Condon-Shortley phase
    included: entry [m][l - m] is P_l^m(x) for 0 <= m <= l <= l_max."""
    somx2 = np.sqrt(np.maximum(0.0, (1.0 - x) * (1.0 + x)))
    pmm = np.ones_like(x)
    fact = 1.0
    table = []
    for m in range(l_max + 1):
        if m:
            pmm = pmm * (-fact) * somx2
            fact += 2.0
        column = [pmm]
        if m < l_max:
            column.append(x * (2.0 * m + 1.0) * pmm)
        for ll in range(m + 2, l_max + 1):
            pll = x * (2.0 * ll - 1.0) * column[-1] - (ll + m - 1.0) * column[-2]
            column.append(pll / (ll - m))
        table.append(column)
    return table


def _sphere2_rows(eigens, theta, phi):
    x, inverse = np.unique(np.cos(theta), return_inverse=True)
    l_max = max(e.angular_degree for e in eigens)
    legendre = _assoc_legendre(l_max, x)
    trig = _angular_factors(range(1, l_max + 1), phi)
    for e in eigens:
        l = e.angular_degree
        for m in range(l + 1):
            norm = math.sqrt(
                (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
            )
            if m == 0:
                yield (norm * legendre[0][l])[inverse]
            else:
                polar = (math.sqrt(2.0) * norm * legendre[m][l - m])[inverse]
                yield from (polar * t for t in trig[m])


def _disk_rows(eigens, r, theta):
    radii, inverse = np.unique(r, return_inverse=True)
    waves = [e for e in eigens if e.value != 0.0]
    l = np.array([e.angular_degree for e in waves], int)
    x = np.sqrt([e.value for e in waves])
    jl = bessel.besselj(l, x)
    # at a Neumann root, int_0^1 J_l(x r)^2 r dr = (1 - l^2/x^2) J_l(x)^2 / 2
    radial_norm = 0.5 * (1.0 - l * l / (x * x)) * jl * jl
    c = 1.0 / np.sqrt(np.where(l == 0, 2.0, 1.0) * math.pi * radial_norm)
    radial = iter(c[:, None] * bessel.besselj(l[:, None], x[:, None] * radii[None, :]))
    trig = _angular_factors(set(l.tolist()) - {0}, theta)
    for e in eigens:
        if e.value == 0.0:
            yield np.full_like(r, 1.0 / math.sqrt(math.pi))
            continue
        row = next(radial)[inverse]
        if e.angular_degree:
            yield from (row * t for t in trig[e.angular_degree])
        else:
            yield row


# --------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class Quadrature:
    """Nodes (per-coordinate arrays) and weights for a domain."""

    points: tuple
    weights: np.ndarray


def circle_quadrature(n: int) -> Quadrature:
    """Trapezoid rule; exact for trigonometric polynomials of degree < n."""
    theta = 2.0 * math.pi * np.arange(n) / n
    w = np.full(n, 2.0 * math.pi / n)
    return Quadrature((theta,), w)


def sphere2_quadrature(n_theta: int, n_phi: int) -> Quadrature:
    """Gauss-Legendre in cos(theta) times uniform longitudes."""
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    wg = np.repeat(wx, n_phi) * (2.0 * math.pi / n_phi)
    return Quadrature((tg.ravel(), pg.ravel()), wg)


def disk_quadrature(n_r: int, n_theta: int) -> Quadrature:
    """Gauss-Legendre radial (weight r) times trapezoid angular."""
    x, wx = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * wx * r
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rg, tg = np.meshgrid(r, theta, indexing="ij")
    wg = np.repeat(wr, n_theta) * (2.0 * math.pi / n_theta)
    return Quadrature((rg.ravel(), tg.ravel()), wg)


def default_quadrature(domain: DomainId, max_degree: int) -> Quadrature:
    """A quadrature integrating products of basis functions up to the given
    total angular degree exactly (radially: to spectral accuracy on the disk)."""
    return _galerkin(domain).quadrature(max_degree)


# --------------------------------------------------------------------------
# Galerkin domains

# a domain's basis rows(eigens, *points), quadrature(L) for products of total
# angular degree L, and catalog(truncation, beta_cutoff): the default catalog
# or its first `truncation` entries
_Galerkin = namedtuple("_Galerkin", "rows quadrature catalog")


def _galerkin(domain):
    if domain not in _GALERKIN:
        raise ValueError(f"no Galerkin support on {domain.label}")
    return _GALERKIN[domain]


def _sphere_catalog(dim, count, truncation, beta_cutoff):
    if beta_cutoff is not None:
        raise ValueError(f"beta_cutoff sets only the disk catalog, not the one on sphere{dim}")
    return sphere_spectrum(dim, count if truncation is None else truncation)


def _disk_catalog(truncation, beta_cutoff):
    cutoff = 60.0 if beta_cutoff is None else beta_cutoff
    eigens = ball_neumann_spectrum(2, cutoff)
    if truncation is not None and truncation > len(eigens):
        most = f"at most {len(eigens)}, the entries of the disk catalog beta <= {cutoff:g}"
        raise ValueError(f"truncation must be {most}, got {truncation}")
    return eigens[:truncation]


def _angles(L):
    return max(32, 8 * ((L + 4) // 8 + 1))


_GALERKIN = {
    sphere(2): _Galerkin(
        _circle_rows, lambda L: circle_quadrature(_angles(L)), partial(_sphere_catalog, 2, 16)
    ),
    sphere(3): _Galerkin(
        _sphere2_rows,
        lambda L: sphere2_quadrature(L // 2 + 4, max(16, 2 * (L // 2 + 4))),
        partial(_sphere_catalog, 3, 9),
    ),
    ball(2): _Galerkin(_disk_rows, lambda L: disk_quadrature(64, _angles(L)), _disk_catalog),
}


def spectrum_to_json(entries: list[LaplaceEigenvalue]) -> list[dict]:
    """Serializable records; beta is rounded to 12 significant digits."""
    out = []
    for e in entries:
        out.append(
            {
                "k": e.index,
                "beta": float(f"{e.value:.12g}"),
                "multiplicity": e.multiplicity,
                "l": e.angular_degree,
                "radial_index": e.radial_index,
            }
        )
    return out
