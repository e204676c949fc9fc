"""Potentials F(u, lambda) with symmetry data: the group action on R^p, the
base critical point u0, the linearization matrix A, and a checker for the
standing assumptions on these objects.

Every potential is a polynomial F in u1..up and lambda, given as config
data (a [potential] section or the same mapping), that a PotentialSpec
centres at u0 once, exactly: F~(v, lambda) = F(u0 + v, lambda) gives the
gradient, Hessian and lambda derivative of the gradient, which take the
deviation v, as well as A and B3.  The builtins are such mappings too,
parsed when requested: the scalar pitchfork, a rotation-invariant ring
minimum, and degenerate variants of both.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import brouwer
from .polynomial import Evaluator, Polynomial, parse_polynomial

__all__ = [
    "GroupAction",
    "PotentialSpec",
    "NormalSlice",
    "EigenGroup",
    "MatrixSpectrum",
    "AssumptionResult",
    "AssumptionReport",
    "normal_slice",
    "matrix_spectrum",
    "check_assumptions",
    "slice_brouwer_degree",
    "builtin",
    "builtin_names",
    "from_config_file",
    "from_config_dict",
]

# eigenvalues of A closer than _GROUP_TOL form one multiplicity group
_GROUP_TOL = 1e-9
# slice_brouwer_degree's starting box half-width and its number of halvings
_SLICE_HALF_WIDTH = 0.5
_SLICE_MAX_HALVINGS = 6
# B3 passes when the coefficients of F~ that _base_point reads are within this
_B3_TOL = 1e-10


def _plane_generator(p, i, j):
    g = np.zeros((p, p))
    g[i, j] = -1.0
    g[j, i] = 1.0
    return g


def _plane_rotation(p, i, j, angle):
    r = np.eye(p)
    c, s = math.cos(angle), math.sin(angle)
    r[i, i] = c
    r[i, j] = -s
    r[j, i] = s
    r[j, j] = c
    return r


@dataclass(frozen=True)
class GroupAction:
    """Orthogonal action of a compact group on R^p.

    Factors are primitive pieces acting in coordinate planes:
    ("trivial",), ("so2", i, j), or ("zn", n, i, j); several factors form a
    product acting on disjoint planes.
    """

    p: int
    factors: tuple

    def __post_init__(self):
        used = set()
        for f in self.factors:
            if f[0] == "trivial":
                continue
            if f[0] not in ("so2", "zn"):
                raise ValueError(f"unknown action factor {f[0]!r}")
            i, j = f[-2], f[-1]
            if not (0 <= i < self.p and 0 <= j < self.p and i != j):
                raise ValueError(f"invalid plane ({i}, {j}) for p={self.p}")
            if i in used or j in used:
                raise ValueError("action factors must act on disjoint planes")
            used.update((i, j))
            if f[0] == "zn" and f[1] < 2:
                raise ValueError("cyclic order must be at least 2")

    def generators(self) -> list[np.ndarray]:
        """Infinitesimal generators of the continuous factors."""
        return [_plane_generator(self.p, f[1], f[2]) for f in self.factors if f[0] == "so2"]

    def sample_elements(self, count: int = 64) -> list[np.ndarray]:
        """A finite sampling of group elements (includes the identity)."""
        per_factor = []
        for f in self.factors:
            if f[0] == "trivial":
                per_factor.append([np.eye(self.p)])
            elif f[0] == "so2":
                angles = 2.0 * math.pi * np.arange(count) / count
                per_factor.append([_plane_rotation(self.p, f[1], f[2], a) for a in angles])
            else:
                n = f[1]
                angles = 2.0 * math.pi * np.arange(n) / n
                per_factor.append([_plane_rotation(self.p, f[2], f[3], a) for a in angles])
        if not per_factor:
            return [np.eye(self.p)]
        elems = per_factor[0]
        for group in per_factor[1:]:
            elems = [a @ b for a in elems for b in group]
            if len(elems) > 4 * count:
                elems = elems[:: max(1, len(elems) // (4 * count))]
        return elems


def _vector(polys, p):
    """(v, lam) -> the values of polys in v1..vp and lambda, stacked on the
    last axis of a float array of v's shape (..., p)."""
    values = Evaluator(polys)

    def vector(v, lam):
        v = np.asarray(v, float)
        out = np.empty(v.shape)
        for i, value in enumerate(values(*[v[..., k] for k in range(p)], lam)):
            out[..., i] = value
        return out

    return vector


def _hessian(grads, p):
    """(v, lam) -> the Jacobian of grads, of shape (..., p, p): the upper
    triangle is evaluated and mirrored, bitwise symmetric at half the cost."""
    upper = [(i, j) for i in range(p) for j in range(i, p)]
    values = Evaluator([grads[i].diff(j) for i, j in upper])

    def hess(v, lam):
        v = np.asarray(v, float)
        H = np.empty(v.shape + (p,))
        for (i, j), h in zip(upper, values(*[v[..., k] for k in range(p)], lam)):
            H[..., i, j] = H[..., j, i] = h
        return H

    return hess


@dataclass
class PotentialSpec:
    """The potential F, a Polynomial in u1, ..., up, lambda (in that
    order), its symmetry and its base point u0.

    Derived, and not settable: p, grad_degree (the largest degree in u of
    the gradient, which sizes the dealiased quadrature of the Galerkin
    solver), centred, F~(v, lambda) = F(u0 + v, lambda) in exact arithmetic
    (F itself when u0 = 0), A with Hess F(u0, lambda) = lambda A from F~'s
    lambda v_i v_j coefficients, and grad_lambda.  grad, hess and
    grad_lambda are F~'s and take the deviation v = u - u0, so no digit is
    lost near u0; grad and hess stay fields so that a wrapper with the same
    values, a counting one say, can replace them (dataclasses.replace).
    All three broadcast: v of shape (..., p) with lambda a scalar or an
    array of v's batch shape (...) yields arrays of shape (..., p), (..., p,
    p) and (..., p), each entry at an array lambda bit for bit the single
    point v[i] at lambda[i].  growth_exponent is metadata only.  A u0 of
    other than p entries raises ValueError.
    """

    name: str
    action: GroupAction
    u0: np.ndarray
    F: Polynomial
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    growth_exponent: Optional[float] = None
    centred: Polynomial = field(init=False, repr=False)
    A: np.ndarray = field(init=False, repr=False)
    grad_lambda: Callable = field(init=False, repr=False)

    def __post_init__(self):
        p = self.p
        self.u0 = np.asarray(self.u0, float)
        if self.u0.shape != (p,):
            raise ValueError(f"u0 must have {p} entries")
        self.centred = self.F.shift([*self.u0, 0])
        grads = [self.centred.diff(i) for i in range(p)]
        slopes, origin = [g.diff(p) for g in grads], (0,) * (p + 1)
        # A_ij = d^3 F~ / dlambda dv_i dv_j at 0: F~'s lambda v_i v_j coefficients
        self.A = np.array([[float(s.diff(j).terms.get(origin, 0)) for j in range(p)] for s in slopes])
        self.grad = self.grad or _vector(grads, p)
        self.hess = self.hess or _hessian(grads, p)
        self.grad_lambda = _vector(slopes, p)

    @property
    def p(self) -> int:
        return self.F.nvars - 1

    @property
    def grad_degree(self) -> int:
        return max(self.F.degree(variables=range(self.p)) - 1, 0)


@dataclass(frozen=True)
class NormalSlice:
    """Orthonormal basis (columns) of the complement of the orbit tangent."""

    basis: np.ndarray
    dimension: int


@dataclass(frozen=True)
class EigenGroup:
    value: float
    multiplicity: int
    vectors: np.ndarray  # columns


@dataclass(frozen=True)
class MatrixSpectrum:
    """Grouped eigenvalues of A, full and restricted to the normal slice."""

    eigenpairs: tuple
    slice_eigenpairs: tuple

    @property
    def values(self):
        return tuple(g.value for g in self.eigenpairs)


def normal_slice(spec: PotentialSpec) -> NormalSlice:
    """Orthonormal basis of the orthogonal complement of T_{u0} Gamma(u0)."""
    gens = spec.action.generators()
    tangents = []
    for g in gens:
        t = g @ spec.u0
        if np.linalg.norm(t) < 1e-12:
            raise ValueError(
                "orbit of u0 degenerates to a point under a continuous rotation "
                "factor: the trivial-isotropy assumption fails"
            )
        tangents.append(t)
    if not tangents:
        return NormalSlice(basis=np.eye(spec.p), dimension=spec.p)
    T = np.stack(tangents, axis=1)
    u, s, _ = np.linalg.svd(T, full_matrices=True)
    rank = int(np.sum(s > 1e-12))
    comp = u[:, rank:]
    # deterministic sign: make the largest-magnitude entry of each column positive
    for col in range(comp.shape[1]):
        i = int(np.argmax(np.abs(comp[:, col])))
        if comp[i, col] < 0:
            comp[:, col] = -comp[:, col]
    return NormalSlice(basis=comp, dimension=spec.p - rank)


def _group_eigenpairs(values, vectors):
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[start] > _GROUP_TOL:
            groups.append(
                EigenGroup(
                    value=float(np.mean(values[start:i])),
                    multiplicity=i - start,
                    vectors=vectors[:, start:i].copy(),
                )
            )
            start = i
    return tuple(groups)


def matrix_spectrum(A, slice: Optional[NormalSlice] = None) -> MatrixSpectrum:
    """Eigenvalues of a symmetric matrix grouped by multiplicity, plus the
    spectrum of the restriction to the normal slice."""
    A = np.asarray(A, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    if np.max(np.abs(A - A.T)) > 1e-12:
        raise ValueError("A is not symmetric within 1e-12")
    vals, vecs = np.linalg.eigh(A)
    full = _group_eigenpairs(vals, vecs)
    if slice is None:
        restricted = full
    else:
        S = slice.basis
        B = S.T @ A @ S
        if B.size:
            svals, svecs = np.linalg.eigh(0.5 * (B + B.T))
            restricted = _group_eigenpairs(svals, svecs)
        else:
            restricted = tuple()
    return MatrixSpectrum(eigenpairs=full, slice_eigenpairs=restricted)


# --------------------------------------------------------------------------
# builtin potentials


# Each builtin is the mapping a [potential] config section would hold; builtin
# parses it with from_config_dict when called, so builtin and user potentials
# share one symbolic path.
_BUILTINS = {
    "pitchfork-scalar": dict(p="1", u0="0", f="lambda*u1^2/2 - u1^4/4", growth_exponent="3"),
    "pitchfork-degenerate": dict(p="1", u0="0", f="lambda*u1^2/2 - u1^6/6", growth_exponent="5"),
    "so2-ring": dict(
        p="2", action="so2(1,2)", u0="1 0", f="lambda*(u1^2 + u2^2 - 1)^2/8", growth_exponent="3"
    ),
    "so2-ring-degenerate": dict(
        p="2", action="so2(1,2)", u0="1 0", f="lambda*(u1^2 + u2^2 - 1)^4/16", growth_exponent="7"
    ),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str) -> PotentialSpec:
    """A fully populated builtin potential by catalog name."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin potential {name!r}; have {builtin_names()}")
    return from_config_dict({"name": name, **_BUILTINS[name]})


# --------------------------------------------------------------------------
# assumption checking


@dataclass(frozen=True)
class AssumptionResult:
    status: str  # "pass" | "fail" | "undecidable"
    details: dict


@dataclass(frozen=True)
class AssumptionReport:
    potential: str
    lambda_samples: tuple
    results: dict

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results.values())

    def to_json(self) -> dict:
        return {
            "potential": self.potential,
            "lambda_samples": list(self.lambda_samples),
            "assumptions": {
                name: {"status": r.status, **r.details} for name, r in self.results.items()
            },
            "ok": self.ok,
        }


def slice_brouwer_degree(spec: PotentialSpec, lam: float):
    """Brouwer degree of the gradient restricted to the normal slice at u0.

    The region is a box of half-width _SLICE_HALF_WIDTH in slice coordinates,
    halved on admissibility failures at most _SLICE_MAX_HALVINGS times.
    Returns (degree, half_width_used).
    """
    sl = normal_slice(spec)
    d = sl.dimension
    if d == 0:
        raise ValueError("normal slice is zero-dimensional")
    if d > 3:
        raise ValueError(f"slice dimension {d} exceeds the supported maximum 3")
    S = sl.basis

    def f(v):
        v = np.asarray(v, float)
        return S.T @ spec.grad(S @ v, lam)

    w = _SLICE_HALF_WIDTH
    last_error = None
    for _ in range(_SLICE_MAX_HALVINGS + 1):
        try:
            if d == 1:
                deg = brouwer.degree_1d(lambda t: float(f(np.array([t]))[0]), brouwer.Interval(-w, w))
            else:
                deg = brouwer.degree_nd(f, brouwer.Box((-w,) * d, (w,) * d))
            return deg, w
        except (brouwer.AdmissibilityError, brouwer.InconclusiveDegreeError) as err:
            last_error = err
            w *= 0.5
    raise brouwer.InconclusiveDegreeError(
        f"slice degree at lambda={lam} failed after {_SLICE_MAX_HALVINGS} shrinks: {last_error}"
    )


def _base_point(spec: PotentialSpec) -> dict:
    """{"B3": AssumptionResult, "B4": ...} for check_assumptions and predict,
    with no evaluation of F.  B3 (grad F(u0, l) = 0, Hess F(u0, l) = l A):
    F~'s v-linear coefficients, and its v-quadratic ones of lambda-degree
    other than 1, are at most _B3_TOL in modulus.  B4 (only the identity
    fixes u0): u0's component in each so2 or zn plane has norm > 1e-9 (1 +
    |u0|)."""
    p, linear, quadratic = spec.p, 0.0, 0.0
    for m, c in spec.centred.terms.items():
        if sum(m[:p]) == 1:
            linear = max(linear, abs(float(c)))
        elif sum(m[:p]) == 2 and m[p] != 1:
            quadratic = max(quadratic, abs(float(c)))
    tol = 1e-9 * (1 + float(np.linalg.norm(spec.u0)))
    planes = [f[-2:] for f in spec.action.factors if f[0] != "trivial"]
    norms = [float(np.hypot(spec.u0[i], spec.u0[j])) for i, j in planes]
    return {
        "B3": AssumptionResult(
            "pass" if max(linear, quadratic) <= _B3_TOL else "fail",
            {"max_linear_coefficient": linear, "max_quadratic_coefficient": quadratic},
        ),
        "B4": AssumptionResult(
            "pass" if all(n > tol for n in norms) else "fail",
            {"plane_norms": norms, "tolerance": tol},
        ),
    }


def check_assumptions(
    spec: PotentialSpec,
    lambda_samples=(-0.1, 0.1),
    rng=None,
) -> AssumptionReport:
    """Check the standing assumptions on a potential, to the extent decidable.

    Orthogonality of the action is sampled; B3 (u0 critical, with Hessian
    lambda A) and B4 (trivial isotropy of u0) are read from F~'s
    coefficients and u0's planes (_base_point); the growth bound and the
    global isolation of the critical orbit are not decidable from point
    samples and come back "undecidable" with evidence from scans about u0 at
    the largest lambda sample; the slice-degree condition is evaluated at
    every nonzero lambda sample.  Samples must be finite, and one must be
    nonzero; otherwise ValueError.
    """
    if not all(np.isfinite(lambda_samples)):
        raise ValueError(f"lambda samples must be finite, got {tuple(lambda_samples)}")
    if not any(abs(l) > 0 for l in lambda_samples):
        raise ValueError("need at least one nonzero lambda sample")
    if rng is None:
        rng = np.random.default_rng(0)
    results = {}
    elements = spec.action.sample_elements(64)

    # B1: orthogonal representation
    ortho_err = max(float(np.max(np.abs(g.T @ g - np.eye(spec.p)))) for g in elements)
    results["B1"] = AssumptionResult(
        "pass" if ortho_err <= 1e-12 else "fail",
        {"max_orthogonality_residual": ortho_err, "sampled_elements": len(elements)},
    )

    # B2: growth bound is metadata; report a fitted exponent
    radii = np.logspace(0, 3, 13)
    dirs = rng.normal(size=(8, spec.p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lam0 = max(lambda_samples, key=abs)
    hnorm = np.max(np.abs(spec.hess(radii[:, None, None] * dirs, lam0)), axis=(1, 2, 3))
    logs_r = np.log(radii[-6:])
    logs_h = np.log(np.maximum(1e-300, hnorm[-6:]))
    slope = float(np.polyfit(logs_r, logs_h, 1)[0])
    results["B2"] = AssumptionResult(
        "undecidable",
        {
            "fitted_growth_exponent": slope + 1.0,
            "declared_growth_exponent": spec.growth_exponent,
            "max_radius": float(radii[-1]),
        },
    )

    # B3: grad F(u0) = 0 and Hess F(u0, lambda) = lambda A; B4: only the
    # identity fixes u0
    results.update(_base_point(spec))

    # B5: local annulus scan around the orbit; global isolation is undecidable
    scale = max(1.0, float(np.linalg.norm(spec.u0)))
    n_pts = 10_000
    v = rng.normal(size=(n_pts, spec.p))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= (0.02 + 0.23 * rng.random((n_pts, 1))) * scale
    # dense orbit sampling so the tube exclusion tracks the true orbit
    orbit = np.stack([g @ spec.u0 for g in spec.action.sample_elements(1024)])
    dists = np.min(np.linalg.norm((spec.u0 + v)[:, None, :] - orbit[None, :, :], axis=2), axis=1)
    keep = dists > 0.02 * scale
    gvals = np.linalg.norm(spec.grad(v[keep], lam0), axis=-1)
    near_zero = int(np.sum(gvals <= 1e-6))
    results["B5"] = AssumptionResult(
        "undecidable",
        {
            "scan_points": int(np.sum(keep)),
            "annulus": [0.02 * scale, 0.25 * scale],
            "min_grad_norm": float(gvals.min()) if gvals.size else None,
            "near_zero_count": near_zero,
        },
    )

    # B6: slice Brouwer degree nonzero at every nonzero lambda sample
    degrees = {}
    status = "pass"
    for l in lambda_samples:
        if l == 0:
            continue
        try:
            deg, used = slice_brouwer_degree(spec, l)
            degrees[repr(l)] = {"degree": deg, "half_width": used}
            if deg == 0:
                status = "fail"
        except (brouwer.InconclusiveDegreeError, brouwer.AdmissibilityError) as err:
            degrees[repr(l)] = {"error": str(err)}
            status = "undecidable" if status != "fail" else status
    results["B6"] = AssumptionResult(status, {"degrees": degrees})

    return AssumptionReport(
        potential=spec.name, lambda_samples=tuple(lambda_samples), results=results
    )


# --------------------------------------------------------------------------
# user-defined potentials from config files


def _parse_action(text: str, p: int) -> GroupAction:
    factors = []
    for piece in text.split("*"):
        piece = piece.strip()
        if piece == "trivial":
            factors.append(("trivial",))
        elif piece.startswith("so2(") and piece.endswith(")"):
            i, j = (int(x) for x in piece[4:-1].split(","))
            factors.append(("so2", i - 1, j - 1))
        elif piece.startswith("zn(") and piece.endswith(")"):
            head, plane = piece[3:-1].split(";")
            i, j = (int(x) for x in plane.split(","))
            factors.append(("zn", int(head), i - 1, j - 1))
        else:
            raise ValueError(f"cannot parse action {piece!r}")
    return GroupAction(p, tuple(factors))


def from_config_dict(cfg: dict) -> PotentialSpec:
    """Build a PotentialSpec from a flat mapping of string settings: p, u0
    and f, with action, name and growth_exponent optional.  A is derived
    from f, and any other key, such as the a of older configs, is not
    read."""
    try:
        p = int(cfg["p"])
        action = _parse_action(cfg.get("action", "trivial"), p)
        u0 = [float(x) for x in cfg["u0"].replace(",", " ").split()]
        F = parse_polynomial(cfg["f"], [f"u{i + 1}" for i in range(p)] + ["lambda"])
    except KeyError as err:
        raise ValueError(f"potential config is missing key {err.args[0]!r}") from err
    growth = cfg.get("growth_exponent")
    return PotentialSpec(
        name=cfg.get("name", "user"),
        action=action,
        u0=u0,
        F=F,
        growth_exponent=float(growth) if growth is not None else None,
    )


def from_config_file(path) -> PotentialSpec:
    """Read a [potential] section: p, action, u0, f, optional metadata."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read potential file {path!r}")
    if "potential" not in parser:
        raise ValueError("potential file needs a [potential] section")
    return from_config_dict({k.lower(): v for k, v in parser["potential"].items()})
