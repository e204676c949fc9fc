"""Spectral Galerkin discretization of -Laplace u = grad F(u, lambda) on the
circle, the 2-sphere, and the disk, with Newton solves, pseudo-arclength
continuation, bifurcation detection on the trivial branch, and branch
switching.

The residual lives in L2-orthonormal coordinates: for basis function e_b with
eigenvalue beta_b and component i,

    residual[b, i] = beta_b c[b, i] - int (grad F(u(x), lambda))_i e_b(x) dx,

with u = u0 + sum c[b, :] e_b.  Nonlinear terms are evaluated pseudo-
spectrally on a quadrature dense enough to kill aliasing for the declared
polynomial degree of the gradient.

Solutions come in orbits of the continuous symmetries (component rotations
and domain rotations), and the residual is the gradient of an invariant
functional: J is symmetric, the orbit tangents lie in its kernel at a
solution, and the residual is orthogonal to them.  So every Newton system is
square and bordered (Keller 1977; Govaerts, Numerical Methods for
Bifurcations of Dynamical Equilibria, 2000).  B holds orthonormal rows
spanning the symmetry tangents P, and each row of B brings one Lagrange
multiplier mu, which is zero at a solution.  The solves that free lambda (the
amplitude-pinned branch switch, the pseudo-arclength tangent and corrector)
add the lambda column r_lambda and one border row b over (c, lambda):

    [J  B^T] [dc]        [J  r_lambda  B^T] [dc     ]
    [B  0  ] [mu]        [B  0         0  ] [dlambda]
                         [b            0  ] [mu     ]

_newton_system builds either matrix and every system is solved by LU
(np.linalg.solve); a singular factorization raises NewtonError.  The
domain-rotation tangents are T C for exact generator matrices T: T_z from
the (cos, sin) pairs, and on the 2-sphere T_x and T_y from the ladder
relations, so the residual is orthogonal to every tangent to rounding.  One
cutoff, _PIN_RANK_TOL = 1e-6 on the singular values of the unit pinning
rows, sets the rank of both the pin basis B and the off-symmetry complement
Q.  A dropped value is a combination of group generators that fixes the
solution (an isotropy direction, such as the twisted one of so2-ring on the
2-sphere).  At the truncation-12 2-sphere branch points of both builtins
the dropped ones are at most 5.3e-10 (the level-6 so2-ring seed) and the
kept ones at least 0.65.
newton_solve also tests the point it converged to: an off-symmetry
eigenvalue of J below 1e-12 ||J||_1 means a kernel beyond the symmetry
directions, and the point is refused with NewtonError.

jacobian assembles the p(p+1)/2 blocks i <= j from the symmetrized nodal
Hessian and copies block (i, j) into (j, i).  Continuation assembles J once
per accepted point: the same J gives the point's smallest off-symmetry
singular value and the next tangent, and the seed from switch_branch carries
its J into continue_branch.

On the trivial branch c = 0 every quadrature node sees u0, so the Hessian is
one p x p matrix H0(lambda) = hess(u0, lambda) and, in the layout above,

    J(0, lambda) = diag(beta) - G kron H0(lambda),   G = (E w) E^T,

with G the assembled quadrature Gram matrix.  With sym(H0) = V diag(mu) V^T,
J(0, lambda) is orthogonally similar (by I kron V) to the direct sum over k
of diag(beta) - mu_k G, and with G = L L^T each block is congruent to
diag(theta) - mu_k I, where theta are the eigenvalues of L^-1 diag(beta)
L^-T.  By Sylvester's law of inertia the Morse index of J(0, lambda) is
sum_k #{b : theta_b < mu_k} (Parlett, The Symmetric Eigenvalue Problem,
1998, ch. 15), and lambda enters only through the p values mu_k.  The
pinning rows at c = 0 are e_0 kron g u0 for the component generators g,
with beta_0 = 0 and H0 g u0 = 0: zero modes of J(0, lambda) that never
enter the count, so the Morse sweep needs no off-symmetry complement.  It
computes theta once, from G, and assembles no Jacobian.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import spectral
from .potentials import PotentialSpec
from .spectral import DomainId, Quadrature

__all__ = [
    "NewtonError",
    "NoBranchError",
    "GalerkinProblem",
    "BranchPoint",
    "Branch",
    "build_problem",
    "assemble_residual",
    "jacobian",
    "newton_solve",
    "detect_bifurcation",
    "switch_branch",
    "continue_branch",
    "symmetry_vectors",
    "apply_group_element",
    "discrete_energy",
    "branch_to_csv",
    "branch_to_json",
]

NEWTON_TOL = 1e-10
# off-symmetry eigenvalues below -_MORSE_ZERO_TOL count in the Morse index;
# crossings are bisected to brackets narrower than _REFINE_TOL
_MORSE_ZERO_TOL = 1e-10
_REFINE_TOL = 1e-9
# singular values of the unit pinning rows at most this are dependencies
# among the rows, not symmetry directions; the one rank cutoff for both the
# pin basis and the off-symmetry complement (module docstring)
_PIN_RANK_TOL = 1e-6


class NewtonError(RuntimeError):
    """Newton iteration failed to converge."""


class NoBranchError(RuntimeError):
    """Branch switching collapsed back to the trivial family on both sides."""


@dataclass(frozen=True)
class GalerkinProblem:
    """Immutable discretization data for one (domain, potential) pair.

    Coefficient layout: c.reshape(n_funcs, p), basis functions ordered
    eigenvalue-major (k ascending, component index j inside), potential
    components innermost.  rotation_generators hold the exact n_funcs x
    n_funcs generators of the domain rotations acting on the rows of C,
    built from eigens alone: T_z about the reference axis on every domain,
    then T_x and T_y on the 2-sphere (the circle's and the disk's full
    rotation group is the reference axis).  Their tangents T C are pinned at
    the one rank cutoff _PIN_RANK_TOL.
    """

    domain: DomainId
    spec: PotentialSpec
    eigens: list
    funcs: list  # BasisFunction, flattened over (k, j)
    beta: np.ndarray  # per basis function
    E: np.ndarray  # (n_funcs, n_quad) basis values at quadrature nodes
    quad: Quadrature
    measure: float
    rotation_generators: tuple  # (T_z,) or (T_z, T_x, T_y), (n_funcs, n_funcs) each

    @property
    def n_funcs(self) -> int:
        return len(self.funcs)

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def n_dof(self) -> int:
        return self.n_funcs * self.p

    def evaluate(self, c) -> np.ndarray:
        """Values of u = u0 + expansion(c) at the quadrature nodes, (nq, p)."""
        C = np.asarray(c, float).reshape(self.n_funcs, self.p)
        return self.spec.u0[None, :] + self.E.T @ C

    def sup_deviation(self, c) -> float:
        """Max euclidean deviation |u(x) - u0| over quadrature nodes."""
        C = np.asarray(c, float).reshape(self.n_funcs, self.p)
        dev = self.E.T @ C
        return float(np.max(np.linalg.norm(dev, axis=1))) if dev.size else 0.0


def build_problem(
    domain: DomainId,
    spec: PotentialSpec,
    truncation: Optional[int] = None,
    beta_cutoff: Optional[float] = None,
) -> GalerkinProblem:
    """Assemble basis and quadrature for a domain/potential pair.

    Defaults: 16 distinct eigenvalues on the circle, spherical-harmonic degree
    8 on the 2-sphere, beta <= 60 on the disk.
    """
    gd = spec.grad_degree or 3
    if domain.kind == "sphere" and domain.dim == 2:
        n = truncation or 16
        eigens = spectral.sphere_spectrum(2, n)
    elif domain.kind == "sphere" and domain.dim == 3:
        n = truncation or 9
        eigens = spectral.sphere_spectrum(3, n)
    elif domain.kind == "ball" and domain.dim == 2:
        cutoff = beta_cutoff or 60.0
        eigens = spectral.ball_neumann_spectrum(2, cutoff)
        if truncation is not None:
            eigens = eigens[:truncation]
    else:
        raise ValueError(f"no Galerkin support on {domain.label}")
    max_l = max(e.angular_degree for e in eigens)
    quad = spectral.default_quadrature(domain, (gd + 1) * max_l)
    funcs = []
    for eig in eigens:
        funcs.extend(spectral.basis(domain, eig))
    E = np.stack([f.evaluator(*quad.points) for f in funcs])
    beta = np.array([f.beta for f in funcs])
    return GalerkinProblem(
        domain=domain,
        spec=spec,
        eigens=eigens,
        funcs=funcs,
        beta=beta,
        E=E,
        quad=quad,
        measure=domain.measure,
        rotation_generators=_rotation_generators(domain, eigens),
    )


# --------------------------------------------------------------------------
# residual and Jacobian


def assemble_residual(problem: GalerkinProblem, c, lam: float) -> np.ndarray:
    c = np.asarray(c, float)
    if c.size != problem.n_dof:
        raise ValueError(f"coefficient vector must have {problem.n_dof} entries")
    C = c.reshape(problem.n_funcs, problem.p)
    U = problem.evaluate(c)
    G = np.asarray(problem.spec.grad(U, lam), float).reshape(U.shape)
    proj = problem.E @ (problem.quad.weights[:, None] * G)
    return (problem.beta[:, None] * C - proj).ravel()


def jacobian(problem: GalerkinProblem, c, lam: float) -> np.ndarray:
    c = np.asarray(c, float)
    U = problem.evaluate(c)
    H = np.asarray(problem.spec.hess(U, lam), float).reshape(U.shape[0], problem.p, problem.p)
    Ew = problem.E * problem.quad.weights[None, :]
    nf, p = problem.n_funcs, problem.p
    J = np.zeros((nf, p, nf, p))
    # block (i, j) depends on the nodal values H_ij alone, so with the
    # symmetrized h it equals block (j, i) entry for entry; for a bitwise
    # symmetric Hessian h = H_ij exactly, and the sign in the weight rounds
    # like a negated product
    for i in range(p):
        for j in range(i, p):
            h = 0.5 * (H[:, i, j] + H[:, j, i])
            J[:, i, :, j] = Ew @ ((-h)[:, None] * problem.E.T)
            if j != i:
                J[:, j, :, i] = J[:, i, :, j]
    J = J.reshape(problem.n_dof, problem.n_dof)
    J[np.diag_indices_from(J)] += np.repeat(problem.beta, p)
    return J


def _residual_lambda_derivative(problem, c, lam):
    h = 1e-6 * (1.0 + abs(lam))
    rp = assemble_residual(problem, c, lam + h)
    rm = assemble_residual(problem, c, lam - h)
    return (rp - rm) / (2.0 * h)


def discrete_energy(problem: GalerkinProblem, c, lam: float) -> float:
    """Discretized functional: quadratic Dirichlet part minus the potential."""
    c = np.asarray(c, float)
    C = c.reshape(problem.n_funcs, problem.p)
    dirichlet = 0.5 * float(np.sum(problem.beta[:, None] * C * C))
    U = problem.evaluate(c)
    Fv = np.asarray(problem.spec.value(U, lam), float)
    return dirichlet - float(np.dot(problem.quad.weights, Fv))


# --------------------------------------------------------------------------
# symmetry machinery


def _angular_pairs(domain, eigens):
    """(cos_row, sin_row, frequency) triples of basis functions that rotate
    into each other under the domain rotation about the reference axis."""
    pairs = []
    row = 0
    for eig in eigens:
        l = eig.angular_degree
        if domain.kind == "ball" or domain.dim == 2:
            # circle and disk: one (cos, sin) pair per eigenvalue
            if l > 0:
                pairs.append((row, row + 1, l))
        else:  # 2-sphere: ordering m = 0, (1, cos), (1, sin), (2, cos), ...
            base = row + 1
            for m in range(1, l + 1):
                pairs.append((base, base + 1, m))
                base += 2
        row += eig.multiplicity
    return pairs


def _rotation_generators(domain, eigens):
    """Exact rotation generators on the basis rows: T_z from the angular
    pairs on every domain, and on the 2-sphere T_x and T_y from the ladder
    relations in the real basis (zonal, (1, cos), (1, sin), ... with the
    Condon-Shortley phase).  Each is antisymmetric and keeps every
    eigenspace, and on the 2-sphere [T_x, T_y] = T_z cyclically."""
    n = sum(e.multiplicity for e in eigens)
    Tz = np.zeros((n, n))
    for cos_row, sin_row, freq in _angular_pairs(domain, eigens):
        Tz[cos_row, sin_row] = -freq
        Tz[sin_row, cos_row] = freq
    if domain.kind != "sphere" or domain.dim != 3:
        return (Tz,)
    # upper triangles; row z is Y_l^0 and rows z + 2m - 1, z + 2m are the
    # (m, cos), (m, sin) pair
    Tx, Ty = np.zeros((n, n)), np.zeros((n, n))
    z = 0
    for eig in eigens:
        l = eig.angular_degree
        if l > 0:
            k0 = math.sqrt(l * (l + 1) / 2.0)
            Tx[z, z + 2] = -k0
            Ty[z, z + 1] = k0
            for m in range(1, l):
                k = 0.5 * math.sqrt((l - m) * (l + m + 1))
                cm, sm = z + 2 * m - 1, z + 2 * m
                Tx[cm, sm + 2] = -k
                Tx[sm, cm + 2] = k
                Ty[cm, cm + 2] = k
                Ty[sm, sm + 2] = k
        z += eig.multiplicity
    return (Tz, Tx - Tx.T, Ty - Ty.T)


def symmetry_vectors(problem: GalerkinProblem, c) -> list[np.ndarray]:
    """Tangent vectors of the continuous-symmetry orbit at coefficients c.

    Component rotations act on the full state u = u0 + v, so their generator
    contributes a constant-block offset for u0 on top of the blockwise
    rotation of v; domain rotations fix constants and act through the exact
    generators T as T C, so the full rotation group is pinned on every
    supported domain.  Near-zero vectors (directions the symmetry fixes) are
    dropped.
    """
    C = np.asarray(c, float).reshape(problem.n_funcs, problem.p)
    vecs = []
    for g in problem.spec.action.generators():
        v = C @ g.T
        v[0, :] += math.sqrt(problem.measure) * (g @ problem.spec.u0)
        vecs.append(v.ravel())
    for T in problem.rotation_generators:
        vecs.append((T @ C).ravel())
    return [v for v in vecs if np.linalg.norm(v) > 1e-12]


def _pinning_rows(problem, c):
    vecs = symmetry_vectors(problem, c)
    if not vecs:
        return np.zeros((0, problem.n_dof))
    rows = np.stack([v / np.linalg.norm(v) for v in vecs])
    return rows


def _offsym_complement(problem, c):
    rows = _pinning_rows(problem, c)
    if rows.shape[0] == 0:
        return np.eye(problem.n_dof)
    u, s, _ = np.linalg.svd(rows.T, full_matrices=True)
    rank = int(np.sum(s > _PIN_RANK_TOL))
    return u[:, rank:]


def _offsym_block(problem, c, J):
    """(M, Q): the Jacobian J at c restricted off symmetry directions,
    M = Q^T J Q, and the orthonormal complement Q of the symmetry tangents."""
    Q = _offsym_complement(problem, c)
    return Q.T @ J @ Q, Q


def _min_offsym_singular(problem, c, J):
    M, _ = _offsym_block(problem, c, J)
    if M.size == 0:
        return 0.0
    # M is symmetric up to rounding: its singular values are the moduli of
    # its eigenvalues
    return float(np.min(np.abs(np.linalg.eigvalsh(0.5 * (M + M.T)))))


# --------------------------------------------------------------------------
# Newton and branch data


@dataclass(frozen=True)
class BranchPoint:
    """One converged solution: sup_norm is the max deviation |u - u0| over
    quadrature nodes."""

    lam: float
    c: np.ndarray
    residual_norm: float
    min_offsym_singular: float
    sup_norm: float


@dataclass
class Branch:
    """A continuation path with its origin and the observed stopping reason."""

    points: list
    origin: tuple  # ("trivial", None) or ("bifurcated", lambda_star)
    termination: Optional[str] = None
    # (point, J at that point) from switch_branch, taken by the first
    # continue_branch from this seed so the seed's J is assembled once
    _jacobian: Optional[tuple] = field(default=None, repr=False, compare=False)


def _make_point(problem, c, lam, residual_norm, J):
    """Branch point at (c, lam) with the Jacobian J there."""
    return BranchPoint(
        lam=float(lam),
        c=np.asarray(c, float).copy(),
        residual_norm=float(residual_norm),
        min_offsym_singular=_min_offsym_singular(problem, c, J),
        sup_norm=problem.sup_deviation(c),
    )


def _newton_system(problem, c, lam, J, border=None):
    """Square Newton matrix at (c, lam) from the Jacobian J there: [J B^T;
    B 0] with B an orthonormal basis of the pinning rows' span, or, given a
    border row over (c, lam), the lambda-free [J r_lambda B^T; B 0 0;
    border 0].  The unknowns are the step (in c, then lambda) followed by
    one multiplier per row of B."""
    _, s, vt = np.linalg.svd(_pinning_rows(problem, c), full_matrices=False)
    B = vt[: int(np.sum(s > _PIN_RANK_TOL))]
    k = B.shape[0]
    if border is None:
        return np.block([[J, B.T], [B, np.zeros((k, k))]])
    rl = _residual_lambda_derivative(problem, c, lam)
    return np.block(
        [
            [J, rl[:, None], B.T],
            [B, np.zeros((k, 1 + k))],
            [border[None, :], np.zeros((1, k))],
        ]
    )


def _solve(A, b, lam):
    """Solution of the square Newton system A x = b (LU)."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as err:
        raise NewtonError(f"singular Newton system at lambda={lam}") from err


def _regular_point(problem, c, lam, residual_norm, J):
    """Branch point at a converged (c, lam), or NewtonError when J is
    singular beyond the symmetry directions there."""
    bp = _make_point(problem, c, lam, residual_norm, J)
    if bp.min_offsym_singular < 1e-12 * np.linalg.norm(J, 1):
        raise NewtonError(f"singular Jacobian beyond pinning rank at lambda={lam}")
    return bp


def _newton(problem, c0, lam):
    """newton_solve's iteration: the point and the Jacobian J there."""
    c = np.asarray(c0, float).copy()
    if not np.all(np.isfinite(c)):
        raise ValueError("initial guess must be finite")
    n = problem.n_dof
    for _ in range(25):
        r = assemble_residual(problem, c, lam)
        rn = float(np.linalg.norm(r))
        J = jacobian(problem, c, lam)
        if rn <= NEWTON_TOL:
            return _regular_point(problem, c, lam, rn, J), J
        A = _newton_system(problem, c, lam, J)
        # neither is held through the next assembly (peak memory)
        del J
        delta = _solve(A, np.concatenate([-r, np.zeros(A.shape[0] - n)]), lam)[:n]
        del A
        if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 1e8 * (1.0 + np.linalg.norm(c)):
            raise NewtonError(f"Newton step diverged at lambda={lam}")
        c = c + delta
    r = assemble_residual(problem, c, lam)
    rn = float(np.linalg.norm(r))
    if rn <= NEWTON_TOL:
        J = jacobian(problem, c, lam)
        return _regular_point(problem, c, lam, rn, J), J
    raise NewtonError(f"Newton did not converge at lambda={lam} (residual {rn:.3e})")


def newton_solve(problem: GalerkinProblem, c0, lam: float) -> BranchPoint:
    """Newton iteration at fixed lambda on the square system bordered by the
    symmetry pin basis; raises NewtonError if it does not converge or if the
    Jacobian at the solution is singular beyond the symmetry directions."""
    return _newton(problem, c0, lam)[0]


def _bordered_newton(problem, c, lam, border, base, offset, border_tol, maxit):
    """Newton with lambda free on [J r_lambda B^T; B 0 0; border 0] that holds
    border . ((c, lam) - base) - offset at zero.  Returns (c, lam, residual
    norm) once the residual norm is at most NEWTON_TOL and the border residual
    at most border_tol; raises NewtonError on a non-finite step or after maxit
    steps."""
    n = problem.n_dof
    lam = float(lam)
    for _ in range(maxit):
        r = assemble_residual(problem, c, lam)
        rn = float(np.linalg.norm(r))
        # the c part and the lambda term are summed apart, so the rounding does
        # not depend on how the BLAS dot kernel splits n + 1 terms
        g = float(np.dot(border[:n], c - base[:n]) + border[n] * (lam - base[n]) - offset)
        if rn <= NEWTON_TOL and abs(g) <= border_tol:
            return c, lam, rn
        A = _newton_system(problem, c, lam, jacobian(problem, c, lam), border)
        delta = _solve(A, np.concatenate([-r, np.zeros(A.shape[0] - n - 1), [-g]]), lam)
        if not np.all(np.isfinite(delta)):
            raise NewtonError(f"bordered Newton step diverged at lambda={lam}")
        c = c + delta[:n]
        lam = lam + delta[n]
    raise NewtonError(f"bordered Newton did not converge near lambda={lam}")


# --------------------------------------------------------------------------
# bifurcation detection on the trivial branch


def _trivial_spectrum(problem):
    """Sorted generalized eigenvalues theta of (diag(beta), G), with the
    quadrature Gram matrix G = (E w) E^T = L L^T: the eigenvalues of
    L^-1 diag(beta) L^-T, the discrete Laplacian spectrum of the basis."""
    G = (problem.E * problem.quad.weights[None, :]) @ problem.E.T
    Linv = np.linalg.inv(np.linalg.cholesky(G))
    return np.linalg.eigvalsh((Linv * problem.beta[None, :]) @ Linv.T)


def _trivial_morse_index(problem, theta, lam):
    """Morse index of J(0, lam) from the discrete spectrum theta and the p
    eigenvalues mu_k of the symmetrized H0(lam): the number of pairs with
    theta_b - mu_k < -_MORSE_ZERO_TOL (module docstring)."""
    p = problem.p
    H0 = np.asarray(problem.spec.hess(problem.spec.u0[None, :], lam), float).reshape(p, p)
    mu = np.linalg.eigvalsh(0.5 * (H0 + H0.T))
    return int(np.count_nonzero(theta[None, :] - mu[:, None] < -_MORSE_ZERO_TOL))


def detect_bifurcation(problem: GalerkinProblem, window, steps: int = 200) -> list[float]:
    """Levels in the window where an off-symmetry eigenvalue of the
    trivial-branch Jacobian crosses zero, refined by bisection.

    The crossing test is a change of the Morse index of J(0, lambda), which
    is robust for even-multiplicity crossings.  It is counted from the
    discrete spectrum theta, computed once, and the p eigenvalues mu_k of
    the symmetrized H0(lambda): sum_k #{b : theta_b - mu_k < -tol} (module
    docstring), so no Jacobian is assembled and the persistent zero modes
    of the pinning directions stay outside the count.  Crossings at
    lambda = 0 are not bifurcation levels and are dropped.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must have positive length")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    grid = list(np.linspace(lo, hi, steps + 1))
    grid = [g if abs(g) > 1e-12 else 1e-12 for g in grid]
    theta = _trivial_spectrum(problem)
    morse = [_trivial_morse_index(problem, theta, g) for g in grid]

    # brackets of a count change, bisected until narrower than _REFINE_TOL;
    # a stack rather than a recursive closure, whose reference cycle would
    # keep the sweep's arrays alive until the next garbage collection
    brackets = [
        (grid[i], morse[i], grid[i + 1], morse[i + 1])
        for i in range(len(grid) - 1)
        if morse[i + 1] != morse[i]
    ]
    found = []
    while brackets:
        a, ma, b, mb = brackets.pop()
        if b - a < _REFINE_TOL:
            found.append(0.5 * (a + b))
            continue
        mid = 0.5 * (a + b)
        mm = _trivial_morse_index(problem, theta, mid)
        if mm != ma:
            brackets.append((a, ma, mid, mm))
        if mb != mm:
            brackets.append((mid, mm, b, mb))

    out = []
    for lam in sorted(found):
        if abs(lam) < 1e-6:
            continue
        if not out or abs(lam - out[-1]) > 1e-8:
            out.append(lam)
    return out


def _kernel_direction(problem, lam_star):
    zero = np.zeros(problem.n_dof)
    M, Q = _offsym_block(problem, zero, jacobian(problem, zero, lam_star))
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    idx = int(np.argmin(np.abs(vals)))
    v = Q @ vecs[:, idx]
    # scale so the seed function has unit sup deviation
    amp = problem.sup_deviation(v)
    if amp <= 0:
        raise NoBranchError(f"no kernel direction found at lambda={lam_star}")
    return v / amp


def switch_branch(problem: GalerkinProblem, lam_star: float, amplitude: float = 0.05) -> Branch:
    """Seed a bifurcated branch near a detected level.

    The initial guess is amplitude times the normalized kernel direction; a
    Newton correction is attempted at the first-order branch location on
    both sides of lam_star, and the side that converges to a nontrivial
    solution wins.  If both fixed-lambda probes collapse to the trivial
    family (degenerate kernels make them fragile), an amplitude-pinned
    bordered solve locates the branch with lambda free.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    v = _kernel_direction(problem, lam_star)
    seed = amplitude * v
    # shift lambda to zero the kernel-direction residual at the seed
    r0 = assemble_residual(problem, seed, lam_star)
    rl = _residual_lambda_derivative(problem, seed, lam_star)
    vhat = v / np.linalg.norm(v)
    den = float(np.dot(rl, vhat))
    delta = -float(np.dot(r0, vhat)) / den if abs(den) > 1e-14 else 0.0
    offset = math.copysign(max(abs(delta), 1e-4), delta if delta else 1.0)
    for lam in (lam_star + offset, lam_star - offset):
        try:
            bp, J = _newton(problem, seed, lam)
        except NewtonError:
            continue
        if bp.sup_norm > 0.05 * amplitude:
            return Branch(points=[bp], origin=("bifurcated", float(lam_star)), _jacobian=(bp, J))
    # the border (vhat, 0) holds the kernel amplitude vhat . c at its seed
    # value; regular at pitchforks, where fixed-lambda iterations bounce
    # between the mirror branches
    border = np.append(vhat, 0.0)
    target = float(np.dot(vhat, seed))
    try:
        c, lam, rn = _bordered_newton(
            problem, seed, lam_star, border, np.zeros_like(border), target, NEWTON_TOL, 30
        )
    except NewtonError:
        pass
    else:
        J = jacobian(problem, c, lam)
        bp = _make_point(problem, c, lam, rn, J)
        drift = abs(bp.lam - lam_star)
        if bp.sup_norm > 0.05 * amplitude and 1e-13 < drift <= 0.5 * max(1.0, abs(lam_star)):
            return Branch(points=[bp], origin=("bifurcated", float(lam_star)), _jacobian=(bp, J))
    raise NoBranchError(f"no branch captured at lambda_star={lam_star}")


# --------------------------------------------------------------------------
# pseudo-arclength continuation


def _tangent(problem, c, lam, J, t_prev):
    A = _newton_system(problem, c, lam, J, t_prev)
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    t = _solve(A, b, lam)[: problem.n_dof + 1]
    nt = np.linalg.norm(t)
    if nt == 0 or not np.all(np.isfinite(t)):
        raise NewtonError("tangent computation failed")
    t = t / nt
    if np.dot(t, t_prev) < 0:
        t = -t
    return t


def continue_branch(
    problem: GalerkinProblem,
    seed: Branch,
    lam_limits,
    max_steps: int = 200,
    ds0: float = 0.02,
    ds_min: float = 1e-4,
    ds_max: float = 0.2,
) -> Branch:
    """Pseudo-arclength continuation from a seed branch.

    Steps adapt by halving on corrector failure and growing on fast
    convergence; the run stops at the lambda limits, on step underflow, after
    max_steps, or when the branch returns to the trivial family away from its
    origin level ("reconnects-to-trivial").
    """
    lo, hi = float(lam_limits[0]), float(lam_limits[1])
    points = list(seed.points)
    if not points:
        raise ValueError("seed branch has no points")
    origin = seed.origin
    branch = Branch(points=points, origin=origin)
    c = points[-1].c.copy()
    lam = points[-1].lam
    n = problem.n_dof
    if origin[0] == "bifurcated" and origin[1] is not None:
        t_prev = np.concatenate([c, [lam - origin[1]]])
        nt = np.linalg.norm(t_prev)
        t_prev = t_prev / nt if nt > 0 else np.concatenate([np.zeros(n), [1.0]])
    else:
        t_prev = np.concatenate([np.zeros(n), [1.0]])
    ds = ds0
    # the Jacobian at the last accepted point serves its branch point and the
    # next tangent, and is dropped before the corrector runs; a seed from
    # switch_branch hands over the one it assembled for its point
    point, J = seed._jacobian or (None, None)
    seed._jacobian = None
    if point is not points[-1]:
        J = jacobian(problem, c, lam)
    for _ in range(max_steps):
        try:
            t = _tangent(problem, c, lam, J, t_prev)
        except NewtonError:
            branch.termination = "tangent-failure"
            return branch
        J = None
        accepted = False
        while ds >= ds_min:
            c_pred = c + ds * t[:n]
            lam_pred = lam + ds * t[n]
            try:
                # the border t holds the arclength from (c, lam) at ds
                c_new, lam_new, rn = _bordered_newton(
                    problem, c_pred, lam_pred, t, np.append(c, lam), ds, 10 * NEWTON_TOL, 12
                )
                accepted = True
                break
            except NewtonError:
                ds *= 0.5
        if not accepted:
            branch.termination = "step-underflow"
            return branch
        c, lam = c_new, lam_new
        t_prev = t
        J = jacobian(problem, c, lam)
        bp = _make_point(problem, c, lam, rn, J)
        branch.points.append(bp)
        ds = min(ds * 1.4, ds_max)
        if lam < lo or lam > hi:
            branch.termination = "lambda-limit"
            return branch
        if origin[0] == "bifurcated" and bp.sup_norm < 1e-7 and abs(lam - origin[1]) > 1e-3:
            branch.termination = "reconnects-to-trivial"
            return branch
    branch.termination = "max-steps"
    return branch


# --------------------------------------------------------------------------
# group action on coefficient vectors (exact, for equivariance checks)


def apply_group_element(
    problem: GalerkinProblem,
    c,
    domain_angle: float = 0.0,
    gamma: Optional[np.ndarray] = None,
    include_shift: bool = True,
) -> np.ndarray:
    """Coefficients of (gamma, rotation) applied to the state u = u0 + v.

    Domain rotation is about the reference axis (the full rotation group on
    the circle and the disk).  With include_shift=False only the linear part
    acts, which is how the residual transforms.
    """
    C = np.asarray(c, float).reshape(problem.n_funcs, problem.p).copy()
    if domain_angle != 0.0:
        out = C.copy()
        for cos_row, sin_row, freq in _angular_pairs(problem.domain, problem.eigens):
            ang = freq * domain_angle
            ca, sa = math.cos(ang), math.sin(ang)
            out[cos_row, :] = ca * C[cos_row, :] - sa * C[sin_row, :]
            out[sin_row, :] = sa * C[cos_row, :] + ca * C[sin_row, :]
        C = out
    if gamma is not None:
        gamma = np.asarray(gamma, float)
        C = C @ gamma.T
        if include_shift:
            C[0, :] += math.sqrt(problem.measure) * (gamma @ problem.spec.u0 - problem.spec.u0)
    return C.ravel()


# --------------------------------------------------------------------------
# export


def branch_to_csv(branch: Branch, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "sup_norm", "residual_norm", "min_offsym_singular"])
        for bp in branch.points:
            writer.writerow([bp.lam, bp.sup_norm, bp.residual_norm, bp.min_offsym_singular])


def branch_to_json(branch: Branch, include_coefficients: bool = False) -> dict:
    doc = {
        "origin": {"kind": branch.origin[0], "lambda_star": branch.origin[1]},
        "termination": branch.termination,
        "points": [
            {
                "lambda": bp.lam,
                "sup_norm": bp.sup_norm,
                "residual_norm": bp.residual_norm,
                "min_offsym_singular": bp.min_offsym_singular,
            }
            for bp in branch.points
        ],
    }
    if include_coefficients:
        for rec, bp in zip(doc["points"], branch.points):
            rec["coefficients"] = [float(x) for x in bp.c]
    return doc
