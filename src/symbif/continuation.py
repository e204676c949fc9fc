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
multiplier mu, which is zero at a solution.  The solves that free lambda
add the lambda column r_lambda and one border row b over (c, lambda):

    [J  B^T] [dc]        [J  r_lambda  B^T] [dc     ]
    [B  0  ] [mu]        [B  0         0  ] [dlambda]
                         [b            0  ] [mu     ]

The border b is (vhat, 0) in the branch switch, with vhat the unit kernel
direction, so one solve holds the kernel amplitude and finds lambda; it is
the previous tangent for the pseudo-arclength tangent and the new tangent
in the corrector.  _newton_system builds either matrix and every system is
solved by LU (np.linalg.solve); a singular factorization raises
NewtonError.  The domain-rotation tangents are T C for exact generator
matrices T: T_z from the (cos, sin) pairs, and on the 2-sphere T_x and T_y
from the ladder relations, so the residual is orthogonal to every tangent
to rounding.  One cutoff, _PIN_RANK_TOL = 1e-6 on the singular values of
the unit pinning rows, sets the rank of both the pin basis B and the
off-symmetry complement Q.

Branches are followed in a fixed-point subspace.  Every branch seed lies in
Fix(Sigma) of an axial subgroup Sigma (_kernel_direction): the zonal rows on
the 2-sphere, every row but the sin rows on the circle and the disk.  The
residual maps Fix(Sigma) into itself, so switch_branch and continue_branch
solve on the Galerkin problem restricted to those rows (Healey, Comput.
Methods Appl. Mech. Eng. 67, 1988; Gatermann & Hohmann, IMPACT Comput. Sci.
Eng. 3, 1991).  The domain-rotation tangents leave Fix(Sigma), so only the
component generators are pinned there; row 0, the constant row, stays first.
continue_branch takes all rows instead when its seed has a nonzero
coefficient off Fix(Sigma).  BranchPoint.c is the full coefficient vector,
zero off the rows followed.

At a Sigma-fixed point the full-space J commutes with Sigma and is
block-diagonal by isotypic component (Faessler & Stiefel, Group Theoretical
Methods and Their Applications, 1992): on the 2-sphere one block per
azimuthal index m, the cos and the sin rows of m giving equal blocks; on the
circle and the disk the reflection-even rows and the sin rows.  Each symmetry
tangent lies in one block (the component generators in the first, T_x C and
T_y C in the m = 1 sin and cos blocks, T_z C in the sin rows of the circle
and the disk, while T_z C = 0 on the 2-sphere), so the full-space
off-symmetry spectrum is the union of the block spectra, each taken off the
tangents that fall in the block.  The first block is the Jacobian the
continuation assembles anyway; the others come from the same nodal Hessian.
A point's min_offsym_singular is the smallest modulus over the blocks, and
block_morse_index counts each block's negative eigenvalues.  With all rows
in one block (continuation off Fix(Sigma), and newton_solve) this is the
dense value of Q^T J Q.
newton_solve also tests the point it converged to: an off-symmetry
eigenvalue of J below 1e-12 ||J||_1 means a kernel beyond the symmetry
directions, and the point is refused with NewtonError.

jacobian assembles the p(p+1)/2 blocks i <= j from the symmetrized nodal
Hessian and copies block (i, j) into (j, i).  Continuation assembles the
reduced J once per point, its start point included: the same J is the
point's first diagnostic block and gives the next tangent.  The corrector
then assembles none while it can: it takes chord (simplified Newton) steps
on the tangent's bordered matrix, whose J, r_lambda and B are those of the
last accepted point, with the border row replaced by the new tangent; each
step is one residual and one LU solve (Allgower & Georg, Introduction to
Numerical Continuation Methods, 2003).  It keeps that matrix while every
step cuts the residual norm at least fourfold (_CHORD_BAR).  On the first
step that does not (a contraction monitor in the sense of Deuflhard, Newton
Methods for Nonlinear Problems, 2004), it restarts from the same predictor
with full Newton, one J per step.  A stalled chord costs a few residuals and
solves, and the step is then accepted or halved exactly as full Newton
decides.

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
import dataclasses
from dataclasses import dataclass
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
# pin basis and the off-symmetry complement of every block (module docstring)
_PIN_RANK_TOL = 1e-6
# a chord corrector step must cut the residual norm at least fourfold, or the
# corrector falls back to full Newton; a bar of 1 (chord until the residual
# grows) lets slowly contracting correctors near a level run on and then
# fall back anyway, which made disk continuation slower
_CHORD_BAR = 0.25
# switch_branch seeds at this multiple of the unit axial kernel direction;
# continue_branch starts at step _DS0 and stops when the step halves below
# _DS_MIN
_SEED_AMPLITUDE = 0.05
_DS0 = 0.02
_DS_MIN = 1e-4


class NewtonError(RuntimeError):
    """Newton iteration failed to converge."""


class NoBranchError(RuntimeError):
    """The amplitude-pinned branch switch failed: its Newton solve did not
    converge, or its point is not a nontrivial branch point near the level.
    The message names the cause."""


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

    Branch switching and continuation solve on a private copy restricted to
    the rows of an axial fixed-point subspace (_subspace): E and beta are
    row subsets, rotation_generators is empty and eigens is the full
    problem's.  The full problem's Jacobian at a point of that subspace is
    block-diagonal by isotypic component (_isotypic_rows), and the
    diagnostics of every branch point come from those blocks.
    """

    domain: DomainId
    spec: PotentialSpec
    eigens: list
    beta: np.ndarray  # per basis function, flattened over (k, j)
    E: np.ndarray  # (n_funcs, n_quad) basis values at quadrature nodes
    quad: Quadrature
    rotation_generators: tuple  # (T_z,) or (T_z, T_x, T_y), (n_funcs, n_funcs) each

    @property
    def n_funcs(self) -> int:
        return self.beta.size

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
    8 on the 2-sphere, beta <= 60 on the disk.  A truncation below 1 or a
    beta_cutoff that is not positive raises ValueError.
    """
    if truncation is not None and truncation < 1:
        raise ValueError(f"truncation must be at least 1, got {truncation}")
    if beta_cutoff is not None and not beta_cutoff > 0:
        raise ValueError(f"beta_cutoff must be positive, got {beta_cutoff}")
    gd = spec.grad_degree or 3
    if domain.kind == "sphere" and domain.dim == 2:
        eigens = spectral.sphere_spectrum(2, 16 if truncation is None else truncation)
    elif domain.kind == "sphere" and domain.dim == 3:
        eigens = spectral.sphere_spectrum(3, 9 if truncation is None else truncation)
    elif domain.kind == "ball" and domain.dim == 2:
        eigens = spectral.ball_neumann_spectrum(2, 60.0 if beta_cutoff is None else beta_cutoff)
        if truncation is not None:
            eigens = eigens[:truncation]
    else:
        raise ValueError(f"no Galerkin support on {domain.label}")
    max_l = max(e.angular_degree for e in eigens)
    quad = spectral.default_quadrature(domain, (gd + 1) * max_l)
    funcs = [f for eig in eigens for f in spectral.basis(domain, eig)]
    E = np.stack([f.evaluator(*quad.points) for f in funcs])
    beta = np.array([f.beta for f in funcs])
    return GalerkinProblem(
        domain=domain,
        spec=spec,
        eigens=eigens,
        beta=beta,
        E=E,
        quad=quad,
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
    H = _nodal_hessian(problem, c, lam)
    return _assemble_jacobian(problem.E, problem.quad.weights, problem.beta, H)


def _nodal_hessian(problem, c, lam):
    """Hessian of F at the quadrature nodes, (nq, p, p)."""
    U = problem.evaluate(c)
    return np.asarray(problem.spec.hess(U, lam), float).reshape(U.shape[0], problem.p, problem.p)


def _assemble_jacobian(E, weights, beta, H):
    """Jacobian on the basis rows E (eigenvalues beta) from the nodal Hessian
    H: diag(beta) kron I - int e_a e_b H, in the coefficient layout."""
    Ew = E * weights[None, :]
    nf, p = E.shape[0], H.shape[1]
    J = np.zeros((nf, p, nf, p))
    # block (i, j) depends on the nodal values H_ij alone, so with the
    # symmetrized h it equals block (j, i) entry for entry; for a bitwise
    # symmetric Hessian h = H_ij exactly, and the sign in the weight rounds
    # like a negated product
    for i in range(p):
        for j in range(i, p):
            h = 0.5 * (H[:, i, j] + H[:, j, i])
            J[:, i, :, j] = Ew @ ((-h)[:, None] * E.T)
            if j != i:
                J[:, j, :, i] = J[:, i, :, j]
    J = J.reshape(nf * p, nf * p)
    J[np.diag_indices_from(J)] += np.repeat(beta, p)
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
        v[0, :] += math.sqrt(problem.domain.measure) * (g @ problem.spec.u0)
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


def _complement(rows):
    """Orthonormal basis (columns) of the complement of the span of rows,
    whose rank is set by the cutoff _PIN_RANK_TOL."""
    if rows.shape[0] == 0:
        return np.eye(rows.shape[1])
    u, s, _ = np.linalg.svd(rows.T, full_matrices=True)
    return u[:, int(np.sum(s > _PIN_RANK_TOL)) :]


def _offsym_eigenvalues(rows, J):
    """Eigenvalues of Q^T J Q, with Q the orthonormal complement of the
    pinning rows restricted to J's block (rows that vanish there are not
    in the block); J is symmetric up to rounding."""
    rows = rows[np.any(rows != 0, axis=1)]
    if rows.shape[0]:
        Q = _complement(rows)
        J = Q.T @ J @ Q
    return np.linalg.eigvalsh(0.5 * (J + J.T))


def _isotypic_rows(problem):
    """Basis rows of the isotypic blocks of the Jacobian at a point fixed by
    the axial subgroup of _kernel_direction, first the rows it fixes.  On
    the 2-sphere: the zonal rows, then the cos rows of m = 1, 2, ..., each
    block equal to that of the sin rows of the same m.  On the circle and
    the disk: the reflection-even rows, then the sin rows."""
    pairs = _angular_pairs(problem.domain, problem.eigens)
    if problem.domain.kind == "sphere" and problem.domain.dim == 3:
        moved = {row for cos_row, sin_row, _ in pairs for row in (cos_row, sin_row)}
        orders = sorted({m for _, _, m in pairs})
        others = [[cos_row for cos_row, _, m in pairs if m == order] for order in orders]
    else:
        moved = {sin_row for _, sin_row, _ in pairs}
        others = [sorted(moved)] if moved else []
    fixed = [r for r in range(problem.n_funcs) if r not in moved]
    return [np.array(rows) for rows in [fixed, *others]]


@dataclass(frozen=True)
class _Subspace:
    """The rows of full that a branch is followed on: problem is full
    restricted to blocks[0] (full itself when that is every row), idx the
    coefficient indices of those rows in full, and blocks the isotypic
    blocks of full's Jacobian at the points followed."""

    full: GalerkinProblem
    problem: GalerkinProblem
    idx: np.ndarray
    blocks: tuple

    def lift(self, c) -> np.ndarray:
        out = np.zeros(self.full.n_dof)
        out[self.idx] = c
        return out


def _coefficient_indices(rows, p):
    return (rows[:, None] * p + np.arange(p)).ravel()


def _subspace(problem, blocks):
    """The _Subspace on the rows blocks[0] of problem."""
    rows = blocks[0]
    sub = problem
    if rows.size < problem.n_funcs:
        sub = dataclasses.replace(
            problem,
            E=problem.E[rows],
            beta=problem.beta[rows],
            rotation_generators=(),
        )
    return _Subspace(problem, sub, _coefficient_indices(rows, problem.p), tuple(blocks))


def _branch_space(problem, c):
    """Fix(Sigma) with its isotypic blocks when c vanishes exactly off it,
    otherwise every row in one block."""
    blocks = _isotypic_rows(problem)
    off = np.ones(problem.n_funcs, bool)
    off[blocks[0]] = False
    if np.any(np.asarray(c, float).reshape(problem.n_funcs, problem.p)[off] != 0):
        blocks = [np.arange(problem.n_funcs)]
    return _subspace(problem, blocks)


# --------------------------------------------------------------------------
# Newton and branch data


@dataclass(frozen=True)
class BranchPoint:
    """One converged solution: c is the full coefficient vector,
    residual_norm the residual norm in the space the point was solved in,
    and sup_norm the max deviation |u - u0| over quadrature nodes.

    min_offsym_singular is the smallest singular value of the full-space J
    off the symmetry tangents, and block_morse_index the number of its
    off-symmetry eigenvalues below -_MORSE_ZERO_TOL per isotypic block
    (_isotypic_rows): on the 2-sphere m = 0, 1, ..., where each m >= 1
    block counts twice in the full-space index (its cos and sin rows); on
    the circle and the disk the reflection-even rows, then the sin rows.  A
    point solved on every row has one block."""

    lam: float
    c: np.ndarray
    residual_norm: float
    min_offsym_singular: float
    sup_norm: float
    block_morse_index: tuple


@dataclass
class Branch:
    """A continuation path with its origin and the observed stopping reason."""

    points: list
    origin: tuple  # ("trivial", None) or ("bifurcated", lambda_star)
    termination: Optional[str] = None


def _make_point(space, c, lam, residual_norm, J):
    """Branch point at the coefficients c of space.problem, with J the
    Jacobian there: the first isotypic block.  The other blocks are
    assembled from the nodal Hessian at c on the full problem's rows."""
    full, lifted = space.full, space.lift(c)
    pins = _pinning_rows(full, lifted)
    H = _nodal_hessian(space.problem, c, lam) if len(space.blocks) > 1 else None
    spectra = []
    for k, rows in enumerate(space.blocks):
        if k:
            J = _assemble_jacobian(full.E[rows], full.quad.weights, full.beta[rows], H)
        spectra.append(_offsym_eigenvalues(pins[:, _coefficient_indices(rows, full.p)], J))
    moduli = [float(np.min(np.abs(ev))) for ev in spectra if ev.size]
    return BranchPoint(
        lam=float(lam),
        c=lifted,
        residual_norm=float(residual_norm),
        min_offsym_singular=min(moduli, default=0.0),
        sup_norm=space.problem.sup_deviation(c),
        block_morse_index=tuple(int(np.count_nonzero(ev < -_MORSE_ZERO_TOL)) for ev in spectra),
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
    space = _subspace(problem, [np.arange(problem.n_funcs)])
    bp = _make_point(space, c, lam, residual_norm, J)
    if bp.min_offsym_singular < 1e-12 * np.linalg.norm(J, 1):
        raise NewtonError(f"singular Jacobian beyond pinning rank at lambda={lam}")
    return bp


def newton_solve(problem: GalerkinProblem, c0, lam: float) -> BranchPoint:
    """Newton iteration at fixed lambda on the square system bordered by the
    symmetry pin basis; raises NewtonError if it does not converge or if the
    Jacobian at the solution is singular beyond the symmetry directions."""
    c = np.asarray(c0, float).copy()
    if not np.all(np.isfinite(c)):
        raise ValueError("initial guess must be finite")
    n = problem.n_dof
    for _ in range(25):
        r = assemble_residual(problem, c, lam)
        rn = float(np.linalg.norm(r))
        J = jacobian(problem, c, lam)
        if rn <= NEWTON_TOL:
            return _regular_point(problem, c, lam, rn, J)
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
        return _regular_point(problem, c, lam, rn, jacobian(problem, c, lam))
    raise NewtonError(f"Newton did not converge at lambda={lam} (residual {rn:.3e})")


def _bordered_newton(problem, c, lam, border, base, offset, border_tol, maxit, frozen=None):
    """Newton with lambda free on [J r_lambda B^T; B 0 0; border 0] that holds
    border . ((c, lam) - base) - offset at zero.  Returns (c, lam, residual
    norm) once the residual norm is at most NEWTON_TOL and the border residual
    at most border_tol; raises NewtonError on a non-finite step or a singular
    matrix, or after maxit steps.

    Given a frozen matrix of that form, the steps are chord steps on it (no
    Jacobian), and the first step that leaves the residual norm above
    _CHORD_BAR times the previous one raises NewtonError as well."""
    n = problem.n_dof
    lam = float(lam)
    rn_prev = None
    for _ in range(maxit):
        r = assemble_residual(problem, c, lam)
        rn = float(np.linalg.norm(r))
        if frozen is not None and rn_prev is not None and not rn <= _CHORD_BAR * rn_prev:
            raise NewtonError(f"chord corrector stalled near lambda={lam}")
        rn_prev = rn
        # the c part and the lambda term are summed apart, so the rounding does
        # not depend on how the BLAS dot kernel splits n + 1 terms
        g = float(np.dot(border[:n], c - base[:n]) + border[n] * (lam - base[n]) - offset)
        if rn <= NEWTON_TOL and abs(g) <= border_tol:
            return c, lam, rn
        if frozen is None:
            A = _newton_system(problem, c, lam, jacobian(problem, c, lam), border)
        else:
            A = frozen
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
    H0 = np.asarray(problem.spec.hess(problem.spec.u0, lam), float).reshape(p, p)
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
    """Branch seed at a detected level: the kernel vector of J(0, lam_star)
    in the fixed-point space of an axial subgroup of the domain's orthogonal
    group (equivariant branching lemma; Golubitsky, Stewart & Schaeffer,
    Singularities and Groups in Bifurcation Theory II, 1988, ch. XIII), off
    the pinning rows, with its largest-magnitude entry positive and unit sup
    deviation.  That space is spanned by the basis rows the subgroup fixes:
    on the 2-sphere the zonal (m = 0) rows, fixed by O(2) about the
    reference axis; on the circle and the disk every row but the sin rows,
    fixed by the reflection y -> -y.  When exactly one eigenvalue mu of A,
    a simple one, puts lam_star mu on the Laplacian spectrum (as for every
    builtin), the kernel there is simple, so the seed does not depend on the
    last bits of J.  J is assembled on those rows alone."""
    space = _subspace(problem, _isotypic_rows(problem))
    zero = np.zeros(space.problem.n_dof)
    # at c = 0 the pinning rows are the component generators on the constant
    # row, which lies in the subspace
    Q = _complement(_pinning_rows(space.problem, zero))
    M = Q.T @ jacobian(space.problem, zero, lam_star) @ Q
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    v = space.lift(Q @ vecs[:, int(np.argmin(np.abs(vals)))])
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    # scale so the seed function has unit sup deviation
    amp = problem.sup_deviation(v)
    if amp <= 0:
        raise NoBranchError(f"no kernel direction found at lambda={lam_star}")
    return v / amp


def switch_branch(problem: GalerkinProblem, lam_star: float) -> Branch:
    """Seed a bifurcated branch near a detected level.

    The seed is _SEED_AMPLITUDE times the axial kernel direction v
    (_kernel_direction: zonal on the 2-sphere, a cos mode on the circle and
    the disk, with a fixed sign), so the branch followed does not depend on
    the last bits of J.  It lies in the fixed-point subspace of v's axial
    subgroup, which the solve keeps to (module docstring): one bordered
    Newton solve with lambda free, from
    (seed, lam_star), holds the kernel amplitude vhat . c at its seed value
    (vhat = v / |v|): the border (vhat, 0) is regular at a pitchfork, where
    fixed-lambda iterations bounce between the mirror branches (Keller
    1977).  The converged point seeds the branch when its sup deviation
    exceeds 0.05 times that amplitude and its lambda moved from lam_star by more than
    1e-13 and at most half of max(1, |lam_star|); otherwise NoBranchError
    names the test that failed, or chains the NewtonError.
    """
    space = _subspace(problem, _isotypic_rows(problem))
    v = _kernel_direction(problem, lam_star)[space.idx]
    seed = _SEED_AMPLITUDE * v
    vhat = v / np.linalg.norm(v)
    border = np.append(vhat, 0.0)
    target = float(np.dot(vhat, seed))
    fail = f"no branch captured at lambda_star={lam_star}"
    try:
        c, lam, rn = _bordered_newton(
            space.problem, seed, lam_star, border, np.zeros_like(border), target, NEWTON_TOL, 30
        )
    except NewtonError as err:
        raise NoBranchError(f"{fail}: {err}") from err
    bp = _make_point(space, c, lam, rn, jacobian(space.problem, c, lam))
    drift = abs(bp.lam - lam_star)
    max_drift = 0.5 * max(1.0, abs(lam_star))
    if not bp.sup_norm > 0.05 * _SEED_AMPLITUDE:
        raise NoBranchError(f"{fail}: sup_norm {bp.sup_norm:.3e} <= 0.05 * amplitude")
    if not 1e-13 < drift <= max_drift:
        raise NoBranchError(f"{fail}: lambda drift {drift:.3e} outside (1e-13, {max_drift}]")
    return Branch(points=[bp], origin=("bifurcated", float(lam_star)))


# --------------------------------------------------------------------------
# pseudo-arclength continuation


def _tangent(problem, c, lam, J, t_prev):
    """Unit tangent t at (c, lam), oriented along t_prev, and the bordered
    matrix [J r_lambda B^T; B 0 0; t_prev 0] it was solved with."""
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
    return t, A


def continue_branch(
    problem: GalerkinProblem,
    seed: Branch,
    lam_limits,
    max_steps: int = 200,
    ds_max: float = 0.2,
) -> Branch:
    """Pseudo-arclength continuation from a seed branch.

    The branch is followed on the rows of the axial fixed-point subspace
    when the last seed point's coefficients vanish exactly off them, and on
    every row otherwise (module docstring).  The step halves when the
    corrector fails and grows by 1.4 after every accepted step, from _DS0
    up to ds_max; the run stops at the lambda limits, on step underflow, after
    max_steps, or when the branch returns to the trivial family away from its
    origin level ("reconnects-to-trivial").
    """
    lo, hi = float(lam_limits[0]), float(lam_limits[1])
    points = list(seed.points)
    if not points:
        raise ValueError("seed branch has no points")
    origin = seed.origin
    branch = Branch(points=points, origin=origin)
    space = _branch_space(problem, points[-1].c)
    sub = space.problem
    c = points[-1].c[space.idx]
    lam = points[-1].lam
    n = sub.n_dof
    if origin[0] == "bifurcated" and origin[1] is not None:
        t_prev = np.concatenate([c, [lam - origin[1]]])
        nt = np.linalg.norm(t_prev)
        t_prev = t_prev / nt if nt > 0 else np.concatenate([np.zeros(n), [1.0]])
    else:
        t_prev = np.concatenate([np.zeros(n), [1.0]])
    ds = _DS0
    # the Jacobian at the last accepted point serves its branch point and the
    # next tangent, and is dropped before the corrector runs, which keeps
    # only the tangent's bordered matrix
    J = jacobian(sub, c, lam)
    for _ in range(max_steps):
        try:
            t, A = _tangent(sub, c, lam, J, t_prev)
        except NewtonError:
            branch.termination = "tangent-failure"
            return branch
        J = None
        # the chord matrix: the tangent's, bordered by t instead of t_prev
        A[-1, : n + 1] = t
        accepted = False
        while ds >= _DS_MIN:
            # the border t holds the arclength from (c, lam) at ds; chord steps
            # first, and on a stall full Newton from the same predictor
            pred = (c + ds * t[:n], lam + ds * t[n])
            args = (sub, *pred, t, np.append(c, lam), ds, 10 * NEWTON_TOL, 12)
            try:
                try:
                    c_new, lam_new, rn = _bordered_newton(*args, frozen=A)
                except NewtonError:
                    c_new, lam_new, rn = _bordered_newton(*args)
                accepted = True
                break
            except NewtonError:
                ds *= 0.5
        if not accepted:
            branch.termination = "step-underflow"
            return branch
        c, lam = c_new, lam_new
        t_prev = t
        A = None
        J = jacobian(sub, c, lam)
        bp = _make_point(space, c, lam, rn, J)
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
            C[0, :] += math.sqrt(problem.domain.measure) * (gamma @ problem.spec.u0 - problem.spec.u0)
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
                "block_morse_index": list(bp.block_morse_index),
            }
            for bp in branch.points
        ],
    }
    if include_coefficients:
        for rec, bp in zip(doc["points"], branch.points):
            rec["coefficients"] = [float(x) for x in bp.c]
    return doc
