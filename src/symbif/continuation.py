"""Spectral Galerkin discretization of -Laplace u = grad F(u, lambda) on the
circle, the 2-sphere, and the disk, with Newton solves, pseudo-arclength
continuation, bifurcation detection on the trivial branch, and branch
switching.

A domain's basis rows, quadrature and default catalog are its entry in the
Galerkin table of spectral, which build_problem looks up once.  The symmetry
machinery depends only on the group acting on the angular sphere S^{N-1},
and reads it from domain.dim: S^1 for N = 2 (the circle and the disk), S^2
for N = 3 (the 2-sphere, and B^3 once it has its entry and an (r, theta)
column rule).  Every eigenspace's rows are its zonal row when its
multiplicity is odd, then its (cos, sin) pairs (_angular_pairs).

The residual lives in L2-orthonormal coordinates: for basis function e_b with
eigenvalue beta_b and component i,

    residual[b, i] = beta_b c[b, i] - int (grad F(u(x), lambda))_i e_b(x) dx,

with u = u0 + v, v = sum c[b, :] e_b.  Nonlinear terms are evaluated pseudo-
spectrally, from v at the nodes (the spec's derivatives are F's centred at
u0), on a quadrature dense enough to kill aliasing for the declared
polynomial degree of the gradient.

Solutions come in orbits of the continuous symmetries (component rotations
and domain rotations), and the residual is the gradient of an invariant
functional: J is symmetric, the orbit tangents lie in its kernel at a
solution, and the residual is orthogonal to them.  So every Newton system is
square and bordered (Keller 1977; Govaerts, Numerical Methods for
Bifurcations of Dynamical Equilibria, 2000).  B holds orthonormal rows
spanning the symmetry tangents P, and each row of B brings one Lagrange
multiplier mu, which is zero at a solution.  Every solve frees lambda: it
adds the lambda column r_lambda and one border row b over (c, lambda).  The
column is exact, r_lambda[b, i] = -int (d/dlambda grad F(u(x), lambda))_i
e_b(x) dx, one projection of the potential's grad_lambda at the nodes, so a
bordered matrix costs a Jacobian and no residual:

    [J  r_lambda  B^T] [dc     ]
    [B  0         0  ] [dlambda]
    [b            0  ] [mu     ]

The border b is (vhat, 0) in the branch switch, with vhat the unit kernel
direction, so one solve holds the kernel amplitude and finds lambda; it is
the previous tangent for the pseudo-arclength tangent and the new tangent
in the corrector.  _newton_system builds the matrix and every system is
solved by LU (np.linalg.solve); a singular factorization raises
NewtonError.  The domain-rotation tangents are T C for exact generator
matrices T: T_z from the (cos, sin) pairs, and for N = 3 T_x and T_y from
the ladder relations, so the residual is orthogonal to every tangent
to rounding.  One cutoff, _PIN_RANK_TOL = 1e-6 on the singular values of
the unit pinning rows, sets the rank of both the pin basis B and the
off-symmetry complement Q.

Branches are followed in a fixed-point subspace.  Every branch seed lies in
Fix(Sigma) of an axial subgroup Sigma (_kernel_direction): the zonal rows
for N = 3, every row but the sin rows for N = 2.  The
residual maps Fix(Sigma) into itself, so switch_branch and continue_branch
solve on the Galerkin problem restricted to those rows (Healey, Comput.
Methods Appl. Mech. Eng. 67, 1988; Gatermann & Hohmann, IMPACT Comput. Sci.
Eng. 3, 1991).  The domain-rotation tangents leave Fix(Sigma), so only the
component generators are pinned there; row 0, the constant row, stays first.
BranchPoint.c is the full coefficient vector, zero off the rows followed.

On the 2-sphere the zonal rows are functions of theta alone, so the
restricted problem is integrated on one longitude column of the theta-major
rule, the nodes at phi = 0, with each theta row's weights summed over phi:
n_theta nodes instead of n_theta * n_phi (26 against 1352 at degree 12).
That is Gauss-Legendre in cos(theta), which integrates every zonal product
as the full rule does, and the sup deviation over the column is the one
over every node.  On the circle and the disk the reflection-even rows are
even in the angle theta, so the restricted problem is integrated on the
half-turn theta in [0, pi] of the uniform rule, each weight doubled for its
mirror -theta but at 0 and pi (64 x 29 of the disk's 64 x 56 nodes at
beta <= 200), with the full rule's sup deviation to rounding.

At a Sigma-fixed point the full-space J commutes with Sigma and is
block-diagonal by isotypic component (Faessler & Stiefel, Group Theoretical
Methods and Their Applications, 1992): for N = 3 one block per azimuthal
index m, the cos and the sin rows of m giving equal blocks; for N = 2 the
reflection-even rows and the sin rows.  Each symmetry
tangent lies in one block (the component generators in the first, T_x C and
T_y C in the m = 1 sin and cos blocks, T_z C in the sin rows of the circle
and the disk, while T_z C = 0 on the 2-sphere), so the full-space
off-symmetry spectrum is the union of the block spectra, each taken off the
tangents that fall in the block.  Every block comes from one nodal Hessian
per point, each from a table of its rows built once per subspace (the sin
rows on the half-turn too, sin * sin * h being even in theta), and the first
block is the Jacobian the continuation takes its next tangent from.  On the
2-sphere the Hessian at a zonal point depends on theta alone, and a cos-row
block of m >= 1 is assembled on the column rule with half the summed
weights: the uniform rule sums cos^2(m phi) over n_phi longitudes to
n_phi / 2 while 2m < n_phi, which default_quadrature keeps (n_phi >= 2L + 8
at degree L).
This is the Fourier-in-phi block-diagonalization of the cited references.
A point's min_offsym_singular is the smallest modulus over the blocks, and
block_morse_index counts each block's negative eigenvalues.  A block k >= 1
is not assembled when Weyl's inequality bounds its eigenvalues above both 0
and the smallest modulus so far (_make_point; Parlett, The Symmetric
Eigenvalue Problem, 1998, ch. 10 and 15): on the 2-sphere most blocks of
large m, where beta >= m(m + 1) exceeds the Hessian's reach.  The
diagnostics do not change by a bit.

jacobian assembles the p(p+1)/2 blocks i <= j from the symmetrized nodal
Hessian and copies block (i, j) into (j, i), dense over the quadrature in
O(n_x n_f^2) for n_x nodes and n_f rows; it is the reference the blocks
are tested against.  The branch path takes every Jacobian of the branch
subspace from its blocks (_block): the first block is the J of the
tangent, the corrector, the seed and the fold.  On the circle and the
2-sphere each block is that dense product over its table, so there the
first block is jacobian on the reduced rule bit for bit.  On the disk the
half-turn rule is a product of n_r radii and n_t angles, every
reflection-even row is R_a(r) cos(l_a theta) and every sin row R_a(r)
sin(l_a theta), so every block comes from a sum-factorized kernel
(_factored_block; Orszag, J. Comput. Phys. 37, 1980; Deville, Fischer &
Mund, High-Order Methods for Incompressible Fluid Flow, 2002, ch. 4):
per Hessian entry one weighted cosine transform over theta at each radius
for every order pair (l_a, l_b) of the block's rows, then one radial sum
per row pair, in O(n_r n_t n_q + n_r n_f^2) for n_q order pairs against
O(n_r n_t n_f^2) dense.  At beta <= 200 (one BLAS thread) the first block
takes about 0.05 ms against 0.3 ms for one Hessian entry (pitchfork-scalar)
and 0.13 ms against 0.75 ms for three (so2-ring).  It is bitwise
symmetric and lies within 4e-16 |J|_1 of the dense product, so a disk
branch agrees with the dense assembly to rounding, not bit for bit.  The
circle has one radius and the 2-sphere's column one angle: nothing to
factor, every block there is dense.  Continuation evaluates the nodal
Hessian once per accepted point (_make_point), whose first block is the J
of the next tangent; a seed from switch_branch holds its subspace and the
J at its point, which continue_branch starts from, and any other seed
costs one more evaluation there.  A fold location evaluates it and the
first block once at each trial point, the fold included.  One corrector,
_bordered_newton, serves the switch and the continuation.  It reuses its
bordered matrix for quasi-Newton steps, one residual and one LU solve
each: the error-oriented good-Broyden method QNERR of Deuflhard (Newton
Methods for Nonlinear Problems, 2004, sec. 2.1.4; Allgower & Georg,
Introduction to Numerical Continuation Methods, 2003, ch. 7) corrects the
(c, lambda) part of each solve by rank-one updates from the steps taken on
that matrix, so the LU of one matrix serves a whole correction.  A step on
a reused matrix must cut the residual norm at least twofold (_CHORD_BAR,
QNERR's contraction bound 1/2), and its last update must scale it by less
than 2; one that does not is retaken from the iterate before it on a
matrix built there, and a step on a fresh matrix is kept.  The
continuation's first matrix is the tangent's, with the J, r_lambda and B
of the last accepted point and the new tangent as border row (Allgower &
Georg 2003, ch. 6); the switch builds its first at the seed.  The
corrector also reports its first contraction theta0, the length ratio of
the first two steps kept on its first matrix, and the continuation scales
its next step by it (_step_factor), after the adaptive pathfollowing of
Deuflhard (2004, ch. 5).  His Theta_0 takes the second step as the raw
solve on the first matrix; theta0 takes it after its QNERR update and the
1 / (1 - alpha) stretch, which on the builtin verify branches needs fewer
points (188 against 207 at the same target).  The tangent's matrix is the
last point's, so theta0 grows about linearly with the step: the step stays
small near the switch point and near a fold, and grows where the branch is
straight.

The ends of a branch are properties of the branch, not of the step
(Allgower & Georg 2003, ch. 9; Govaerts 2000).  The step whose point would
lie past a lambda limit is replaced by one bordered solve at lambda = limit
with the natural border (0, ..., 0, 1), begun from the secant on the
tangent's matrix with that border row, so the last point lies on the limit
bit for bit.  A sign change of the tangent's lambda component between two
accepted points is a fold: it is located by Illinois iteration on the
arclength, each trial point corrected on the arclength border and its
tangent taken from one Jacobian and one bordered matrix there, and inserted
between the two points, from which the continuation goes on unchanged.

On the trivial branch c = 0 every quadrature node sees u0, so the Hessian is
one p x p matrix H0(lambda) = hess(0, lambda) and, in the layout above,

    J(0, lambda) = diag(beta) - G kron H0(lambda),   G = (E w) E^T,

with G the assembled quadrature Gram matrix, block-diagonal by isotypic
block (_isotypic_rows, the sin rows of each m apart on the 2-sphere).  With
sym(H0) = V diag(mu) V^T, J(0, lambda) is orthogonally similar (by I kron
V) to the direct sum over k of diag(beta) - mu_k G, and with a block of G =
L L^T the block of diag(beta) - mu_k G is congruent to diag(theta) - mu_k
I, theta the eigenvalues of L^-1 diag(beta) L^-T.  By Sylvester's law of
inertia the Morse index of J(0, lambda) is sum_k #{b : theta_b < mu_k} over
every block's theta (Parlett 1998, ch. 15): lambda enters only through the
p values mu_k.  The pinning rows at c = 0 are e_0 kron g u0 for the
component generators g, with beta_0 = 0 and H0 g u0 = 0: zero modes of
J(0, lambda) outside the count, so the Morse sweep needs no off-symmetry
complement.  It computes theta once per block and assembles no Jacobian.
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
    "detect_bifurcation",
    "switch_branch",
    "continue_branch",
    "symmetry_vectors",
    "branch_to_csv",
    "branch_to_json",
]

NEWTON_TOL = 1e-10
# off-symmetry eigenvalues below -_MORSE_ZERO_TOL count in the Morse index;
# crossings are bisected to brackets narrower than _REFINE_TOL; the sweep
# counts at most _MORSE_CHUNK lambda per call, which bounds its temporaries
_MORSE_ZERO_TOL = 1e-10
_REFINE_TOL = 1e-9
_MORSE_CHUNK = 256
# singular values of the unit pinning rows at most this are dependencies
# among the rows, not symmetry directions; the one rank cutoff for both the
# pin basis and the off-symmetry complement of every block (module docstring)
_PIN_RANK_TOL = 1e-6
# a corrector step on a reused matrix must at least halve the residual norm
# (QNERR's contraction bound 1/2), or it is retaken on a matrix built at its
# iterate; a bar of 0 makes the corrector full Newton
_CHORD_BAR = 0.5
# switch_branch seeds at this multiple of the unit axial kernel direction;
# continue_branch starts at step min(_DS0, ds_max), scales each next step by
# _THETA_BAR / theta0 within [1/2, _DS_GROWTH] (_step_factor), at most
# ds_max, and stops when the step halves below _DS_MIN; _THETA_BAR lies
# below _CHORD_BAR, so a step at the target contraction keeps its matrix
_SEED_AMPLITUDE = 0.05
_DS0 = 0.02
_DS_MIN = 1e-4
_THETA_BAR = 0.4
_DS_GROWTH = 4.0
# a fold is located when the lambda component of the unit tangent is at most
# _FOLD_TOL, within _FOLD_MAXIT trial points
_FOLD_TOL = 1e-8
_FOLD_MAXIT = 30


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
    then T_x and T_y where the angular group is S^2 (domain.dim 3; on S^1
    the reference axis is the whole group).  Their tangents T C are pinned
    at the one rank cutoff _PIN_RANK_TOL.

    Branch switching and continuation solve on a private copy restricted to
    the rows of an axial fixed-point subspace and cut to a reduced rule
    (_Subspace): E, beta and quad are subsets, rotation_generators is empty
    and eigens is the full problem's.  The full problem's Jacobian at a
    point of that subspace is block-diagonal by isotypic component
    (_isotypic_rows), and the diagnostics of every branch point come from
    those blocks.
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
        """Values of the deviation v = u - u0 = expansion(c) at the
        quadrature nodes, (nq, p): what the spec's derivatives take."""
        return self.E.T @ np.asarray(c, float).reshape(self.n_funcs, self.p)

    def sup_deviation(self, c) -> float:
        """Max euclidean deviation |u(x) - u0| over quadrature nodes."""
        dev = self.evaluate(c)
        return float(np.max(np.linalg.norm(dev, axis=1))) if dev.size else 0.0


def build_problem(
    domain: DomainId,
    spec: PotentialSpec,
    truncation: Optional[int] = None,
    beta_cutoff: Optional[float] = None,
) -> GalerkinProblem:
    """Assemble basis and quadrature for a domain/potential pair.

    Defaults (spectral's Galerkin table): 16 distinct eigenvalues on the
    circle, spherical-harmonic degree 8 on the 2-sphere, beta <= 60 on the
    disk.  A domain off the table, a truncation below 1 or above the disk
    catalog's entry count, a beta_cutoff that is not positive and finite,
    or one on a sphere, where it sets nothing, raises ValueError.
    """
    galerkin = spectral._galerkin(domain)
    if truncation is not None and truncation < 1:
        raise ValueError(f"truncation must be at least 1, got {truncation}")
    if beta_cutoff is not None and not 0 < beta_cutoff < math.inf:
        raise ValueError(f"beta_cutoff must be positive and finite, got {beta_cutoff}")
    eigens = galerkin.catalog(truncation, beta_cutoff)
    max_l = max(e.angular_degree for e in eigens)
    quad = spectral.default_quadrature(domain, (spec.grad_degree + 1) * max_l)
    return GalerkinProblem(
        domain=domain,
        spec=spec,
        eigens=eigens,
        beta=np.repeat([e.value for e in eigens], [e.multiplicity for e in eigens]),
        E=spectral.basis(domain, eigens, quad.points),
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
    G = problem.spec.grad(problem.evaluate(c), lam)
    return (problem.beta[:, None] * C - _project(problem, G)).ravel()


def _project(problem, values):
    """int values(x) e_b(x) dx for every basis row b, from values (nq, p) at
    the quadrature nodes: (n_funcs, p)."""
    return problem.E @ (problem.quad.weights[:, None] * values)


def jacobian(problem: GalerkinProblem, c, lam: float) -> np.ndarray:
    """The Jacobian at (c, lam), assembled dense over problem's rule: the
    reference every branch Jacobian is tested against."""
    H = _nodal_hessian(problem, c, lam)
    return _assemble_jacobian(problem.E, problem.quad.weights, problem.beta, H)


def _nodal_hessian(problem, c, lam):
    """Hessian of F at the quadrature nodes, (nq, p, p)."""
    return problem.spec.hess(problem.evaluate(c), lam)


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
    n = nf * p
    J = J.reshape(n, n)
    J.reshape(-1)[:: n + 1] += np.repeat(beta, p)
    return J


def _lambda_column(problem, c, lam):
    """r_lambda, the lambda derivative of the residual at (c, lam): exactly
    -int (d/dlambda grad F(u(x), lambda))_i e_b(x) dx, one projection of
    the spec's grad_lambda at the nodes."""
    return (-_project(problem, problem.spec.grad_lambda(problem.evaluate(c), lam))).ravel()


# --------------------------------------------------------------------------
# symmetry machinery


def _angular_pairs(eigens):
    """(cos_row, sin_row, frequency) triples of basis functions that rotate
    into each other under the domain rotation about the reference axis, read
    from each eigenspace's layout: its zonal row when its multiplicity is
    odd, then the (cos, sin) pairs of the k = multiplicity // 2 orders
    l - k + 1, ..., l (so k = 1 for N = 2, the orders 1, ..., l for N = 3)."""
    pairs = []
    row = 0
    for eig in eigens:
        k, base = eig.multiplicity // 2, row + eig.multiplicity % 2
        for i in range(k):
            pairs.append((base + 2 * i, base + 2 * i + 1, eig.angular_degree - k + 1 + i))
        row += eig.multiplicity
    return pairs


def _rotation_generators(domain, eigens):
    """Exact rotation generators on the basis rows: T_z from the angular
    pairs on every domain, and where the angular sphere is S^2 (domain.dim
    3) T_x and T_y from the ladder relations in the real basis (zonal, (1,
    cos), (1, sin), ... with the Condon-Shortley phase).  Each is
    antisymmetric and keeps every eigenspace, and [T_x, T_y] = T_z
    cyclically."""
    n = sum(e.multiplicity for e in eigens)
    Tz = np.zeros((n, n))
    for cos_row, sin_row, freq in _angular_pairs(eigens):
        Tz[cos_row, sin_row] = -freq
        Tz[sin_row, cos_row] = freq
    if domain.dim == 2:
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
    return np.stack([v / np.linalg.norm(v) for v in vecs])


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
    the 2-sphere (domain.dim 3): the zonal rows, then the cos rows of m = 1,
    2, ..., each block equal to that of the sin rows of the same m.  On the
    circle and the disk (domain.dim 2): the reflection-even rows, then the
    sin rows."""
    pairs = _angular_pairs(problem.eigens)
    if problem.domain.dim == 3:
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
    restricted to the rows of the first isotypic block, and blocks the
    isotypic blocks of full's Jacobian at the points followed
    (_isotypic_rows), each as the table it is assembled from, built once:
    (coefficient indices of its rows in full, E on its rows, quadrature
    weights, beta on its rows).  The first table is problem's own.
    weyl holds, for each table after the first, the constants of its
    Weyl bound (_make_point): min beta, max beta and the largest eigenvalue
    g of its Gram matrix E diag(|w|) E^T, which bounds how far the nodal
    Hessian can move the block's spectrum.

    Every table is on the reduced rule that evaluate and sup_deviation see:
    for domain.dim 3 the longitude column (_longitude_column), the zonal
    rows with the theta-rule weights and the cos rows of m >= 1 with half of
    them, exact while 2m < n_phi; for domain.dim 2 the half-turn theta in
    [0, pi] (_half_turn) (module docstring).

    factors holds, on the disk alone, what the sum-factorized kernel
    (_factored_block) reads in place of each table, one _BlockFactors per
    block; it is None on the circle, whose rule has one radius, and on the
    2-sphere, where every block is assembled dense from its table."""

    full: GalerkinProblem
    problem: GalerkinProblem
    blocks: tuple
    weyl: tuple
    factors: Optional[tuple]

    @property
    def idx(self) -> np.ndarray:
        return self.blocks[0][0]

    def lift(self, c) -> np.ndarray:
        out = np.zeros(self.full.n_dof)
        out[self.idx] = c
        return out


@dataclass(frozen=True)
class _BlockFactors:
    """What the sum-factorized kernel (_factored_block) reads to assemble
    one isotypic block of a disk subspace, built once (_block_factors).  The
    block's n rows are R_a(r) cos(l_a theta) (the reflection-even rows, l_a
    = 0 for a zonal row) or R_a(r) sin(l_a theta) (the sin rows) on the
    half-turn rule of n_r radii and n_t angles, and the kernel takes the
    upper-triangle row pairs (a, b), a <= b, grouped by their order pair
    (l_a, l_b).  With d = |l_a - l_b| and s = l_a + l_b the angular factors
    multiply to (cos(d theta) + sign cos(s theta)) / 2, sign 1 for cos rows
    and -1 for sin rows.

    angular: -w_theta (cos(d theta) + sign cos(s theta)) / 2 per order
    pair, (order pairs, n_t), w_theta the weights of radius r over w_r;
    radial: P = w_r R_a R_b of the row pairs of each order pair, zero
    where an order pair has fewer pairs than the longest, (order pairs,
    longest, n_r), w_r the weight of the theta = 0 node of radius r;
    entries: for each (a, b) of the block the flat index of its row pair
    among the order pairs' slots, (n^2,); components: the component pairs
    (i, j), i <= j, of the Hessian entries; beta: beta on the rows."""

    angular: np.ndarray
    radial: np.ndarray
    entries: np.ndarray
    components: tuple
    beta: np.ndarray


def _coefficient_indices(rows, p):
    return (rows[:, None] * p + np.arange(p)).ravel()


def _longitude_column(quad):
    """Node indices of the phi = 0 column of a theta-major 2-sphere rule,
    and the theta rule on them: the weights of each theta row summed over
    phi, which integrates a function of theta alone as the full rule does."""
    theta, phi = quad.points
    n_phi = int(np.count_nonzero(theta == theta[0]))
    cols = np.arange(0, theta.size, n_phi)
    weights = quad.weights.reshape(-1, n_phi).sum(axis=1)
    return cols, Quadrature((theta[cols], phi[cols]), weights)


def _half_turn(quad):
    """Node indices of theta in [0, pi] in the circle's or the disk's rule (n
    uniform angles, n even), and the rule there, exact for functions even in
    theta: weights doubled for the mirror -theta but at 0 and pi."""
    theta = quad.points[-1]
    n = theta.size // int(np.count_nonzero(theta == 0.0))
    j = np.arange(theta.size) % n
    cols = np.flatnonzero(j <= n // 2)
    weights = np.where(j[cols] % (n // 2) == 0, 1.0, 2.0) * quad.weights[cols]
    return cols, Quadrature(tuple(x[cols] for x in quad.points), weights)


def _subspace(problem):
    """The _Subspace of problem's isotypic blocks (_isotypic_rows)."""
    blocks = _isotypic_rows(problem)
    rows, *others = blocks
    idx = _coefficient_indices(rows, problem.p)
    angular_s2 = problem.domain.dim == 3
    cols, quad = (_longitude_column if angular_s2 else _half_turn)(problem.quad)
    block_weights = 0.5 * quad.weights if angular_s2 else quad.weights
    sub = dataclasses.replace(
        problem,
        E=problem.E[rows][:, cols],
        beta=problem.beta[rows],
        quad=quad,
        rotation_generators=(),
    )
    tables = [(idx, sub.E, quad.weights, sub.beta)]
    weyl = []
    for rows in others:
        E, beta = problem.E[rows][:, cols], problem.beta[rows]
        tables.append((_coefficient_indices(rows, problem.p), E, block_weights, beta))
        gram = (E * np.abs(block_weights)[None, :]) @ E.T
        weyl.append((float(beta.min()), float(beta.max()), float(np.linalg.eigvalsh(gram)[-1])))
    factors = None if angular_s2 else _block_factors(problem, blocks, cols, quad)
    return _Subspace(problem, sub, tuple(tables), tuple(weyl), factors)


def _block_factors(problem, blocks, cols, quad):
    """The _BlockFactors of each block of rows in blocks, the reflection-even
    rows and then the sin rows (_isotypic_rows), on the circle's or the
    disk's half-turn rule cols, quad, whose nodes run over n_t angles from
    theta = 0 at each radius; None on the circle, whose rule has one radius
    and nothing to factor.  A row's radial factor is read at theta = 0,
    where cos(l theta) = 1: a cos row's from itself, a sin row's from its
    partner cos row."""
    theta = quad.points[-1]
    n_r = int(np.count_nonzero(theta == 0.0))
    if n_r == 1:
        return None
    n_t = theta.size // n_r
    weights = quad.weights.reshape(n_r, n_t)
    angles, w_theta = theta[:n_t], 0.5 * weights[0] / weights[0, 0]
    eigens = problem.eigens
    orders = np.repeat([e.angular_degree for e in eigens], [e.multiplicity for e in eigens])
    radial_rows = np.arange(problem.n_funcs)
    for cos_row, sin_row, _ in _angular_pairs(eigens):
        radial_rows[sin_row] = cos_row
    R = problem.E[np.ix_(radial_rows, cols[::n_t])]
    base = int(orders.max()) + 1
    factors = []
    for rows, sign in zip(blocks, (1.0, -1.0)):
        n = rows.size
        a, b = np.triu_indices(n)
        low, high = np.sort([orders[rows[a]], orders[rows[b]]], axis=0)
        # each row pair's order pair q, and its slot: q times the most row
        # pairs of one order pair (longest), plus its rank among those of q
        keys, q = np.unique(low * base + high, return_inverse=True)
        by_q = np.argsort(q, kind="stable")
        rank = np.empty_like(q)
        rank[by_q] = np.arange(q.size) - np.searchsorted(q[by_q], q[by_q])
        longest = int(rank.max()) + 1
        slot = q * longest + rank
        radial = np.zeros((keys.size * longest, n_r))
        radial[slot] = weights[:, 0][None, :] * R[rows[a]] * R[rows[b]]
        entries = np.empty((n, n), int)
        entries[a, b] = entries[b, a] = slot
        low, high = keys // base, keys % base
        cosines = np.cos(np.outer(high - low, angles)) + sign * np.cos(np.outer(high + low, angles))
        factors.append(
            _BlockFactors(
                angular=-cosines * w_theta[None, :],
                radial=radial.reshape(keys.size, longest, n_r),
                entries=entries.ravel(),
                components=np.triu_indices(problem.p),
                beta=problem.beta[rows],
            )
        )
    return tuple(factors)


def _block(space, k, H):
    """Isotypic block k of space's Jacobian at the nodal Hessian H, as the
    branch path takes it: on the disk from the sum-factorized kernel
    (_factored_block), on the circle and the 2-sphere dense from its
    table."""
    if space.factors is not None:
        return _factored_block(space.factors[k], H)
    return _assemble_jacobian(*space.blocks[k][1:], H)


def _branch_jacobian(space, c, lam):
    """The Jacobian of space.problem at its coefficients c: the first block
    (_block) at a nodal Hessian evaluated there."""
    return _block(space, 0, _nodal_hessian(space.problem, c, lam))


def _factored_block(factors, H):
    """Block of a disk subspace's Jacobian at the nodal Hessian H on its
    half-turn rule, by sum factorization (_BlockFactors; Orszag, J. Comput.
    Phys. 37, 1980; Deville, Fischer & Mund, High-Order Methods for
    Incompressible Fluid Flow, 2002, ch. 4).  With cos(l_a t) cos(l_b t) =
    (cos(d t) + cos(s t)) / 2 and sin(l_a t) sin(l_b t) = (cos(d t) -
    cos(s t)) / 2, d = |l_a - l_b| and s = l_a + l_b, entry (a, b) of
    component block (i, j) is beta_a delta_ab - sum_r P_ab(r) hhat(q, r),
    where hhat(q, r) = sum_theta w_theta (cos(d theta) +- cos(s theta)) h(r,
    theta) / 2 is one product with the angular table for every entry h of
    the symmetrized Hessian, and the radial sums of all row pairs of one
    order pair q are one product with their P.  Each value fills (a, b) and
    (b, a) of blocks (i, j) and (j, i), so the block is bitwise symmetric."""
    i, j = factors.components
    h = 0.5 * (H[:, i, j] + H[:, j, i])
    n_q, _, n_r = factors.radial.shape
    n_t = factors.angular.shape[1]
    # hhat[q, r, entry]
    hhat = factors.angular @ h.reshape(n_r, n_t, -1).transpose(1, 0, 2).reshape(n_t, -1)
    values = np.matmul(factors.radial, hhat.reshape(n_q, n_r, -1)).reshape(-1, i.size)
    n, p = factors.beta.size, H.shape[1]
    # every component block is (i, j) or (j, i) of an entry
    J = np.empty((n, p, n, p))
    J[:, i, :, j] = J[:, j, :, i] = values[factors.entries].T.reshape(-1, n, n)
    J = J.reshape(n * p, n * p)
    J.reshape(-1)[:: n * p + 1] += np.repeat(factors.beta, p)
    return J


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
    the circle and the disk the reflection-even rows, then the sin rows.
    A block k >= 1 whose Weyl bound min beta_k - h g_k (_make_point) lies
    above max(0, the smallest modulus so far) by a rounding margin is not
    assembled: it counts 0 and cannot lower min_offsym_singular."""

    lam: float
    c: np.ndarray
    residual_norm: float
    min_offsym_singular: float
    sup_norm: float
    block_morse_index: tuple


@dataclass
class Branch:
    """A continuation path with its origin and the observed stopping reason.
    A branch that switch_branch returns also holds the subspace it solved on
    and the Jacobian of that subspace at its point, which continue_branch
    starts from instead of building both again."""

    points: list
    origin: tuple  # ("bifurcated", lambda_star), the level switch_branch seeded it at
    termination: Optional[str] = None
    # (subspace, point, Jacobian at the point), set by switch_branch
    _start: Optional[tuple] = dataclasses.field(default=None, repr=False, compare=False)


def _make_point(space, c, lam, residual_norm, H=None, J0=None):
    """Branch point at the coefficients c of space.problem, and the Jacobian
    of space.problem there: its first isotypic block.  Every block comes
    from the nodal Hessian H at c on space.problem's rule, evaluated once (a
    caller that has it passes it, and the first block J0 when it has that
    too), unless Weyl's bound certifies it (_block): on the circle and the
    2-sphere dense from its table (_Subspace), in O(n_x n_f^2) for n_x
    nodes and n_f rows; on the disk from the sum-factorized kernel
    (_factored_block), in O(n_r n_t n_q + n_r n_f^2) for n_r radii, n_t
    angles and n_q order pairs of its rows.

    Block k is J_k = diag(beta_k) kron I - sum_x w_x e_k(x) e_k(x)^T kron
    H(x), so with h = max_x |H(x)|_F and g_k its table's Gram norm every
    eigenvalue of J_k, and by Cauchy interlacing of its off-symmetry part,
    is at least L_k = min beta_k - h g_k (Parlett, The Symmetric Eigenvalue
    Problem, 1998, ch. 10 and 15).  Block k >= 1 is skipped when L_k - tau_k
    exceeds max(0, mu), with mu the smallest eigenvalue modulus of the
    blocks computed so far and tau_k = 1e-9 (1 + max beta_k + h g_k) for
    rounding: it has no negative eigenvalue and none of smaller modulus, so
    it counts 0 in block_morse_index and leaves min_offsym_singular as it
    is, bit for bit."""
    full, lifted = space.full, space.lift(c)
    pins = _pinning_rows(full, lifted)
    if H is None:
        H = _nodal_hessian(space.problem, c, lam)
    Hf = H.reshape(H.shape[0], -1)
    # max_x |H(x)|_F
    h = math.sqrt(float(np.max(np.einsum("xi,xi->x", Hf, Hf))))
    # the first block has no bound (min beta = -inf): it is always computed
    if J0 is None:
        J0 = _block(space, 0, H)
    bounds = ((-math.inf, 0.0, 0.0), *space.weyl)
    counts, mu = [], math.inf
    for k, (beta_min, beta_max, g) in enumerate(bounds):
        spread = h * g
        if beta_min - spread - 1e-9 * (1.0 + beta_max + spread) > max(0.0, mu):
            counts.append(0)
            continue
        J = J0 if k == 0 else _block(space, k, H)
        ev = _offsym_eigenvalues(pins[:, space.blocks[k][0]], J)
        counts.append(int(np.count_nonzero(ev < -_MORSE_ZERO_TOL)))
        if ev.size:
            mu = min(mu, float(np.min(np.abs(ev))))
    return BranchPoint(
        lam=float(lam),
        c=lifted,
        residual_norm=float(residual_norm),
        min_offsym_singular=mu if mu < math.inf else 0.0,
        sup_norm=space.problem.sup_deviation(c),
        block_morse_index=tuple(counts),
    ), J0


def _newton_system(problem, c, lam, J, border):
    """Square Newton matrix at (c, lam) from the Jacobian J there and a
    border row over (c, lam): [J r_lambda B^T; B 0 0; border 0] with B an
    orthonormal basis of the pinning rows' span and r_lambda the exact
    lambda column (_lambda_column), which evaluates no residual.  The
    unknowns are the step in c, then in lambda, followed by one multiplier
    per row of B."""
    _, s, vt = np.linalg.svd(_pinning_rows(problem, c), full_matrices=False)
    B = vt[: int(np.sum(s > _PIN_RANK_TOL))]
    k = B.shape[0]
    rl = _lambda_column(problem, c, lam)
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


# an overflow ends the solve by the finiteness tests, not with a warning
@np.errstate(all="ignore")
def _bordered_newton(space, c, lam, border, base, offset, border_tol, maxit, A=None):
    """Newton with lambda free on [J r_lambda B^T; B 0 0; border 0] that holds
    border . ((c, lam) - base) - offset at zero, at the coefficients c of
    space.problem, with J its Jacobian (_branch_jacobian).  Returns (c, lam,
    residual norm, theta0) once the residual norm is at most NEWTON_TOL and
    the border residual at most border_tol; raises NewtonError, naming
    lambda, on a non-finite residual or step or a singular matrix, or after
    maxit steps, retaken ones included.  theta0 = |s_1| / |s_0| is the first
    contraction, from the first two steps kept on the first matrix, s_1
    after its update (not Deuflhard's simplified correction, the raw solve):
    0 when the solve ends before a second step, inf when that matrix is left
    for a retake first.

    Each step solves with the current matrix A of that form (a given A is
    the first), built at the iterate when there is none, and is the
    error-oriented good-Broyden step of QNERR (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004, sec. 2.1.4): the (c, lambda) part v of the
    solve, updated by the steps s_0, s_1, ... kept on A since it was built or
    given, v += (s_i . v / |s_i|^2) s_{i+1}, then v / (1 - alpha) with alpha
    = s . v / |s|^2 for the last step s.  The pin rows keep every step in the
    slice, so the multipliers are not carried.  A step on a reused A is
    retaken from the iterate it starts at, on a matrix built there, when
    alpha >= 1/2 (a guard on 1 - alpha, which QNERR's bound |alpha| <=
    |v| / |s| < 1/2 keeps above 1/2) or when it cuts the residual norm by
    less than _CHORD_BAR; a step on a fresh A is kept."""
    problem = space.problem
    n = problem.n_dof

    def residual(c, lam):
        r = assemble_residual(problem, c, lam)
        rn = float(np.linalg.norm(r))
        if not math.isfinite(rn):
            raise NewtonError(f"bordered Newton residual is not finite at lambda={lam}")
        return r, rn

    lam = float(lam)
    r, rn = residual(c, lam)
    steps, theta0 = [], None
    for _ in range(maxit):
        # the c part and the lambda term are summed apart, so the rounding does
        # not depend on how the BLAS dot kernel splits n + 1 terms
        g = float(np.dot(border[:n], c - base[:n]) + border[n] * (lam - base[n]) - offset)
        if rn <= NEWTON_TOL and abs(g) <= border_tol:
            return c, lam, rn, 0.0 if theta0 is None else theta0
        fresh = A is None
        if fresh:
            A, steps = _newton_system(problem, c, lam, _branch_jacobian(space, c, lam), border), []
        v = _solve(A, np.concatenate([-r, np.zeros(A.shape[0] - n - 1), [-g]]), lam)[: n + 1]
        if not np.all(np.isfinite(v)):
            raise NewtonError(f"bordered Newton step diverged at lambda={lam}")
        for s, s_next in zip(steps, steps[1:]):
            v += (np.dot(s, v) / np.dot(s, s)) * s_next
        if steps:
            alpha = np.dot(steps[-1], v) / np.dot(steps[-1], steps[-1])
            if not alpha < 0.5:  # 1 / (1 - alpha) would be 2 or more
                A = None  # retake the step from (c, lam)
                theta0 = math.inf if theta0 is None else theta0
                continue
            v /= 1.0 - alpha
        c_new, lam_new = c + v[:n], lam + v[n]
        r_new, rn_new = residual(c_new, lam_new)
        if fresh or rn_new <= _CHORD_BAR * rn:
            steps.append(v)
            if len(steps) == 2 and theta0 is None:
                theta0 = float(np.linalg.norm(steps[1]) / np.linalg.norm(steps[0]))
            c, lam, r, rn = c_new, lam_new, r_new, rn_new
        else:
            A = None  # a stall: retake the step from (c, lam)
            theta0 = math.inf if theta0 is None else theta0
    raise NewtonError(f"bordered Newton did not converge near lambda={lam}")


# --------------------------------------------------------------------------
# bifurcation detection on the trivial branch


def _trivial_spectrum(problem):
    """Generalized eigenvalues theta of (diag(beta), G) for each isotypic
    block of the quadrature Gram matrix G = (E w) E^T (_isotypic_rows, on the
    2-sphere the sin rows of each m apart from its cos rows): with the block
    G_b = L L^T, the eigenvalues of L^-1 diag(beta_b) L^-T."""
    blocks = _isotypic_rows(problem)
    blocks += [rows + 1 for rows in blocks[1:]] if problem.domain.dim == 3 else []
    thetas = []
    for rows in blocks:
        E = problem.E[rows]
        Linv = np.linalg.inv(np.linalg.cholesky((E * problem.quad.weights[None, :]) @ E.T))
        thetas.append(np.linalg.eigvalsh((Linv * problem.beta[rows][None, :]) @ Linv.T))
    return thetas


def _morse_counts(problem, theta, lams):
    """Morse index of J(0, lam) for each lam in lams: the number of pairs
    with theta_b - mu_k < -_MORSE_ZERO_TOL, mu_k the eigenvalues of the
    symmetrized H0(lam) (module docstring), from one hess call with an array
    lambda and one stacked eigvalsh per _MORSE_CHUNK values."""
    spec, counts = problem.spec, []
    for i in range(0, len(lams), _MORSE_CHUNK):
        lam = np.asarray(lams[i : i + _MORSE_CHUNK], float)
        H0 = spec.hess(np.zeros((lam.size, problem.p)), lam)
        mu = np.linalg.eigvalsh(0.5 * (H0 + H0.transpose(0, 2, 1)))
        below = theta[:, None, None] - mu < -_MORSE_ZERO_TOL
        counts.extend(np.count_nonzero(below, axis=(0, 2)).tolist())
    return counts


def detect_bifurcation(problem: GalerkinProblem, window, steps: int = 200) -> list[float]:
    """Levels in the window where an off-symmetry eigenvalue of the
    trivial-branch Jacobian crosses zero, refined by bisection.

    The crossing test is a change of the Morse index of J(0, lambda), which
    is robust for even-multiplicity crossings.  It is counted in batches of
    lambda (_morse_counts: the grid, then every open bracket's midpoint per
    bisection round) from the discrete spectrum theta, computed once per
    isotypic block, and the p eigenvalues mu_k of the symmetrized
    H0(lambda): no Jacobian is assembled and the persistent zero modes of
    the pinning directions stay outside the count.  Crossings at lambda = 0
    are dropped.  A window not finite or not of positive length raises
    ValueError.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"window must be finite and of positive length, got ({lo}, {hi})")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    grid = np.linspace(lo, hi, steps + 1)
    grid[np.abs(grid) <= 1e-12] = 1e-12
    theta = np.concatenate(_trivial_spectrum(problem))
    morse = _morse_counts(problem, theta, grid)
    # brackets of a count change; each round halves every open bracket,
    # counting all their midpoints in one call, until narrower than _REFINE_TOL
    changes = [i for i in range(steps) if morse[i + 1] != morse[i]]
    brackets = [(grid[i], morse[i], grid[i + 1], morse[i + 1]) for i in changes]
    found = []
    while brackets:
        found += [0.5 * (a + b) for a, _, b, _ in brackets if b - a < _REFINE_TOL]
        brackets = [(a, ma, b, mb) for a, ma, b, mb in brackets if b - a >= _REFINE_TOL]
        mids = [0.5 * (a + b) for a, _, b, _ in brackets]
        halves = []
        for (a, ma, b, mb), mid, mm in zip(brackets, mids, _morse_counts(problem, theta, mids)):
            if mm != ma:
                halves.append((a, ma, mid, mm))
            if mb != mm:
                halves.append((mid, mm, b, mb))
        brackets = halves

    out = []
    for lam in sorted(lam for lam in found if abs(lam) >= 1e-6):
        if not out or abs(lam - out[-1]) > 1e-8:
            out.append(lam)
    return out


def _kernel_direction(space, lam_star):
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
    last bits of J.  J is space.problem's, on those rows alone
    (_branch_jacobian), and the seed is lifted to every row of space.full."""
    zero = np.zeros(space.problem.n_dof)
    # at c = 0 the pinning rows are the component generators on the constant
    # row, which lies in the subspace
    Q = _complement(_pinning_rows(space.problem, zero))
    M = Q.T @ _branch_jacobian(space, zero, lam_star) @ Q
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    v = space.lift(Q @ vecs[:, int(np.argmin(np.abs(vals)))])
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    # scale so the seed function has unit sup deviation
    amp = space.full.sup_deviation(v)
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
    names the test that failed, or chains the NewtonError.  The subspace
    (_subspace) is built once and serves the seed, the solve and the point.
    """
    space = _subspace(problem)
    v = _kernel_direction(space, lam_star)[space.idx]
    seed = _SEED_AMPLITUDE * v
    vhat = v / np.linalg.norm(v)
    border = np.append(vhat, 0.0)
    target = float(np.dot(vhat, seed))
    fail = f"no branch captured at lambda_star={lam_star}"
    try:
        c, lam, rn, _ = _bordered_newton(
            space, seed, lam_star, border, np.zeros_like(border), target, NEWTON_TOL, 30
        )
    except NewtonError as err:
        raise NoBranchError(f"{fail}: {err}") from err
    bp, J = _make_point(space, c, lam, rn)
    drift = abs(bp.lam - lam_star)
    max_drift = 0.5 * max(1.0, abs(lam_star))
    if not bp.sup_norm > 0.05 * _SEED_AMPLITUDE:
        raise NoBranchError(f"{fail}: sup_norm {bp.sup_norm:.3e} <= 0.05 * amplitude")
    if not 1e-13 < drift <= max_drift:
        raise NoBranchError(f"{fail}: lambda drift {drift:.3e} outside (1e-13, {max_drift}]")
    return Branch(points=[bp], origin=("bifurcated", float(lam_star)), _start=(space, bp, J))


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


def _end_on_limit(space, A, start, end, limit):
    """(c, lam, residual norm, theta0) of the branch point of space.problem
    at lam = limit, between the accepted point start = (c, lam) and the
    corrector's point end past the limit: one bordered solve with the natural border (0, ...,
    0, 1) from the secant between them at lam = limit, begun on A with that
    border row.  Its border tolerance is 0, so lam is the limit bit for
    bit."""
    n = space.problem.n_dof
    (c0, lam0), (c1, lam1) = start, end
    border = np.zeros(n + 1)
    border[n] = 1.0
    A = A.copy()
    A[-1, : n + 1] = border
    c = c0 + ((limit - lam0) / (lam1 - lam0)) * (c1 - c0)
    return _bordered_newton(space, c, limit, border, np.zeros(n + 1), limit, 0.0, 20, A)


def _locate_fold(space, start, t0, step, f1, A):
    """Branch point at the fold between the accepted point start = (c, lam),
    whose unit tangent t0 has lambda component t0[-1], and the next one, at
    arclength step along t0, whose tangent's lambda component f1 has the
    other sign.  Illinois iteration on the arclength s for a zero of the
    lambda component f(s) of the tangent at the point of arclength s, each
    trial point corrected on the border t0 as the continuation corrects it,
    from the last tangent's matrix, which is bordered by t0 too (Allgower &
    Georg, Introduction to Numerical Continuation Methods, 2003, ch. 9).
    The fold is the first trial point with |f| <= _FOLD_TOL; NewtonError
    when a trial fails or none is found in _FOLD_MAXIT trials."""
    sub = space.problem
    n = sub.n_dof
    c0, lam0 = start
    base = np.append(c0, lam0)
    a, fa, b, fb = 0.0, t0[n], step, f1
    for _ in range(_FOLD_MAXIT):
        s = (a * fb - b * fa) / (fb - fa)
        pred = (c0 + s * t0[:n], lam0 + s * t0[n])
        c, lam, rn, _ = _bordered_newton(space, *pred, t0, base, s, 10 * NEWTON_TOL, 20, A)
        H = _nodal_hessian(sub, c, lam)
        J = _block(space, 0, H)
        t, A = _tangent(sub, c, lam, J, t0)
        if abs(t[n]) <= _FOLD_TOL:
            return _make_point(space, c, lam, rn, H, J)[0]
        if t[n] * fb < 0:
            a, fa = b, fb
        else:
            fa *= 0.5  # the Illinois halving of the end kept twice
        b, fb = s, t[n]
    raise NewtonError(f"fold not located near lambda={lam0}")


def _step_factor(theta0):
    """Factor of the next arclength step from the corrector's first
    contraction theta0 (_bordered_newton): _THETA_BAR / theta0 within [1/2,
    _DS_GROWTH], which aims the next step at theta0 = _THETA_BAR while
    theta0 grows linearly with the step, and _DS_GROWTH when theta0 = 0
    (after Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 5,
    adaptive pathfollowing, with theta0 measured on the kept QNERR steps)."""
    return _DS_GROWTH if theta0 == 0.0 else min(max(_THETA_BAR / theta0, 0.5), _DS_GROWTH)


def continue_branch(
    problem: GalerkinProblem,
    seed: Branch,
    lam_limits,
    max_steps: int = 200,
    ds_max: float = 1.0,
) -> Branch:
    """Pseudo-arclength continuation from a seed branch of switch_branch.

    The branch is followed on the rows of the axial fixed-point subspace
    (module docstring), from the last seed point along the secant from
    (0, lambda_star).  A seed whose origin is not ("bifurcated",
    lambda_star), or whose last point has a nonzero coefficient off that
    subspace, raises ValueError, and so do a ds_max that is not positive and
    finite and a max_steps below 1.  The corrector starts on the tangent's
    matrix and may take 20 steps, retaken ones included, so that steps
    contracting just within _CHORD_BAR can finish.  The step starts at
    min(_DS0, ds_max) and halves when the corrector fails.  After every
    accepted step it is scaled by 0.4 / theta0 (_THETA_BAR), clamped to
    [1/2, 4] (_DS_GROWTH), with theta0 the corrector's first contraction
    (_step_factor): fourfold when the corrector converges in one step, by
    half when it leaves the tangent's matrix for a retake (theta0 = inf).
    ds_max caps it.  The default cap 1.0 binds on the builtin verify
    branches only on two steps of the S^2 so2-ring branch from lambda* = 6,
    which takes 12 points under it and 11 without; every other step is at
    most 0.94.  The run stops at the lambda limits, on step underflow, after
    max_steps, or when the branch returns to the trivial family away from
    its origin level ("reconnects-to-trivial").

    The ends of the branch do not depend on the step.  A step whose point
    lies past a lambda limit is replaced by the point on the limit
    (_end_on_limit), bit for bit, and the run stops there ("lambda-limit");
    if that solve fails, the step halves as for a failed corrector.  When
    the tangent's lambda component changes sign between two accepted
    points, the fold between them is located (_locate_fold) and inserted
    between them; the run goes on from the second point, so the accepted
    points are those of a run without fold location.  A fold whose location
    fails is left out.
    """
    if not 0 < ds_max < math.inf:
        raise ValueError(f"ds_max must be positive and finite, got {ds_max}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    lo, hi = float(lam_limits[0]), float(lam_limits[1])
    points = list(seed.points)
    if not points:
        raise ValueError("seed branch has no points")
    kind, lam_star = seed.origin
    if kind != "bifurcated" or lam_star is None:
        raise ValueError(f"seed origin must be ('bifurcated', lambda_star), got {seed.origin}")
    start = seed._start
    # switch_branch's subspace and Jacobian, while the seed ends on its point
    # and is continued on its problem
    if start is not None and start[0].full is problem and start[1] is points[-1]:
        space, _, J = start
    else:
        space, J = _subspace(problem), None
    if np.any(np.delete(points[-1].c, space.idx) != 0):
        raise ValueError("seed point has coefficients off the axial fixed-point subspace")
    branch = Branch(points=points, origin=seed.origin)
    sub = space.problem
    c = points[-1].c[space.idx]
    lam = points[-1].lam
    n = sub.n_dof
    t_prev = np.concatenate([c, [lam - lam_star]])
    nt = np.linalg.norm(t_prev)
    t_prev = t_prev / nt if nt > 0 else np.concatenate([np.zeros(n), [1.0]])
    ds = min(_DS0, ds_max)
    # the accepted point before (c, lam) and the arclength between them, once
    # there is one: t_prev is then the tangent there
    prev, step = None, None
    # the Jacobian at the last accepted point gives the next tangent, and is
    # dropped before the corrector runs, which keeps only the tangent's
    # bordered matrix; at every accepted point it is the point's first block
    if J is None:
        J = _branch_jacobian(space, c, lam)
    for _ in range(max_steps):
        try:
            t, A = _tangent(sub, c, lam, J, t_prev)
        except NewtonError:
            branch.termination = "tangent-failure"
            return branch
        J = None
        if prev is not None and t[n] * t_prev[n] < 0:
            try:
                branch.points.insert(-1, _locate_fold(space, prev, t_prev, step, t[n], A))
            except NewtonError:
                pass
        # the corrector's first matrix: the tangent's, bordered by t, not t_prev
        A[-1, : n + 1] = t
        while ds >= _DS_MIN:
            # the border t holds the arclength from (c, lam) at ds
            pred = (c + ds * t[:n], lam + ds * t[n])
            try:
                c_new, lam_new, rn, theta0 = _bordered_newton(
                    space, *pred, t, np.append(c, lam), ds, 10 * NEWTON_TOL, 20, A
                )
                limit = lo if lam_new < lo else hi if lam_new > hi else None
                if limit is not None and lo <= lam <= hi:
                    end = (c_new, lam_new)
                    c_new, lam_new, rn, _ = _end_on_limit(space, A, (c, lam), end, limit)
                break
            except NewtonError:
                ds *= 0.5
        else:
            branch.termination = "step-underflow"
            return branch
        prev, step = (c, lam), ds
        c, lam = c_new, lam_new
        t_prev = t
        A = None
        bp, J = _make_point(space, c, lam, rn)
        branch.points.append(bp)
        ds = min(ds * _step_factor(theta0), ds_max)
        if limit is not None:
            branch.termination = "lambda-limit"
            return branch
        if bp.sup_norm < 1e-7 and abs(lam - lam_star) > 1e-3:
            branch.termination = "reconnects-to-trivial"
            return branch
    branch.termination = "max-steps"
    return branch


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
