"""Bessel functions of integer order, spherical Bessel functions, and the
radial Neumann condition on the disk and the 3-ball.

Everything is self-contained and array-native: each function evaluates over
numpy arrays, with `order` broadcasting against `x`, and returns a float for
scalar input.  Each entry is summed by the ascending series for |x| <=
SERIES_CUTOFF and by Miller's downward recurrence above it (DLMF §10.74(i)
and (iii), §3.6(iii)); the series stops entry by entry.  The Neumann roots of all
angular orders are bracketed on one grid and refined together by safeguarded
Newton steps of one Bessel call each, J'' and j'' from DLMF §10.2.1, §10.47.1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SERIES_CUTOFF = 12.0
ROOT_GRID_STEP = 0.1
_NEWTON_RTOL = 1e-12  # a root is done when its Newton step is at most this times x
_NEWTON_STEPS = 60  # more than the bisection levels from ROOT_GRID_STEP to _NEWTON_RTOL


def besselj(order, x):
    """Bessel function J_order(x) for integer order >= 0."""
    return _evaluate(order, x, _besselj_series, _besselj_miller)


def sphericalj(order, x):
    """Spherical Bessel function j_order(x) for integer order >= 0."""
    return _evaluate(order, x, _sphericalj_series, _sphericalj_miller)


def besseljp(order, x):
    """Derivative J_order'(x), with J_{-1} = -J_1."""
    return _out(_radial(2, *np.broadcast_arrays(np.asarray(order), np.asarray(x, float)))[0])


def sphericaljp(order, x):
    """Derivative j_order'(x); j_0' = -j_1, and at x = 0 the limit: 1/3 for
    order 1, 0 otherwise."""
    return _out(_radial(3, *np.broadcast_arrays(np.asarray(order), np.asarray(x, float)))[0])


def _radial(ambient_dim, order, x):
    """g = J_order' (N = 2) or j_order' (N = 3) from one Bessel call over the orders
    (l - 1, l + 1) or (l - 1, l), (1, 0) at l = 0, and g' from x^2 f'' + (N - 1) x f'
    + (x^2 - l (l + N - 2)) f = 0 for f = J_l = x (J_{l-1} + J_{l+1}) / 2l or j_l."""
    zero = order == 0
    if ambient_dim == 2:
        vals = besselj(np.stack([np.where(zero, 1, order - 1), np.where(zero, 0, order + 1)]), x)
        g = np.where(zero, -vals[0], 0.5 * (vals[0] - vals[1]))
        f = np.where(zero, vals[1], x * (vals[0] + vals[1]) / (2 * np.maximum(order, 1)))
    else:
        vals = sphericalj(np.stack([np.where(zero, 1, order - 1), order]), x)
        with np.errstate(divide="ignore", invalid="ignore"):  # j_l'(0) is its limit
            g = np.where(zero, -vals[0], vals[0] - (order + 1.0) / x * vals[1])
        g, f = np.where(x == 0.0, (order == 1) / 3.0, g), vals[1]
    with np.errstate(divide="ignore", invalid="ignore"):  # g' is not wanted at x = 0
        curvature = 1.0 - order * (order + ambient_dim - 2.0) / (x * x)
        return g, -(ambient_dim - 1.0) * g / x - curvature * f


def _out(values):
    return float(values) if np.ndim(values) == 0 else values


def _evaluate(order, x, series, miller):
    """Broadcast, check the order, reflect negative x, route each entry."""
    order, x = np.broadcast_arrays(np.asarray(order), np.asarray(x, float))
    if order.dtype.kind not in "iu" or np.any(order < 0):
        raise ValueError("order must be a nonnegative integer")
    ax = np.abs(x)
    out = np.array(order == 0, float)  # the value at x = 0
    for mask, method in ((ax > 0.0) & (ax <= SERIES_CUTOFF), series), (ax > SERIES_CUTOFF, miller):
        if mask.any():
            out[mask] = method(order[mask].astype(int), ax[mask])
    return _out(np.where((x < 0.0) & (order % 2 == 1), -out, out))


def _series(term, hh, order, denom):
    """Sum of term_m = term_{m-1} * (-hh / denom(m, order)) over m >= 0, per entry,
    until the last added term is below 1e-18 of the sum (at most 401 terms)."""
    total = term.copy()
    live = np.arange(term.size)
    m = 0
    while live.size and m <= 400:
        m += 1
        term = term * (-hh / denom(m, order))
        total[live] += term
        keep = np.abs(term) >= 1e-18 * (np.abs(total[live]) + 1e-300)
        live, term, hh, order = live[keep], term[keep], hh[keep], order[keep]
    return total


def _besselj_series(order, x):
    # (x/2)^l / l! and the term ratio of DLMF 10.2.2
    half = 0.5 * x
    term = _leading_term(order, half, lambda k: k)
    return _series(term, half * half, order, lambda m, l: m * (m + l))


def _sphericalj_series(order, x):
    # x^l / (2l + 1)!! and the term ratio of DLMF 10.53.1
    term = _leading_term(order, x, lambda k: 2 * k + 1)
    return _series(term, 0.5 * x * x, order, lambda m, l: m * (2 * (m + l) + 1))


def _leading_term(order, z, denom):
    """prod_{k=1..order} z / denom(k) by multiplication alone, so the result
    does not depend on the platform's pow."""
    term = np.ones_like(z)
    for k in range(1, int(order.max()) + 1):
        term = np.where(order >= k, term * (z / denom(k)), term)
    return term


def _miller_start(order, x):
    return np.maximum(order, x.astype(int)) + 20 + (8.0 * np.sqrt(np.maximum(1.0, x))).astype(int)


def _downward(order, x, start, shift2):
    """Miller's recurrence f_{n-1} = ((2n + shift2) / x) f_n - f_{n+1}, started
    per entry at f_start = 1e-30, f_{start+1} = 0.

    Returns f_order, f_0, f_1 and f_0 + 2 (f_2 + f_4 + ...), all in one
    arbitrary scale per entry.
    """
    f_next = np.zeros_like(x)
    f = np.full_like(x, 1e-30)
    wanted = np.zeros_like(x)
    f1 = np.zeros_like(x)
    norm = np.zeros_like(x)
    orders, first = set(order.tolist()), int(start.min())
    for n in range(int(start.max()), 0, -1):
        f_prev = ((2.0 * n + shift2) / x) * f - f_next
        waiting = n > first  # entries that start below n keep their initial values
        if waiting:
            on = start >= n
            f_next, f = np.where(on, f, f_next), np.where(on, f_prev, f)
        else:
            f_next, f = f, f_prev
        if n - 1 in orders:  # start > order, so the entry is running
            wanted = np.where(order == n - 1, f, wanted)
        if n == 2:
            f1 = f.copy()
        if (n - 1) % 2 == 0:
            norm = np.where(on, norm + 2.0 * f, norm) if waiting else norm + 2.0 * f
        big = np.abs(f) > 1e250
        if big.any():
            for arr in (f, f_next, norm, wanted, f1):
                arr[big] *= 1e-250
    return wanted, f, f1, norm - f  # the f_0 term was added twice


def _besselj_miller(order, x):
    # normalized with J_0 + 2 (J_2 + J_4 + ...) = 1, from an even start
    start = _miller_start(order, x)
    start += start % 2
    wanted, _, _, norm = _downward(order, x, start, 0.0)
    return wanted / norm


def _sphericalj_miller(order, x):
    wanted, f0, f1, _ = _downward(order, x, _miller_start(order, x), 1.0)
    j0 = np.sin(x) / x
    j1 = np.sin(x) / (x * x) - np.cos(x) / x
    # normalize against whichever reference value is better conditioned
    return wanted * np.where(np.abs(j0) >= np.abs(j1), j0 / f0, j1 / f1)


def neumann_roots(ambient_dim: int, x_max: float) -> list[list[float]]:
    """Positive roots x <= x_max of the radial Neumann condition, per order.

    The eigenfunctions of the unit ball in dimension N are
    r^((2-N)/2) J_{l+(N-2)/2}(x r) times a spherical harmonic; the zero-normal-
    derivative condition at r = 1 reduces to J_l'(x) = 0 for N = 2 and
    j_l'(x) = 0 for N = 3.  Entry l of the result lists the roots of order l,
    ascending; the list ends before the first order l > 0 with no root.
    """
    if ambient_dim not in (2, 3):
        raise ValueError("ball domains are supported for N in {2, 3}")
    if not 0.0 < x_max < math.inf:
        raise ValueError(f"x_max must be positive and finite, got {x_max}")
    # the grid 0.05, 0.15, ... accumulates like a running sum and ends at x_max
    grid = np.cumsum(ROOT_GRID_STEP * np.r_[0.5, np.ones(int(x_max / ROOT_GRID_STEP) + 2)])
    grid = np.r_[grid[grid < x_max], x_max]
    # the first root of order l >= 1 exceeds l, so orders above x_max have none
    orders = np.arange(int(x_max) + 2)
    newton = functools.partial(_radial, ambient_dim)
    vals = newton(orders[:, None], grid[None, :])[0]
    fa, fb = vals[:, :-1], vals[:, 1:]
    # an exact grid zero is underflow (x^(l-1) tail), not a root bracket
    l_idx, k_idx = np.nonzero((fa != 0.0) & (fb != 0.0) & (fa * fb < 0.0))
    roots = _newton(newton, l_idx, grid[k_idx], grid[k_idx + 1], fa[l_idx, k_idx], fb[l_idx, k_idx])
    out = [roots[l_idx == l].tolist() for l in orders]
    return out[:next(l for l in range(1, len(out)) if not out[l])]


def _newton(newton, order, a, b, fa, fb):
    """Roots of g(order, .) in brackets (a, b) with g(a) = fa, g(b) = fb of opposite
    signs by safeguarded Newton, all together; newton(order, x) gives g and g'.  Each
    step calls newton once at the live iterates (first the regula-falsi points), moves
    the bracket end where g has its sign to the iterate, and takes the Newton point or,
    if that is not inside, the midpoint.  A root is an iterate where g is exactly 0 or
    the Newton point of a step <= _NEWTON_RTOL x; one live after _NEWTON_STEPS raises."""
    x = a - fa * (b - a) / (fb - fa)
    root, live = np.full(a.size, np.nan), np.arange(a.size)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            return root
        g, dg = newton(order, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where(g == 0.0, x, x - g / dg)
        left = fa * g < 0.0
        a, b, fa = np.where(left, a, x), np.where(left, x, b), np.where(left, fa, g)
        done = np.abs(new - x) <= _NEWTON_RTOL * x
        root[live[done]] = new[done]
        x = np.where((new > a) & (new < b), new, 0.5 * (a + b))
        live, order, x, a, b, fa = (v[~done] for v in (live, order, x, a, b, fa))
    if live.size:
        raise RuntimeError(f"Neumann root of order {order[0]} not converged in ({a[0]}, {b[0]})")
    return root
