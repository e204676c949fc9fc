"""Bessel functions of integer order, spherical Bessel functions, and the
radial Neumann condition on the disk and the 3-ball.

Everything is self-contained and array-native: each function evaluates over
numpy arrays, with `order` broadcasting against `x`, and returns a float for
scalar input.  Each entry is summed by the ascending series for |x| <=
SERIES_CUTOFF and by Miller's downward recurrence above it (DLMF §10.74(i)
and (iii), §3.6(iii)); the series stops entry by entry.  The Neumann roots of all
angular orders are bracketed on one grid and refined by bisection together,
several bisection levels per call with the bits of one level per call.
"""

from __future__ import annotations

import math

import numpy as np

SERIES_CUTOFF = 12.0
ROOT_GRID_STEP = 0.1
ROOT_TOL = 1e-12
_LEVELS = 4  # bisection levels of every bracket per call of the function


def besselj(order, x):
    """Bessel function J_order(x) for integer order >= 0."""
    return _evaluate(order, x, _besselj_series, _besselj_miller)


def sphericalj(order, x):
    """Spherical Bessel function j_order(x) for integer order >= 0."""
    return _evaluate(order, x, _sphericalj_series, _sphericalj_miller)


def besseljp(order, x):
    """Derivative J_order'(x), with J_{-1} = -J_1."""
    order, x = np.broadcast_arrays(np.asarray(order), np.asarray(x, float))
    vals = besselj(np.stack([np.where(order == 0, 1, order - 1), order + 1]), x)
    lower = np.where(order == 0, -vals[0], vals[0])
    return _out(0.5 * (lower - vals[1]))


def sphericaljp(order, x):
    """Derivative j_order'(x); j_0' = -j_1."""
    order, x = np.broadcast_arrays(np.asarray(order), np.asarray(x, float))
    vals = sphericalj(np.stack([np.where(order == 0, 1, order - 1), order]), x)
    return _out(np.where(order == 0, -vals[0], vals[0] - (order + 1.0) / x * vals[1]))


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
    if ambient_dim == 2:
        g = besseljp
    elif ambient_dim == 3:
        g = sphericaljp
    else:
        raise ValueError("ball domains are supported for N in {2, 3}")
    # the grid 0.05, 0.15, ... accumulates like a running sum and ends at x_max
    steps = int(max(x_max, 0.0) / ROOT_GRID_STEP) + 2
    grid = np.cumsum(np.r_[0.5 * ROOT_GRID_STEP, np.full(steps, ROOT_GRID_STEP)])
    grid = grid[grid < x_max]
    if grid.size:
        grid = np.r_[grid, x_max]
    # the first root of order l >= 1 exceeds l, so orders above x_max have none
    orders = np.arange(int(max(x_max, 0.0)) + 2)
    vals = g(orders[:, None], grid[None, :])
    fa, fb = vals[:, :-1], vals[:, 1:]
    # an exact grid zero is underflow (x^(l-1) tail), not a root bracket
    l_idx, k_idx = np.nonzero((fa != 0.0) & (fb != 0.0) & (fa * fb < 0.0))
    roots = _bisect(g, l_idx, grid[k_idx], grid[k_idx + 1], fa[l_idx, k_idx])
    out = [roots[l_idx == l].tolist() for l in orders]
    top = next(l for l in range(1, len(out)) if not out[l])
    return out[:top]


def _bisect(g, order, a, b, fa):
    """Bisect every bracket [a, b] of g(order, .) together down to ROOT_TOL.

    Each call of g takes every midpoint of the next _LEVELS bisection levels
    of each live bracket, 2^_LEVELS - 1 of them in heap order (the children
    of node i are 2i + 1, left, and 2i + 2).  The levels are then replayed one
    at a time with the tests of one-level bisection, so the roots are the
    same bits as bisecting one level per call."""
    exact = np.full(a.size, np.nan)  # a midpoint where g is exactly 0
    live = np.nonzero(b - a > ROOT_TOL)[0]
    while live.size:
        lo, hi, mids = a[live][None, :], b[live][None, :], []
        for _ in range(_LEVELS):
            mid = 0.5 * (lo + hi)
            mids.append(mid)
            lo = np.stack([lo, mid], axis=1).reshape(-1, live.size)
            hi = np.stack([mid, hi], axis=1).reshape(-1, live.size)
        mids = np.concatenate(mids)
        vals = g(np.broadcast_to(order[live], mids.shape), mids)
        col, node = np.arange(live.size), np.zeros(live.size, int)
        for _ in range(_LEVELS):
            mid, fm = mids[node, col], vals[node, col]
            hit = fm == 0.0
            exact[live[hit]] = mid[hit]
            left = ~hit & (fa[live] * fm < 0.0)
            right = ~hit & ~left
            b[live[left]] = mid[left]
            a[live[right]] = mid[right]
            fa[live[right]] = fm[right]
            keep = np.isnan(exact[live]) & (b[live] - a[live] > ROOT_TOL)
            live, col, node = live[keep], col[keep], (2 * node + np.where(left, 1, 2))[keep]
    return np.where(np.isnan(exact), 0.5 * (a + b), exact)
