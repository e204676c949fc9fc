"""Bessel functions of integer order, spherical Bessel functions, and the
radial Neumann condition on the disk and the 3-ball.

Everything is self-contained and array-native: each function evaluates over
numpy arrays, with `order` broadcasting against `x`, and returns a float for
scalar input.  Every value comes from Miller's downward recurrence (DLMF
§10.74(iii); Gautschi, SIAM Rev. 9, 1967), one sweep for a whole call: each
lane is an argument |x| >= 1e-300 (below it J and j are their first terms)
with a start that depends only on x and the order read from it, and holds 0
until that start, so every order below the start comes off the same lane and
no value depends on what else is in the call.
J_l is normalized by J_0 + 2 (J_2 + J_4 + ...) = 1 (DLMF §10.23.3), j_l
against j_0 or j_1 in closed form.  The Neumann roots of all angular orders are
bracketed on one table over a grid and refined together by safeguarded Newton
steps of one sweep each, J'' and j'' from DLMF §10.2.1, §10.47.1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

ROOT_GRID_STEP = 0.1
_NEWTON_RTOL = 1e-12  # a root is done when its Newton step is at most this times x
_NEWTON_STEPS = 60  # more than the bisection levels from ROOT_GRID_STEP to _NEWTON_RTOL


class NeumannRootError(RuntimeError):
    """A Neumann root that Newton refinement did not converge in its bracket."""


def besselj(order, x):
    """Bessel function J_order(x) for integer order >= 0."""
    return _out(_entries(0, order, x))


def sphericalj(order, x):
    """Spherical Bessel function j_order(x) for integer order >= 0."""
    return _out(_entries(1, order, x))


def besseljp(order, x):
    """Derivative J_order'(x), with J_{-1} = -J_1."""
    return _out(_radial(2, *np.broadcast_arrays(np.asarray(order), np.asarray(x, float)))[0])


def sphericaljp(order, x):
    """Derivative j_order'(x); j_0' = -j_1, and at x = 0 the limit: 1/3 for
    order 1, 0 otherwise."""
    return _out(_radial(3, *np.broadcast_arrays(np.asarray(order), np.asarray(x, float)))[0])


def _radial(ambient_dim, order, x, table=None):
    """g = J_order' (N = 2) or j_order' (N = 3) from the orders (l - 1, l + 1) or
    (l - 1, l), (1, 0) at l = 0, read off one lane per entry or, given, off the
    columns of table (_table over x), and g' from x^2 f'' + (N - 1) x f'
    + (x^2 - l (l + N - 2)) f = 0 for f = J_l = x (J_{l-1} + J_{l+1}) / 2l or j_l.
    Below |x| = 1e-300 g is the first term of its series: for N = 2 the first
    terms of J read off _at give it, and for N = 3 it is -x / 3, 1/3, 2 x / 15
    at l = 0, 1, 2 and 0 above, where (l + 1) / x may overflow."""
    zero = order == 0
    pair = np.stack([np.where(zero, 1, order - 1), np.where(zero, 0, order + 3 - ambient_dim)])
    if table is None:
        vals = _at(ambient_dim - 2, pair, x)
    else:
        vals = table[pair, np.arange(x.shape[-1])]
    if ambient_dim == 2:
        g = np.where(zero, -vals[0], 0.5 * (vals[0] - vals[1]))
        f = np.where(zero, vals[1], x * (vals[0] + vals[1]) / (2 * np.maximum(order, 1)))
    else:
        with np.errstate(all="ignore"):  # not taken below 1e-300
            g = np.where(zero, -vals[0], vals[0] - (order + 1.0) / x * vals[1])
        first = np.select([zero, order == 1, order == 2], [-x / 3.0, 1.0 / 3.0, 2.0 * x / 15.0])
        g, f = np.where(np.abs(x) < 1e-300, first, g), vals[1]
    with np.errstate(all="ignore"):  # g' is not wanted below 1e-300
        curvature = 1.0 - order * (order + ambient_dim - 2.0) / (x * x)
        return g, -(ambient_dim - 1.0) * g / x - curvature * f


def _out(values):
    return float(values) if np.ndim(values) == 0 else values


def _entries(shift, order, x):
    order, x = np.broadcast_arrays(np.asarray(order), np.asarray(x, float))
    return _at(shift, order[None], x)[0]


def _at(shift, orders, x):
    """f_orders(x), J (shift 0) or j (shift 1), for nonnegative integer orders
    of shape (k, *x.shape): one lane per |x| >= 1e-300, read at its k orders
    and started for the largest; odd orders reflected at negative x."""
    if orders.dtype.kind not in "iu" or np.any(orders < 0):
        raise ValueError("order must be a nonnegative integer")
    ax = np.abs(x)
    live = ax >= 1e-300
    # below it the x^2 terms vanish: f_0 = 1, f_1 = x / 2 or x / 3, 0 above
    out = np.where(orders == 1, ax / (2.0 + shift), orders == 0)
    if live.any():
        reads, lanes = orders[:, live], ax[live]
        lane = np.broadcast_to(np.arange(lanes.size), reads.shape)
        out[:, live] = _sweep(shift, lanes, _start(reads.max(axis=0), lanes), lane, reads)
    return np.where((x < 0.0) & (orders % 2 == 1), -out, out)


def _table(shift, top, x):
    """f_0 .. f_top at every x >= 1e-300, a (top + 1, x.size) table; f_m(x) is read
    off the lane that starts at _start(m, x), as one lane per entry would."""
    orders = np.arange(top + 1)[:, None]
    start = _start(orders, x)  # even and nondecreasing in m: one lane per even start
    count = (start[-1] - start[0]) // 2 + 1
    offset = np.cumsum(count) - count
    lane_start = np.repeat(start[0] - 2 * offset, count) + 2 * np.arange(count.sum())
    lane = offset + (start - start[0]) // 2
    return _sweep(shift, np.repeat(x, count), lane_start, lane, np.broadcast_to(orders, lane.shape))


def _start(order, x):
    """The even start of a lane read at order at x > 0: 16 past the order and
    16 + 6 sqrt(x) past x, where the values read are those of a start 40
    further up to rounding (orders <= 120, x <= 100)."""
    reach = np.maximum(order, x.astype(int) + (6.0 * np.sqrt(np.maximum(1.0, x))).astype(int))
    return reach + 16 + reach % 2


def _sweep(shift, x, start, lane, order):
    """Miller's recurrence f_{n-1} = ((2n + shift) / x) f_n - f_{n+1} down every
    lane (x, start) at once, f = 0 above its start and 1e-30 at it; f_order of
    lane for every read (lane, order) below its start, normalized by f_0 + 2 (f_2
    + f_4 + ...) = 1 for J (shift 0), against j_0 or j_1, the larger, for j.  A
    lane whose next step could pass 1e250, |f| > 1e250 / (1 + (2n + shift) / x),
    is scaled by a power of 2 to |f|, |f_next| < 1 at that step, as it would be
    alone; as a step grows max |f| by at most 1 + (2n + shift) / min(x), lanes
    are looked at only once that bound could pass 1e250."""
    by_order = np.argsort(order, axis=None, kind="stable")
    reads = np.searchsorted(order.ravel()[by_order], np.arange(order.max() + 2)).tolist()
    by_start = np.argsort(start, kind="stable")
    starts = np.searchsorted(start[by_start], np.arange(start.max() + 2)).tolist()
    lane = lane.ravel()[by_order]
    f_next, f, even = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    out, size, x_min = np.zeros(order.size), 0.0, float(x.min())
    for n in range(len(starts) - 2, 0, -1):
        if starts[n + 1] > starts[n]:
            f[by_start[starts[n]:starts[n + 1]]] = 1e-30
            size = max(size, 1e-30)
        f_next, f = f, ((2.0 * n + shift) / x) * f - f_next
        if n < len(reads) and reads[n] > reads[n - 1]:
            read = lane[reads[n - 1]:reads[n]]
            out[reads[n - 1]:reads[n]] = f[read]
        if n % 2 and n > 1:
            even += f
        growth = 1.0 + (2.0 * n + shift) / x_min
        size *= growth
        if size * growth > 1e250:
            big = np.abs(f) > 1e250 / (1.0 + (2.0 * n + shift) / x)
            e = np.where(big, np.frexp(np.maximum(np.abs(f), np.abs(f_next)))[1], 0)
            f, f_next, even = np.ldexp(f, -e), np.ldexp(f_next, -e), np.ldexp(even, -e)
            out = np.ldexp(out, -e[lane])
            size = float(max(np.abs(f).max(), np.abs(f_next).max()))
    if shift == 0:
        out /= (f + 2.0 * even)[lane]
    else:
        j0 = np.sin(x) / x
        j1 = (j0 - np.cos(x)) / x
        with np.errstate(divide="ignore"):  # f_1 is 0 at a zero of j_1, not taken
            out *= np.where(np.abs(j0) >= np.abs(j1), j0 / f, j1 / f_next)[lane]
    values = np.empty(order.size)
    values[by_order] = out
    return values.reshape(order.shape)


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
    # J_l' reads J_{l+1}, j_l' reads j_l: one table up to the last order + 1
    table = _table(ambient_dim - 2, orders.size, grid)
    vals = _radial(ambient_dim, *np.broadcast_arrays(orders[:, None], grid), table)[0]
    fa, fb = vals[:, :-1], vals[:, 1:]
    # an exact grid zero is underflow (x^(l-1) tail), not a root bracket
    l_idx, k_idx = np.nonzero((fa != 0.0) & (fb != 0.0) & (fa * fb < 0.0))
    newton = functools.partial(_radial, ambient_dim)
    roots = _newton(newton, l_idx, grid[k_idx], grid[k_idx + 1], fa[l_idx, k_idx], fb[l_idx, k_idx])
    out = [roots[l_idx == l].tolist() for l in orders]
    return out[:next(l for l in range(1, len(out)) if not out[l])]


def _newton(newton, order, a, b, fa, fb):
    """Roots of g(order, .) in brackets (a, b) with g(a) = fa, g(b) = fb of opposite
    signs by safeguarded Newton, all together; newton(order, x) gives g and g'.  Each
    step calls newton once at the live iterates (first the regula-falsi points), moves
    the bracket end where g has its sign to the iterate, and takes the Newton point or,
    if that is not inside, the midpoint.  A root is an iterate where g is exactly 0 or
    the Newton point of a step <= _NEWTON_RTOL x; one live after _NEWTON_STEPS raises
    NeumannRootError."""
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
        raise NeumannRootError(f"Neumann root of order {order[0]} not converged in ({a[0]}, {b[0]})")
    return root
