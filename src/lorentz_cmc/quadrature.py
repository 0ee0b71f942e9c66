"""Globally adaptive Gauss-Kronrod quadrature on finite intervals.

A 7-point Gauss rule embedded in a 15-point Kronrod rule gives a value and
an error estimate from the same 15 evaluations; the subinterval with the
largest estimate is bisected until the estimates sum below the requested
absolute tolerance.  All nodes are interior, so integrands only need to be
defined on the open interval (endpoint limits are never sampled).

Integrands must be vectorized: called with a numpy array, returning an
array of the same shape.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from ._parallel import _each
from .core import DEFAULT_QUAD_TOL, _require_positive
from .errors import QuadratureFailure

__all__ = ["integrate", "panel_sums"]

_PANEL_BUDGET = 10_000  # subintervals ``integrate`` may use before it gives up
# ``integrate`` splits an interval geometrically when hi / lo exceeds this
PRESPLIT_RATIO = 1e3
# Roundoff floor, relative to the sum of |panel values|, under any tolerance
_ROUNDOFF = 50.0 * np.finfo(float).eps

# Kronrod-15 abscissae (positive half, descending) and weights; the odd
# entries are the embedded Gauss-7 nodes.
_XGK_HALF = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224,
    0.063092092629978553,
    0.104790010322250184,
    0.140653259715525919,
    0.169004726639267903,
    0.190350578064785410,
    0.204432940075298892,
    0.209482141084727828,
])
_WG = np.array([
    0.129484966168869693,
    0.279705391489276668,
    0.381830050505118945,
    0.417959183673469388,
])

# Full 15-node layout: negative nodes, zero, positive nodes; the Gauss-7
# nodes are rows 1, 3, ..., 13.
_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG7 = np.concatenate([_WG, _WG[2::-1]])

# Panels per block in ``panel_sums``: one block's (15, _BLOCK) float arrays
# (240 KiB each) stay in L2; each thread works on one block at a time.
_BLOCK = 2048


def _node_order_sum(rows):
    """The sum of ``rows`` (at least two), one elementwise add per row in
    row order: the same bits for a panel whatever else is in the batch."""
    total = rows[0] + rows[1]
    for row in rows[2:]:
        total += row
    return total


def _kronrod_gauss(fn, los, his):
    """K15 sums and |K15 - G7| of the panels [los, his] in one vectorized ``fn`` call."""
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    ys = np.asarray(fn(mid + _NODES[:, None] * half), dtype=float)
    # an infinite sample makes 0 * inf at a Kronrod-only node and inf - inf
    # in |K - G|: nan marks the panel unresolved, no warning
    with np.errstate(invalid="ignore"):
        k = half * _node_order_sum(_WGK[:, None] * ys)
        return k, np.abs(k - half * _node_order_sum(_WG7[:, None] * ys[1::2]))


def panel_sums(fn, los, his):
    """Kronrod values and |K15 - G7| error estimates for a batch of panels.

    ``los`` and ``his`` are equal-length 1-d arrays of panel endpoints.
    This is the non-adaptive building block: one 15-point rule per panel,
    evaluated ``_BLOCK`` panels at a time, one vectorized ``fn`` call per
    block, the blocks shared by the calling thread and one helper
    (``_parallel._each``), so ``fn`` is called from two threads at
    once.  Each panel's weighted samples are summed in node order, one
    elementwise IEEE operation at a time, so its sums are the same bits
    in any batch, any block and on any thread, and no BLAS kernel takes
    part.  Working memory is the result arrays plus, per thread, one
    block's (15, block) nodes and samples, at most 240 KiB each, whatever
    the batch size.  An exception ``fn`` raises is that of the first
    block that raised, as in a serial loop.  Raises ValueError unless
    every panel's ends and width are finite.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    if not np.isfinite(his - los).all():
        raise ValueError("panel ends and widths must be finite")
    k, e = np.empty(los.size), np.empty(los.size)

    def block(i):
        at = slice(i * _BLOCK, (i + 1) * _BLOCK)
        k[at], e[at] = _kronrod_gauss(fn, los[at], his[at])

    _each(block, -(-los.size // _BLOCK))
    return k, e


def _initial_cuts(lo, hi):
    # Geometric pre-split for very wide positive intervals, so the first error
    # estimates are informative; where hi / lo overflows, cut by logs instead.
    span = float(hi) / float(lo) if lo > 0.0 else 0.0  # inf, not a numpy warning
    if math.isinf(span):
        log_lo, log_hi = math.log10(lo), math.log10(hi)
        n = math.ceil(log_hi - log_lo)
        step = (log_hi - log_lo) / n
        return [10.0 ** (log_lo + k * step) for k in range(1, n)]
    if span > PRESPLIT_RATIO:
        n = math.ceil(math.log10(span))
        ratio = span ** (1.0 / n)
        return [lo * ratio**k for k in range(1, n)]
    return []


def integrate(fn, lo, hi, tol=DEFAULT_QUAD_TOL):
    """Integrate ``fn`` over [lo, hi] to absolute tolerance ``tol``.

    ``fn`` must accept and return numpy arrays.  Bounds may be given in
    either order (the sign follows the orientation).

    Termination is at max(tol, 50 eps sum|panel values|): an absolute
    tolerance finer than the roundoff of the accumulated magnitude is
    unattainable in float64, so the request is floored there.  Raises
    QuadratureFailure if 10^4 subintervals do not suffice, or as soon as a
    bisection makes a panel with no float strictly inside it (roundoff
    width), whatever that panel's estimate: its 15 nodes round to its two
    ends, so K15 and G7 may agree exactly on a spike they cannot resolve.
    The interval given, or a piece of its pre-split, may be of roundoff
    width; it raises only if it has to be bisected.  Mass within an ulp of
    a float is invisible to this and to any sampling rule: a spike that
    narrow is neither seen nor reported.  Raises ValueError unless ``tol``
    is finite and positive and both bounds are finite.
    """
    _require_positive("tol", tol)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bounds must be finite, got ({lo}, {hi})")
    if lo == hi:
        return 0.0
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0

    cuts = [lo] + _initial_cuts(lo, hi) + [hi]
    tie = itertools.count()
    heap = []
    value = 0.0
    abs_value = 0.0
    err_open = 0.0  # panels with finite estimates
    n_unresolved = 0  # panels whose estimate is infinite

    def panels(los, his):
        """(a, b, k, e) of each panel, in one ``panel_sums`` call."""
        ks, es = panel_sums(fn, np.array(los), np.array(his))
        return [(a, b, k, e) if math.isfinite(k) and math.isfinite(e)
                # non-finite sample inside the panel: contribute nothing, flag
                # the panel as unresolved so refinement keeps narrowing around it
                else (a, b, 0.0, math.inf)
                for a, b, k, e in zip(los, his, ks.tolist(), es.tolist())]

    def push(a, b, k, e):
        nonlocal value, abs_value, err_open, n_unresolved
        heapq.heappush(heap, (-e, next(tie), a, b, k, e))
        value += k
        abs_value += abs(k)
        if math.isinf(e):
            n_unresolved += 1
        else:
            err_open += e

    for panel in panels(cuts[:-1], cuts[1:]):
        push(*panel)
    n_panels = len(cuts) - 1

    while n_unresolved or err_open > max(tol, _ROUNDOFF * abs_value):
        if n_panels >= _PANEL_BUDGET:
            raise QuadratureFailure(
                f"error estimate {err_open:.3e} above tol {tol:.3e} "
                f"({n_unresolved} unresolved panels) after {n_panels} subintervals"
            )
        _, _, a, b, k, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        children = panels([a, m], [m, b])
        for u, v, _, child_e in children:
            if not (u < 0.5 * (u + v) < v):
                raise QuadratureFailure(
                    f"roundoff-width panel [{u}, {v}] has error estimate {child_e:.3e}"
                )
        value -= k
        abs_value -= abs(k)
        if math.isinf(e):
            n_unresolved -= 1
        else:
            err_open -= e
        for child in children:
            push(*child)
        n_panels += 1

    return sign * value
