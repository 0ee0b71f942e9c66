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

from .core import _require_positive
from .errors import QuadratureFailure

__all__ = ["DEFAULT_QUAD_TOL", "integrate", "panel_sums"]

DEFAULT_QUAD_TOL = 1e-10
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

# Full 15-node layout: negative nodes, zero, positive nodes.
_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1::2] = np.concatenate([_WG, _WG[2::-1]])

# Panels per block in ``panel_sums``: one block's (15, _BLOCK) float arrays
# (240 KiB each, up to twice that in the last block) stay in L2.  A multiple
# of the BLAS gemv kernels' row stride (4), so a panel lands in a kernel's
# tail rows in a block exactly when it does in one unblocked call, and its
# sums come out the same bits.
_BLOCK = 2048


def _kronrod_gauss(fn, los, his):
    """K15 sums and |K15 - G7| of the panels [los, his] in one vectorized ``fn`` call."""
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    ys = np.asarray(fn(mid + _NODES[:, None] * half), dtype=float)
    # an infinite sample makes 0 * inf at a Kronrod-only node and inf - inf
    # in |K - G|: nan marks the panel unresolved, no warning
    with np.errstate(invalid="ignore"):
        k = half * (_WGK @ ys)
        return k, np.abs(k - half * (_WG_FULL @ ys))


def panel_sums(fn, los, his):
    """Kronrod values and |K15 - G7| error estimates for a batch of panels.

    ``los`` and ``his`` are equal-length 1-d arrays of panel endpoints.
    This is the non-adaptive building block: one 15-point rule per panel,
    evaluated ``_BLOCK`` panels at a time, one vectorized ``fn`` call per
    block; the last block takes the remainder, so it holds up to
    ``2 _BLOCK`` panels.  Working memory is the result arrays plus one
    block's (15, block) nodes and samples, at most 480 KiB each, whatever
    the batch size, and each panel's sums are the same bits as in one
    unblocked pass.  Raises ValueError unless every panel's ends and width
    are finite.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    if not np.isfinite(his - los).all():
        raise ValueError("panel ends and widths must be finite")
    n = los.size
    k, e = np.empty(n), np.empty(n)
    cuts = [*range(0, max(n - _BLOCK, 1), _BLOCK), n]
    for s, t in zip(cuts[:-1], cuts[1:]):
        k[s:t], e[s:t] = _kronrod_gauss(fn, los[s:t], his[s:t])
    return k, e


def _panel(fn, lo, hi):
    k, e = panel_sums(fn, np.array([lo]), np.array([hi]))
    k, e = float(k[0]), float(e[0])
    if not (math.isfinite(k) and math.isfinite(e)):
        # non-finite sample inside the panel: contribute nothing, flag the
        # panel as unresolved so refinement keeps narrowing around it
        return 0.0, math.inf
    return k, e


def _initial_cuts(lo, hi):
    # Geometric pre-split for very wide positive intervals, so the first error
    # estimates are informative; where hi / lo overflows, cut by logs instead.
    span = float(hi) / float(lo) if lo > 0.0 else 0.0  # inf, not a numpy warning
    if math.isinf(span):
        n = math.ceil(math.log10(hi) - math.log10(lo))
        return list(np.logspace(math.log10(lo), math.log10(hi), n + 1)[1:-1])
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
    panel that must be bisected has no float strictly inside it (roundoff
    width), whatever its estimate.  Mass within an ulp of a float is
    invisible to this and to any sampling rule: a spike that narrow is
    neither seen nor reported.  Raises ValueError unless ``tol`` is finite
    and positive and both bounds are finite.
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
    n_panels = 0

    def push(a, b):
        nonlocal value, abs_value, err_open, n_unresolved
        k, e = _panel(fn, a, b)
        heapq.heappush(heap, (-e, next(tie), a, b, k, e))
        value += k
        abs_value += abs(k)
        if math.isinf(e):
            n_unresolved += 1
        else:
            err_open += e

    for a, b in zip(cuts[:-1], cuts[1:]):
        push(a, b)
        n_panels += 1

    while n_unresolved or err_open > max(tol, _ROUNDOFF * abs_value):
        if n_panels >= _PANEL_BUDGET:
            raise QuadratureFailure(
                f"error estimate {err_open:.3e} above tol {tol:.3e} "
                f"({n_unresolved} unresolved panels) after {n_panels} subintervals"
            )
        _, _, a, b, k, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if not (a < m < b):
            raise QuadratureFailure(
                f"roundoff-width panel [{a}, {b}] has error estimate {e:.3e}"
            )
        value -= k
        abs_value -= abs(k)
        if math.isinf(e):
            n_unresolved -= 1
        else:
            err_open -= e
        push(a, m)
        push(m, b)
        n_panels += 1

    return sign * value
