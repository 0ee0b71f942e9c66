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

from .errors import QuadratureFailure

__all__ = ["DEFAULT_MAX_INTERVALS", "DEFAULT_QUAD_TOL", "integrate", "panel_sums"]

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_MAX_INTERVALS = 10_000

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
for _i, _w in zip((1, 3, 5), _WG[:3]):
    _WG_FULL[_i] = _w
    _WG_FULL[14 - _i] = _w
_WG_FULL[7] = _WG[3]


def panel_sums(fn, los, his):
    """Kronrod values and |K15 - G7| error estimates for a batch of panels.

    ``los`` and ``his`` are equal-length arrays of panel endpoints.  This is
    the non-adaptive building block: one 15-point rule per panel, all panels
    evaluated in a single vectorized call.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    xs = mid[None, :] + _NODES[:, None] * half[None, :]
    ys = np.asarray(fn(xs), dtype=float)
    k = half * (_WGK @ ys)
    g = half * (_WG_FULL @ ys)
    return k, np.abs(k - g)


def _panel(fn, lo, hi):
    k, e = panel_sums(fn, np.array([lo]), np.array([hi]))
    k, e = float(k[0]), float(e[0])
    if not (math.isfinite(k) and math.isfinite(e)):
        # non-finite sample inside the panel: contribute nothing, flag the
        # panel as unresolved so refinement keeps narrowing around it
        return 0.0, math.inf
    return k, e


def _initial_cuts(lo, hi):
    # Geometric pre-split for very wide positive intervals, so the first
    # error estimates are informative before refinement starts.
    if lo > 0.0 and hi / lo > 1e3:
        n = math.ceil(math.log10(hi / lo))
        ratio = (hi / lo) ** (1.0 / n)
        return [lo * ratio**k for k in range(1, n)]
    return []


def integrate(fn, lo, hi, tol=DEFAULT_QUAD_TOL, max_intervals=DEFAULT_MAX_INTERVALS):
    """Integrate ``fn`` over [lo, hi] to absolute tolerance ``tol``.

    ``fn`` must accept and return numpy arrays.  Bounds may be given in
    either order (the sign follows the orientation).

    Termination is at max(tol, 50 eps sum|panel values|): an absolute
    tolerance finer than the roundoff of the accumulated magnitude is
    unattainable in float64, so the request is floored there.  Raises
    QuadratureFailure if ``max_intervals`` subintervals do not suffice, or
    if every remaining subinterval has collapsed to roundoff width while
    the error estimate still exceeds the target.  Raises ValueError unless
    ``tol`` is finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
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
    err_open = 0.0  # refinable panels with finite estimates
    err_floor = 0.0  # panels at roundoff width
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

    eps = np.finfo(float).eps
    while n_unresolved or err_open + err_floor > max(tol, 50.0 * eps * abs_value):
        if not heap or n_panels >= max_intervals:
            raise QuadratureFailure(
                f"error estimate {err_open + err_floor:.3e} above tol {tol:.3e} "
                f"({n_unresolved} unresolved panels) after {n_panels} subintervals"
            )
        _, _, a, b, k, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if not (a < m < b):
            if math.isinf(e):
                raise QuadratureFailure(
                    f"non-finite integrand at roundoff-width panel [{a}, {b}]"
                )
            err_open -= e
            err_floor += e
            continue
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
