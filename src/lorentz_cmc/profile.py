"""The profile f(t; H, c) at arrays of radii: the slope formula and the heights.

The conservation law H t^2 - t f'/sqrt(1 - f'^2) = c solves algebraically
for the slope,

    f'(t) = h(t) = (H t^2 - c) / sqrt(t^2 + (H t^2 - c)^2),

which is smooth and strictly inside (-1, 1) for every t > 0 (the exact
formula; in float64, slope(3e-9) on (H, c) = (0, 1) is -1.0), so the profile
through an anchor point f(r) = a is simply

    f(t) = a + integral_r^t h(s) ds.

Three families have closed forms (plane, maximal catenoid with H = 0,
hyperbolic cap with c = 0), which ``heights`` takes from ``height``'s
engine at each distinct radius; the rest takes Kronrod panels at an array
of radii, and ``height``'s engine where a panel cannot be trusted.  The
slope formula is evaluated with hypot, which keeps it exact through the
conical limit h -> -sign(c) as t -> 0; where H t^2 - c overflows the slope
is its sign, its float64 value up to t ~ 1e300.  The Kronrod panels form
lo + hi, so heights need radii below about 0.9e308.

The profile at one radius (``ProfileCurve``, ``height``, the scalar
``slope``, the axis and asymptotic reports) lives in ``core``, which
imports no numpy; this module loads numpy and ``quadrature``.  ``mesh``,
``oracle`` and ``first_integral_residual`` build on ``heights``.
"""

from __future__ import annotations

import math

import numpy as np

from . import core  # core._closed_form is read at each call, so a test may replace it
# height and singularity_report are bound here for tracers that look them up in this module
from .core import ProfileCurve, _height_at, _radius, _require_positive, height, singularity_report
from .errors import NonPositiveRadius, SpacelikeViolation
from .quadrature import _ROUNDOFF, PRESPLIT_RATIO, panel_sums

__all__ = ["first_integral_residual", "heights"]


def _radii(ts, what):
    """``ts`` as a float array; ValueError unless finite, NonPositiveRadius unless > 0."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError(f"{what} require finite radii")
    if np.any(ts <= 0.0):
        raise NonPositiveRadius(f"{what} require all t > 0")
    return ts


def _default_step(t):
    """The default central-difference step 1e-5 max(1, t), at a radius or an array of radii."""
    return 1e-5 * np.maximum(1.0, t)


def _fd_step(t, fd_step):
    """Step at t: ``fd_step`` if finite and > 0 (else ValueError), the default if None;
    SpacelikeViolation if t - step reaches the axis, where |f'| -> 1 cannot be differenced."""
    fd_step = float(_default_step(t)) if fd_step is None else fd_step
    _require_positive("fd_step", fd_step)
    if t - fd_step <= 0.0:
        raise SpacelikeViolation(f"fd_step={fd_step} reaches the axis from t={t}")
    return fd_step


def _residuals(curve, t, step, near):
    """Conservation-law residuals H t^2 - t s / sqrt(1 - s^2) - c at the radii ``t``.

    ``near`` holds the heights at t + step, then at t - step, and
    s = (f(t + step) - f(t - step)) / (2 step).  A height at t is off by up
    to the largest of quad_tol, the floor 50 eps sum|panel| of the panels
    ``heights`` trusts (sum|panel| <= |t - r| as |f'| < 1) and its
    roundoff eps |f|, so s is known only to that bound over step; where
    |s| >= 1 - bound / step it may have crossed the light cone and the
    residual is nan.
    """
    up, down = near[:t.size], near[t.size:]
    s = (up - down) / (2.0 * step)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (curve.mean_curvature * t * t - t * s / np.sqrt(1.0 - s * s)
               - curve.first_integral)
    floor = _ROUNDOFF * np.abs(t - curve.anchor_radius)
    bound = np.maximum(np.maximum(curve.quad_tol, floor),
                       np.finfo(float).eps * np.maximum(np.abs(up), np.abs(down)))
    out[~(np.abs(s) < 1.0 - bound / step)] = math.nan
    return out


def _slope_raw(ts, H, c):
    """Vectorized slope formula; no domain checks.  Where w = H t^2 - c
    overflows (t beyond about 1.34e154 / sqrt|H|) the slope is sign(w), the
    formula's float64 value while t < 1e-8 |w|, so for t up to about 1e300."""
    ts = np.asarray(ts, dtype=float)
    with np.errstate(over="ignore"):
        w = H * ts * ts - c
    huge = np.isinf(w)
    if not huge.any():
        return w / np.hypot(ts, w)
    with np.errstate(invalid="ignore"):  # inf / inf where w overflowed
        return np.where(huge, np.sign(w), w / np.hypot(ts, w))


def heights(curve: ProfileCurve, ts):
    """Heights at an array of radii t > 0: ``height``'s closed form, else panels.

    The plane, the maximal catenoid and the hyperbolic cap take
    ``core._closed_form`` at each distinct radius, as ``height`` does: its
    bits.  Other regimes evaluate the as-built (H, c), every operation odd
    under (H, c, a) -> (-H, -c, -a), so a mirrored curve gives exactly the
    negated heights.  The sorted radii and the anchor cut [min, max] into
    segments of one Kronrod panel each, trusted where it meets
    max(quad_tol / segments, 50 eps |panel|), spans at most three decades
    and is at most 16 w wide within 64 w of a slope turn (k, w) of the
    canonical (H, c), the conical (|c|, |c|) and, where 4 H c > 1, the kink
    (sqrt(c / H), 1 / (2 H)), and at most 16 d wide a distance d beyond
    that of the kink.  Every other segment takes ``height``'s engine, so
    nothing raises QuadratureFailure.  A cumulative sum zeroed at the anchor
    gives every height, so dense grids cost one pass over the integrand;
    the error, and the gap from ``height``, are at the curve's quad_tol
    scale.  Memory is O(N) for N radii plus one block of panels per thread
    (``panel_sums`` shares its blocks between the calling thread and one
    helper); the heights depend neither on the block size nor on the thread.
    The axis limit f(0+) is ``singularity_report(curve).cone_vertex_height``.
    """
    ts = _radii(ts, "heights")
    p, r, a = curve.surface, curve.anchor_radius, curve.anchor_height
    # the segment edges: the distinct radii and the anchor, appended last
    edges, inverse = np.unique(np.append(ts, r), return_inverse=True)
    if core._closed_form(r, p.H, p.c, (r, a)) is not None:
        closed_form, H, c, anchor = core._closed_form, p.H, p.c, (r, a)  # locals for the loop
        at = [closed_form(t, H, c, anchor) for t in edges.tolist()]
        return np.array(at, dtype=float)[inverse[:-1]].reshape(ts.shape)

    los, his = edges[:-1], edges[1:]
    vals, errs = panel_sums(lambda s: _slope_raw(s, p.H, p.c), los, his)
    H, c = curve.params.H, curve.params.c
    turns = [(abs(c), abs(c))]
    if 4.0 * H * c > 1.0:
        turns.append((math.sqrt(c) / math.sqrt(H), 0.5 / H))
    with np.errstate(over="ignore"):  # subnormal t; a nan estimate fails "<="
        bad = ~(errs <= np.maximum(curve.quad_tol / max(vals.size, 1), _ROUNDOFF * np.abs(vals)))
        bad |= his / los > PRESPLIT_RATIO
    for k, w in turns:
        bad |= (los <= k + 64.0 * w) & (his >= k - 64.0 * w) & (his - los > 16.0 * w)
    if len(turns) == 2:
        # at a distance d beyond 64 w of the kink, 1 - |f'| is about
        # w^2 / (2 d^2): a tail worth w^2 / (2 d) that no node of a panel
        # over more than 16 d sees, nor its error estimate
        k, w = turns[1]
        d = np.maximum(los - k, k - his)
        bad |= (d > 64.0 * w) & (his - los > 16.0 * d)
    for i in np.nonzero(bad)[0].tolist():
        vals[i] = _height_at(float(his[i]), p.H, p.c, (float(los[i]), 0.0))
    # antiderivative at every edge, zeroed at the anchor
    F = np.concatenate([[0.0], np.cumsum(vals)])
    out = a + (F[inverse[:-1]] - F[inverse[-1]])
    return out.reshape(ts.shape)


def first_integral_residual(t, curve: ProfileCurve, fd_step=None):
    """Conservation-law residual with the slope re-estimated from heights.

    Central differences of the heights at t +- fd_step, from one ``heights``
    call, give an f' independent of the slope formula; the returned value is

        H t^2 - t f'_fd / sqrt(1 - f'_fd^2) - c

    in the curve's own orientation.  Magnitude is O(fd_step^2) truncation
    plus O(err / fd_step) noise, err the heights' error (quad_tol, or their
    roundoff floor where quad_tol is below it), amplified by
    t (1 - f'^2)^(-3/2) close to the light cone.

    Default step is 1e-5 * max(1, t); a given one must be finite and
    positive (else ValueError).  Raises SpacelikeViolation when the
    differencing window reaches the axis, or when the estimated slope comes
    within err / fd_step of |f'| = 1, where that noise may have carried it
    across the light cone.
    """
    t = _radius(t, "residual")
    step = _fd_step(t, fd_step)
    near = heights(curve, np.array([t + step, t - step]))
    residual = float(_residuals(curve, np.array([t]), step, near)[0])
    if math.isnan(residual):
        raise SpacelikeViolation(
            f"finite-difference slope at t={t} is within quad_tol/fd_step (or the "
            "heights' roundoff over fd_step) of |f'| = 1; "
            "coarsen fd_step, tighten quad_tol or move away from the conical point"
        )
    return residual
