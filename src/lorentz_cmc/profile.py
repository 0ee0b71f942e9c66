"""The profile f(t; H, c) at arrays of radii: the slope formula and the heights.

The conservation law H t^2 - t f'/sqrt(1 - f'^2) = c solves algebraically
for the slope,

    f'(t) = h(t) = (H t^2 - c) / sqrt(t^2 + (H t^2 - c)^2),

which is smooth and strictly inside (-1, 1) for every t > 0 (the exact
formula; in float64, slope(3e-9) on (H, c) = (0, 1) is -1.0), so the profile
through an anchor point f(r) = a is simply

    f(t) = a + integral_r^t h(s) ds.

Three families integrate in closed form (plane, maximal catenoid with
H = 0, hyperbolic cap with c = 0); the rest takes Kronrod panels at an
array of radii.  The slope formula is evaluated with hypot, which keeps it
exact through the conical limit h -> -sign(c) as t -> 0; where H t^2 - c
overflows the slope is its sign, its float64 value up to t ~ 1e300.  The
Kronrod panels form lo + hi, so heights need radii below about 0.9e308.

The profile at one radius (``ProfileCurve``, ``height``, the scalar
``slope``, the axis and asymptotic reports) lives in ``core``, which
imports no numpy; this module re-exports it and loads numpy and
``quadrature``.  ``mesh``, ``oracle`` and ``first_integral_residual``
build on ``heights``.
"""

from __future__ import annotations

import math

import numpy as np

# the profile at one radius, re-exported from where it lives
from .core import (DEFAULT_QUAD_TOL, ProfileCurve, SingularityKind, SingularityReport,
                   asymptotic_slope, height, profile_curve, singularity_report, slope,
                   slope_extremum_radius)
from .core import _closed_form, _radius, _require_positive
from .errors import NonPositiveRadius, SpacelikeViolation
from .quadrature import _ROUNDOFF, PRESPLIT_RATIO, integrate, panel_sums

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
    to the largest of quad_tol, the floor 50 eps sum|panel| that
    ``integrate`` puts on it (sum|panel| <= |t - r| as |f'| < 1) and its
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


def _closed_forms(ts, H, c, anchor):
    """``core._closed_form`` at an array of radii, to its bits; None where it is None.

    The catenoid takes the float formula once per distinct radius, for its
    ``math.asinh`` (a patch's radii repeat up to eightfold); the cap takes
    np.hypot, which is libm's hypot, as the float formula's is.
    """
    if H and c:
        return None
    r, a = anchor
    if c:
        keys, inverse = np.unique(ts.ravel(), return_inverse=True)
        return np.array([_closed_form(t, H, c, anchor) for t in keys.tolist()],
                        dtype=float)[inverse].reshape(ts.shape)
    if H:
        return a + (ts - r) * (H * (ts + r) / (np.hypot(1.0, H * ts) + math.hypot(1.0, H * r)))
    return np.full(ts.shape, a)


def heights(curve: ProfileCurve, ts):
    """Heights at an array of radii t > 0: closed forms, the bits of ``height``, else quadrature.

    Both branches evaluate the as-built (H, c): every operation on the way is
    odd under (H, c, a) -> (-H, -c, -a), so a mirrored curve gives exactly
    the negated heights.  Quadrature regimes cut [min, max] at the sorted
    radii and the anchor into segments, each integrated by one Kronrod
    panel; a segment whose panel misses both quad_tol / segments and the
    roundoff floor 50 eps |panel| (``integrate``'s own stop rule, so a
    panel within either is what ``integrate`` would return), or that spans
    more than three decades (where ``integrate`` pre-splits), is integrated
    adaptively to quad_tol / segments.  A cumulative sum zeroed at the anchor
    gives every height, so dense grids cost one pass over the integrand.
    Per-point accuracy is at the curve's quad_tol scale, as is the gap from
    ``height``.  Memory is O(N) for N radii plus one fixed block of panels
    per thread (``panel_sums`` shares its blocks between the calling thread
    and one helper), and the heights depend neither on the block size nor
    on the thread that runs a block.
    The axis limit f(0+) is ``singularity_report(curve).cone_vertex_height``.
    """
    ts = _radii(ts, "heights")
    p, r = curve.surface, curve.anchor_radius
    closed = _closed_forms(ts, p.H, p.c, (r, curve.anchor_height))
    if closed is not None:
        return np.asarray(closed)  # a 0-d array where numpy gave a scalar

    fn = lambda s: _slope_raw(s, p.H, p.c)
    # the segment edges: the distinct radii and the anchor, appended last
    edges, inverse = np.unique(np.append(ts, r), return_inverse=True)
    vals, errs = panel_sums(fn, edges[:-1], edges[1:])
    seg_tol = curve.quad_tol / max(len(vals), 1)
    with np.errstate(over="ignore"):  # subnormal t
        wide = edges[1:] / edges[:-1] > PRESPLIT_RATIO
    # integrate's stop rule on its first panel, which is this one: a segment
    # that meets it would come back as the same bits (a nan estimate fails
    # "<=" and goes to integrate; a zero seg_tol makes integrate raise)
    done = (errs <= seg_tol) | ((seg_tol > 0.0) & np.isfinite(vals)
                                & (errs <= _ROUNDOFF * np.abs(vals)))
    for i in np.nonzero(~done | wide)[0]:
        vals[i] = integrate(fn, edges[i], edges[i + 1], tol=seg_tol)
    # antiderivative at every edge, zeroed at the anchor
    F = np.concatenate([[0.0], np.cumsum(vals)])
    out = curve.anchor_height + (F[inverse[:-1]] - F[inverse[-1]])
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
