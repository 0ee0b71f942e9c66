"""Profile curves f(t; H, c) of rotational spacelike CMC surfaces.

The conservation law H t^2 - t f'/sqrt(1 - f'^2) = c solves algebraically
for the slope,

    f'(t) = h(t) = (H t^2 - c) / sqrt(t^2 + (H t^2 - c)^2),

which is smooth and strictly inside (-1, 1) for every t > 0, so the profile
through an anchor point f(r) = a is simply

    f(t) = a + integral_r^t h(s) ds.

Three families integrate in closed form (plane, maximal catenoid with
H = 0, hyperbolic cap with c = 0); the rest is adaptive quadrature.  The
slope formula is evaluated with hypot, which keeps it exact through the
conical limit h -> -sign(c) as t -> 0 and free of overflow for t up to the
largest representable radii.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import Regime, SurfaceParams, canonicalize, classify_params
from .errors import NonPositiveRadius, SpacelikeViolation
from .quadrature import integrate, panel_sums

__all__ = [
    "DEFAULT_QUAD_TOL",
    "ProfileCurve",
    "SingularityKind",
    "SingularityReport",
    "asymptotic_slope",
    "asymptotic_slope_estimate",
    "closed_form_maximal",
    "closed_form_hyperbolic",
    "first_integral_residual",
    "height",
    "heights",
    "hyperbolic_center_height",
    "profile_curve",
    "singularity_report",
    "slope",
    "slope_extremum_radius",
]

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_MAX_INTERVALS = 10_000


def _slope_raw(ts, H, c):
    """Vectorized slope formula; no domain checks."""
    ts = np.asarray(ts, dtype=float)
    w = H * ts * ts - c
    return w / np.hypot(ts, w)


def slope(t, params: SurfaceParams):
    """Exact profile slope f'(t) = (H t^2 - c) / sqrt(t^2 + (H t^2 - c)^2).

    Always strictly inside (-1, 1): the surface is spacelike at every
    radius.  No quadrature is involved.
    """
    if t <= 0.0:
        raise NonPositiveRadius(f"slope requires t > 0, got t={t}")
    return float(_slope_raw(t, params.H, params.c))


def slope_extremum_radius(params: SurfaceParams):
    """Radius sqrt(|c| / H) where the slope is stationary, or None.

    For c > 0 the slope vanishes there and the profile has its unique
    minimum; for c < 0 the (positive) slope has its unique minimum there.
    Defined only for H != 0 and c != 0.
    """
    p, _ = canonicalize(params)
    if p.H == 0.0 or p.c == 0.0:
        return None
    return math.sqrt(abs(p.c) / p.H)


@dataclass(frozen=True)
class ProfileCurve:
    """A profile f solved through the anchor f(anchor_radius) = anchor_height.

    ``params`` is the canonical (H >= 0) representative; ``parity`` records
    the mirror flip f(t; -H, -c) = -f(t; H, c), so evaluated heights and
    slopes are always in the orientation the curve was built with.
    """

    params: SurfaceParams
    anchor_radius: float
    anchor_height: float
    parity: int
    regime: Regime
    quad_tol: float = DEFAULT_QUAD_TOL
    max_intervals: int = DEFAULT_MAX_INTERVALS

    def __post_init__(self):
        if not (math.isfinite(self.quad_tol) and self.quad_tol > 0.0):
            raise ValueError(f"quad_tol must be finite and positive, got {self.quad_tol!r}")
        n = self.max_intervals
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"max_intervals must be an integer >= 1, got {n!r}")

    @property
    def mean_curvature(self):
        """H in the curve's own (as-built) orientation."""
        return self.parity * self.params.H

    @property
    def first_integral(self):
        """c in the curve's own (as-built) orientation."""
        return self.parity * self.params.c

    def slope(self, t):
        if t <= 0.0:
            raise NonPositiveRadius(f"slope requires t > 0, got t={t}")
        return self.parity * float(_slope_raw(t, self.params.H, self.params.c))

    def slopes(self, ts):
        ts = np.asarray(ts, dtype=float)
        if np.any(ts <= 0.0):
            raise NonPositiveRadius("slopes require all t > 0")
        return self.parity * _slope_raw(ts, self.params.H, self.params.c)

    def height(self, t, method="auto"):
        return height(t, self, method=method)

    def heights(self, ts, method="auto"):
        return heights(self, ts, method=method)


def profile_curve(params: SurfaceParams, anchor, quad_tol=DEFAULT_QUAD_TOL,
                  max_intervals=DEFAULT_MAX_INTERVALS) -> ProfileCurve:
    """Build a ProfileCurve through ``anchor = (r, a)`` with f(r) = a.

    ``params`` may have H < 0; it is canonicalized and the flip is recorded
    in the curve's parity.
    """
    r, a = float(anchor[0]), float(anchor[1])
    if r <= 0.0:
        raise NonPositiveRadius(f"anchor radius must be positive, got {r}")
    canon, parity = canonicalize(params)
    return ProfileCurve(
        params=canon,
        anchor_radius=r,
        anchor_height=a,
        parity=parity,
        regime=classify_params(canon),
        quad_tol=quad_tol,
        max_intervals=max_intervals,
    )


def closed_form_maximal(t, c, anchor):
    """Height of the maximal (H = 0, c != 0) profile through ``anchor``.

    Integrating f' = -c / sqrt(t^2 + c^2) gives

        f(t) = a - c (arcsinh(t/|c|) - arcsinh(r/|c|)),

    falling for c > 0 and rising for c < 0, odd in c.  Accepts scalar or
    array ``t``.
    """
    if c == 0.0:
        raise ValueError("maximal closed form needs c != 0")
    r, a = anchor
    t = np.asarray(t, dtype=float)
    out = a - c * (_asinh_ratio(t, c) - _asinh_ratio(r, c))
    return float(out) if out.ndim == 0 else out


def _asinh_ratio(t, c):
    """asinh(t / |c|) for t >= 0: ``math`` for a float ``t``, numpy for an array.

    t/|c| overflows for subnormal c; there asinh(x) = log(2x) to float64,
    taken as log 2 + log t - log|c|.
    """
    if not isinstance(t, np.ndarray):
        x = t / abs(c)
        if math.isfinite(x):
            return math.asinh(x)
        return math.log(2.0) + math.log(t) - math.log(abs(c))
    with np.errstate(over="ignore"):
        x = t / abs(c)
    # np.where keeps arcsinh's bits wherever x is finite; the log form's
    # warnings (log 0, log of t < 0) are silenced, as it is discarded there.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isinf(x), math.log(2.0) + np.log(t) - math.log(abs(c)),
                        np.arcsinh(x))


def closed_form_hyperbolic(t, H, anchor):
    """Height of the hyperbolic cap (c = 0, H > 0) through ``anchor``.

    f(t) = a + (sqrt(1 + H^2 t^2) - sqrt(1 + H^2 r^2)) / H.  The point set
    lies on the hyperbolic plane <x - p, x - p> = -1/H^2 centered at
    p = (0, 0, a - sqrt(1 + H^2 r^2) / H); equivalently
    t^2 - (f(t) - p3)^2 + 1/H^2 = 0 at every radius.
    """
    if H <= 0.0:
        raise ValueError("hyperbolic cap closed form needs H > 0")
    r, a = anchor
    t = np.asarray(t, dtype=float)
    # difference-of-roots form, stable for t near r and immune to overflow
    num = H * (t * t - r * r)
    den = np.sqrt(1.0 + (H * t) ** 2) + math.sqrt(1.0 + (H * r) ** 2)
    out = a + num / den
    return float(out) if out.ndim == 0 else out


def hyperbolic_center_height(H, anchor):
    """x3-coordinate of the center of the cap's hyperbolic plane."""
    if H <= 0.0:
        raise ValueError("hyperbolic center needs H > 0")
    r, a = anchor
    return a - math.sqrt(1.0 + (H * r) ** 2) / H


def _closed_form_canonical(curve: ProfileCurve, ts):
    """Closed-form height of the canonical profile at the canonical anchor."""
    r = curve.anchor_radius
    a_can = curve.parity * curve.anchor_height
    p = curve.params
    if curve.regime is Regime.PLANE:
        ts = np.asarray(ts, dtype=float)
        return np.full(ts.shape, a_can) if ts.ndim else a_can
    if curve.regime is Regime.MAXIMAL_CATENOID:
        return closed_form_maximal(ts, p.c, (r, a_can))
    if curve.regime is Regime.HYPERBOLIC_CAP:
        return closed_form_hyperbolic(ts, p.H, (r, a_can))
    raise ValueError(f"no closed form for regime {curve.regime}")


_HAS_CLOSED_FORM = (Regime.PLANE, Regime.MAXIMAL_CATENOID, Regime.HYPERBOLIC_CAP)


def height(t, curve: ProfileCurve, method="auto"):
    """Profile height f(t) = a + integral_r^t f'(s) ds.

    ``t`` may sit on either side of the anchor radius.  ``method`` is
    "auto" (closed form when the regime has one, quadrature otherwise),
    "quadrature", or "closed_form".
    """
    t = float(t)
    if t <= 0.0:
        raise NonPositiveRadius(f"height requires t > 0, got t={t}")
    use_closed = curve.regime in _HAS_CLOSED_FORM
    if method == "closed_form" and not use_closed:
        raise ValueError(f"regime {curve.regime} has no closed form")
    if method == "quadrature":
        use_closed = False
    elif method not in ("auto", "closed_form"):
        raise ValueError(f"unknown method {method!r}")

    if use_closed:
        return curve.parity * float(_closed_form_canonical(curve, t))
    p = curve.params
    val = integrate(
        lambda s: _slope_raw(s, p.H, p.c),
        curve.anchor_radius,
        t,
        tol=curve.quad_tol,
        max_intervals=curve.max_intervals,
    )
    return curve.anchor_height + curve.parity * val


def heights(curve: ProfileCurve, ts, method="auto"):
    """Vectorized height evaluation.

    Quadrature regimes integrate segment-by-segment between consecutive
    sample radii and accumulate, so dense grids cost one pass over the
    integrand instead of one full integral per point.  Per-point accuracy
    is at the curve's quad_tol scale.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0.0):
        raise NonPositiveRadius("heights require all t > 0")
    use_closed = curve.regime in _HAS_CLOSED_FORM
    if method == "closed_form" and not use_closed:
        raise ValueError(f"regime {curve.regime} has no closed form")
    if method == "quadrature":
        use_closed = False
    elif method not in ("auto", "closed_form"):
        raise ValueError(f"unknown method {method!r}")

    if use_closed:
        return curve.parity * np.asarray(_closed_form_canonical(curve, ts), dtype=float)

    p = curve.params
    fn = lambda s: _slope_raw(s, p.H, p.c)
    uniq, inverse = np.unique(ts.ravel(), return_inverse=True)
    edges = np.unique(np.append(uniq, curve.anchor_radius))
    vals, errs = panel_sums(fn, edges[:-1], edges[1:])
    seg_tol = max(curve.quad_tol / max(len(vals), 1), 1e-15)
    for i in np.nonzero(errs > seg_tol)[0]:
        vals[i] = integrate(fn, edges[i], edges[i + 1], tol=seg_tol,
                            max_intervals=curve.max_intervals)
    # antiderivative at every edge, zeroed at the anchor
    F = np.concatenate([[0.0], np.cumsum(vals)])
    i_anchor = int(np.searchsorted(edges, curve.anchor_radius))
    F -= F[i_anchor]
    F_at_uniq = F[np.searchsorted(edges, uniq)]
    out = curve.anchor_height + curve.parity * F_at_uniq[inverse]
    return out.reshape(ts.shape)


class SingularityKind(enum.Enum):
    CONICAL_UPPER = "ConicalUpper"
    CONICAL_LOWER = "ConicalLower"
    REGULAR_PLANE = "RegularPlane"
    REGULAR_HYPERBOLIC = "RegularHyperbolic"


@dataclass(frozen=True)
class SingularityReport:
    """Behavior at the rotation axis: limiting slope, kind, axis height."""

    limit_slope: float
    kind: SingularityKind
    cone_vertex_height: float


def singularity_report(curve: ProfileCurve) -> SingularityReport:
    """How the extended profile meets the axis t = 0.

    For c != 0 the slope tends to -sign(c): the surface is tangent to a
    light cone at the axis (lower cone for c > 0, upper for c < 0), a
    conical-type point.  For c = 0 the axis point is regular (horizontal
    plane if H = 0, hyperbolic cap otherwise).  The axis height f(0+) is
    finite in every case because |f'| <= 1 bounds the integrand.
    """
    c_user = curve.first_integral
    H_user = curve.mean_curvature
    if c_user > 0.0:
        limit, kind = -1.0, SingularityKind.CONICAL_LOWER
    elif c_user < 0.0:
        limit, kind = 1.0, SingularityKind.CONICAL_UPPER
    elif H_user == 0.0:
        limit, kind = 0.0, SingularityKind.REGULAR_PLANE
    else:
        limit, kind = 0.0, SingularityKind.REGULAR_HYPERBOLIC

    p = curve.params
    if curve.regime is Regime.PLANE:
        vertex = curve.anchor_height
    elif curve.regime is Regime.HYPERBOLIC_CAP:
        a_can = curve.parity * curve.anchor_height
        v_can = a_can + (1.0 - math.sqrt(1.0 + (p.H * curve.anchor_radius) ** 2)) / p.H
        vertex = curve.parity * v_can
    elif curve.regime is Regime.MAXIMAL_CATENOID:
        a_can = curve.parity * curve.anchor_height
        v_can = a_can + p.c * _asinh_ratio(curve.anchor_radius, p.c)
        vertex = curve.parity * v_can
    else:
        down = integrate(
            lambda s: _slope_raw(s, p.H, p.c),
            0.0,
            curve.anchor_radius,
            tol=curve.quad_tol,
            max_intervals=curve.max_intervals,
        )
        vertex = curve.anchor_height - curve.parity * down
    return SingularityReport(limit_slope=limit, kind=kind, cone_vertex_height=vertex)


def asymptotic_slope(params: SurfaceParams):
    """Projective limit f(t)/t as t -> infinity, for canonical parameters.

    1 for H > 0 (the surface hugs a light cone at infinity), 0 for H = 0
    (maximal profiles grow only logarithmically).  Analytic case split; see
    asymptotic_slope_estimate for the numerical cross-check.
    """
    p, _ = canonicalize(params)
    return 1.0 if p.H > 0.0 else 0.0


def asymptotic_slope_estimate(curve: ProfileCurve, T=1e6):
    """Diagnostic f(T)/T at a large radius, by quadrature.

    For H = 0 the residual against the limit 0 is |c| asinh-growth over T,
    roughly |c| ln(2T/|c|) / T; for H > 0 the gap to parity*1 is O(1/T).
    """
    return height(T, curve, method="auto") / T


def first_integral_residual(t, curve: ProfileCurve, fd_step=None):
    """Conservation-law residual with the slope re-estimated from heights.

    Central differences of height() give an f' that is independent of the
    slope formula; the returned value is

        H t^2 - t f'_fd / sqrt(1 - f'_fd^2) - c

    in the curve's own orientation.  Magnitude is O(fd_step^2) truncation
    plus O(quad_tol / fd_step) quadrature noise, amplified by
    t (1 - f'^2)^(-3/2) close to the light cone.

    Default step is 1e-5 * max(1, t).  Raises SpacelikeViolation when the
    differencing window crosses the axis or the estimated slope reaches
    |f'| >= 1 (step too coarse near a conical point).
    """
    t = float(t)
    if t <= 0.0:
        raise NonPositiveRadius(f"residual requires t > 0, got t={t}")
    if fd_step is None:
        fd_step = 1e-5 * max(1.0, t)
    if fd_step <= 0.0:
        raise ValueError("fd_step must be positive")
    if t - fd_step <= 0.0:
        raise SpacelikeViolation(
            f"fd_step={fd_step} reaches the axis from t={t}; "
            "the one-sided cone limit |f'| -> 1 cannot be differenced across"
        )
    s = (height(t + fd_step, curve) - height(t - fd_step, curve)) / (2.0 * fd_step)
    if abs(s) >= 1.0:
        raise SpacelikeViolation(
            f"finite-difference slope {s} reached |f'| >= 1 at t={t}; "
            "reduce fd_step or move away from the conical point"
        )
    H_user = curve.mean_curvature
    c_user = curve.first_integral
    return H_user * t * t - t * s / math.sqrt(1.0 - s * s) - c_user
