"""Profile curves f(t; H, c) of rotational spacelike CMC surfaces.

The conservation law H t^2 - t f'/sqrt(1 - f'^2) = c solves algebraically
for the slope,

    f'(t) = h(t) = (H t^2 - c) / sqrt(t^2 + (H t^2 - c)^2),

which is smooth and strictly inside (-1, 1) for every t > 0 (the exact
formula; in float64, slope(3e-9) on (H, c) = (0, 1) is -1.0), so the profile
through an anchor point f(r) = a is simply

    f(t) = a + integral_r^t h(s) ds.

Three families integrate in closed form (plane, maximal catenoid with
H = 0, hyperbolic cap with c = 0); the rest takes Carlson's ``rise`` at one
radius (the light-cone limit beyond H t = 1e100 or where |c| dwarfs H t^2
and t) and Kronrod panels at an array of radii.  The slope formula is
evaluated with hypot, which keeps it exact through the conical limit
h -> -sign(c) as t -> 0; where H t^2 - c overflows the slope is its sign,
its float64 value up to t ~ 1e300.  The Kronrod panels form lo + hi, so
heights need radii below about 0.9e308.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Regime, SurfaceParams, _require_positive, canonicalize, classify_params
from .elliptic import rise
from .errors import NonPositiveRadius, SpacelikeViolation
from .quadrature import _ROUNDOFF, DEFAULT_QUAD_TOL, PRESPLIT_RATIO, integrate, panel_sums

__all__ = [
    "ProfileCurve",
    "SingularityKind",
    "SingularityReport",
    "asymptotic_slope",
    "first_integral_residual",
    "height",
    "heights",
    "profile_curve",
    "singularity_report",
    "slope",
    "slope_extremum_radius",
]


def _radius(t, what):
    """``t`` as a float; ValueError unless finite, NonPositiveRadius unless > 0."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"{what} requires a finite radius, got t={t}")
    if t <= 0.0:
        raise NonPositiveRadius(f"{what} requires t > 0, got t={t}")
    return t


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


def slope(t, params: SurfaceParams):
    """Exact profile slope f'(t) = (H t^2 - c) / sqrt(t^2 + (H t^2 - c)^2).

    The formula is strictly inside (-1, 1), so the surface is spacelike at
    every radius; its float64 value is +-1 where t or |H t^2 - c| is below
    about 1e-8 of the other.  No quadrature is involved.
    """
    return float(_slope_raw(_radius(t, "slope"), params.H, params.c))


def slope_extremum_radius(params: SurfaceParams):
    """Radius sqrt(|c| / |H|) where the slope is stationary, or None.

    For c > 0 the slope vanishes there and the profile has its unique
    minimum; for c < 0 the (positive) slope has its unique minimum there.
    Defined only for H != 0 and c != 0.
    """
    if params.H == 0.0 or params.c == 0.0:
        return None
    return math.sqrt(abs(params.c) / abs(params.H))


@dataclass(frozen=True)
class ProfileCurve:
    """A profile f solved through the anchor f(anchor_radius) = anchor_height.

    ``surface`` is (H, c) as built, either sign of H; heights and slopes
    evaluate it directly.  ``params`` (the canonical H >= 0 representative),
    ``parity`` (-1 iff H < 0, the mirror f(t; -H, -c) = -f(t; H, c)) and
    ``regime`` (of ``params``) are derived from it and cannot be set.
    """

    surface: SurfaceParams
    anchor_radius: float
    anchor_height: float
    quad_tol: float = DEFAULT_QUAD_TOL
    params: SurfaceParams = field(init=False)
    parity: int = field(init=False)
    regime: Regime = field(init=False)

    def __post_init__(self):
        r, a = float(self.anchor_radius), float(self.anchor_height)
        if not (math.isfinite(r) and math.isfinite(a)):
            raise ValueError(f"anchor must be finite, got ({r}, {a})")
        if r <= 0.0:
            raise NonPositiveRadius(f"anchor radius must be positive, got {r}")
        _require_positive("quad_tol", self.quad_tol)
        canon, parity = canonicalize(self.surface)
        for name, value in (("anchor_radius", r), ("anchor_height", a), ("params", canon),
                            ("parity", parity), ("regime", classify_params(canon))):
            object.__setattr__(self, name, value)

    @property
    def mean_curvature(self):
        """H in the curve's own (as-built) orientation."""
        return self.surface.H

    @property
    def first_integral(self):
        """c in the curve's own (as-built) orientation."""
        return self.surface.c

    def slope(self, t):
        return slope(t, self.surface)

    def slopes(self, ts):
        return _slope_raw(_radii(ts, "slopes"), self.surface.H, self.surface.c)

    def height(self, t):
        return height(t, self)

    def heights(self, ts):
        return heights(self, ts)


def profile_curve(params: SurfaceParams, anchor, quad_tol=DEFAULT_QUAD_TOL) -> ProfileCurve:
    """Build a ProfileCurve through ``anchor = (r, a)`` with f(r) = a.

    ``params`` may have H < 0.  Raises ValueError for a non-finite anchor
    and NonPositiveRadius for an anchor radius <= 0.
    """
    return ProfileCurve(params, anchor[0], anchor[1], quad_tol)


def _asinh_ratio(t, c):
    """asinh(t / |c|) by ``math``, at a float ``t >= 0`` or at each distinct
    value of an array of t > 0, so an array's values are the bits a float's
    would be (a patch's radii repeat up to eightfold).

    t/|c| overflows for subnormal c; there asinh(x) = log(2x) to float64,
    taken as log 2 + log t - log|c|.
    """
    if isinstance(t, np.ndarray):
        keys, inverse = np.unique(t.ravel(), return_inverse=True)
        return np.array([_asinh_ratio(x, c) for x in keys.tolist()],
                        dtype=float)[inverse].reshape(t.shape)
    x = t / abs(c)
    if math.isfinite(x):
        return math.asinh(x)
    return math.log(2.0) + math.log(t) - math.log(abs(c))


def _closed_form(t, H, c, anchor):
    """Height at ``t``, a float or a float array, through ``anchor = (r, a)``
    of the plane (H = c = 0), maximal catenoid (H = 0) or cap (c = 0); else None.

    The catenoid integrates f' = -c / sqrt(t^2 + c^2) to
    f(t) = a - c (arcsinh(t/|c|) - arcsinh(r/|c|)), falling for c > 0 and
    rising for c < 0, odd in c; a float ``t`` and each value of an array
    take ``math.asinh``, so the two give the same bits.  The cap is
    f(t) = a + (sqrt(1 + H^2 t^2) - sqrt(1 + H^2 r^2)) / H.  For H > 0 it
    lies on the hyperbolic plane <x - p, x - p> = -1/H^2 centered at
    p = (0, 0, a - sqrt(1 + H^2 r^2) / H); H < 0 gives the mirrored cap,
    exactly the negated heights of (-H, -a).
    """
    if H and c:
        return None
    r, a = anchor
    if c:
        return a - c * (_asinh_ratio(t, c) - _asinh_ratio(r, c))
    if H:
        # difference-of-roots form, stable for t near r; no square is formed,
        # so nothing overflows below H t ~ 1e308, and every factor is odd in H
        return a + (t - r) * (H * (t + r) / (np.hypot(1.0, H * t) + math.hypot(1.0, H * r)))
    return np.full(t.shape, a) if isinstance(t, np.ndarray) else a


# H t up to which ``rise`` holds 3e-13 (t - r) against a 60-digit oracle,
# save where its terms cancel near the kink (about 0.5% of draws with r / t
# near 1, README); beyond it some inputs give wrong finite values (CHANGES.md)
_RISE_TRUSTED = 1e100
# m / hi, m = |c| - H hi^2 and hi = max(t, r), past which |H s^2 - c| >= m between t and r
# keeps 1 - |h| <= hi^2 / (2 m^2) < 2^-55: f(t) = a - sign(c) (t - r) within eps/8 |t - r|
_CONE_MARGIN = 2.0 ** 27


def _light_cone_limit(t, H, c, anchor):
    """a + int_r^t sign(H s^2 - c) ds for H > 0: the light cones through the
    anchor, which the profile leaves by at most 2 sqrt(2) / H.

    Off the kink k = sqrt(c / H), |h| >= 1 / sqrt(1 + x^2) with
    x = 1 / (H |s - k|) (x = 1 / (H s) for c <= 0), so |sign - h| <=
    min(1, 1 / (2 H^2 (s - k)^2)), whose integral is 2 sqrt(2) / H.  A kink
    beyond t or r clamps to that end: the one cone a - sign(c) (t - r).
    """
    r, a = anchor
    lo, hi = min(t, r), max(t, r)
    # the kink clamped to [lo, hi], so neither difference cancels
    k = min(max(math.sqrt(max(c, 0.0)) / math.sqrt(H), lo), hi)
    return a + (abs(t - k) - abs(r - k))


def _height_at(t, H, c, anchor):
    """Height at a float ``t >= 0`` (0: the axis limit) on (H, c) through ``anchor``.

    The closed form, else a +- ``rise``, for H < 0 the negated height of the
    mirror (-H, -c, -a), so odd to the bit; the light-cone limit beyond
    ``_RISE_TRUSTED`` or ``_CONE_MARGIN``, which held every overflow of ``rise`` drawn.
    """
    closed = _closed_form(t, H, c, anchor)
    if closed is not None:
        return float(closed)
    r, a = anchor
    if H < 0.0:  # rise takes H >= 0
        return -_height_at(t, -H, -c, (r, -a))
    hi = max(t, r)
    if H * hi > _RISE_TRUSTED or abs(c) - H * hi * hi > _CONE_MARGIN * hi:
        return _light_cone_limit(t, H, c, anchor)
    return a + rise(H, c, r, t) if t > r else a - rise(H, c, t, r) if t < r else a


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
    closed = _closed_form(ts, p.H, p.c, (r, curve.anchor_height))
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


def height(t, curve: ProfileCurve):
    """Profile height f(t) = a + integral_r^t f'(s) ds.

    ``t`` may sit on either side of the anchor radius.  The plane, maximal
    catenoid and hyperbolic cap evaluate their closed form, every other regime
    ``rise`` or its light-cone limit (the solver's f(R) to the bit); the
    curve's quad_tol plays no part.
    """
    return _height_at(_radius(t, "height"), curve.surface.H, curve.surface.c,
                      (curve.anchor_radius, curve.anchor_height))


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
    finite in every case because |f'| <= 1 bounds the integrand; it is
    ``height``'s engine at t = 0, and the mesh apex and the CSV axis row.
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

    vertex = _height_at(0.0, H_user, c_user, (curve.anchor_radius, curve.anchor_height))
    return SingularityReport(limit_slope=limit, kind=kind, cone_vertex_height=vertex)


def asymptotic_slope(params: SurfaceParams):
    """Projective limit f(t)/t as t -> infinity, for canonical parameters.

    1 for H > 0 (the surface hugs a light cone at infinity), 0 for H = 0
    (maximal profiles grow only logarithmically).  Analytic case split,
    with no quadrature.
    """
    return 0.0 if params.H == 0.0 else 1.0


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
