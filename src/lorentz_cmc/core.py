"""Value types and admissibility checks for rotational spacelike CMC surfaces.

The ambient space is Lorentz-Minkowski 3-space, R^3 with the metric
dx1^2 + dx2^2 - dx3^2.  A surface of revolution about the (timelike)
x3-axis, X(t, theta) = (t cos theta, t sin theta, f(t)), is spacelike iff
|f'(t)| < 1.  When its mean curvature H is constant, the quantity

    H t^2 - t f'(t) / sqrt(1 - f'(t)^2)

is conserved along the profile; its value c, together with H, pins the
profile down up to a vertical shift.  Everything downstream works with the
pair (H, c), two circular boundary rings, and the mirror symmetry
f(t; -H, -c) = -f(t; H, c) used to keep H >= 0.

Solving the conservation law for the slope gives

    f'(t) = h(t) = (H t^2 - c) / sqrt(t^2 + (H t^2 - c)^2),

strictly inside (-1, 1) for every t > 0, and the profile through an
anchor f(r) = a is f(t) = a + integral_r^t h(s) ds.  This module holds the
profile at one radius: ``ProfileCurve``, the scalar slope and ``height``
(a closed form for the plane, the maximal catenoid and the hyperbolic cap,
else Carlson's ``rise`` or its light-cone limit), and the reports at the
axis and at infinity.  It imports the standard library, ``errors`` and
``elliptic`` only, so the two-ring solver, the flux and the scalar CLI
commands run without numpy; ``profile`` holds the array engine.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

from .elliptic import rise
from .errors import DegenerateRadii, NonPositiveRadius, NotSpacelikeSolvable

__all__ = [
    "DEFAULT_QUAD_TOL",
    "SurfaceParams",
    "RingPair",
    "ValidatedRingPair",
    "Regime",
    "canonicalize",
    "classify_params",
    "validate_rings",
    "ProfileCurve",
    "SingularityKind",
    "SingularityReport",
    "asymptotic_slope",
    "height",
    "profile_curve",
    "singularity_report",
    "slope",
    "slope_extremum_radius",
]

# absolute error target of a curve's array heights (``profile.heights``)
# and of ``quadrature.integrate``
DEFAULT_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class SurfaceParams:
    """Mean curvature H (1/length) and first-integral constant c (length)."""

    H: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.H) and math.isfinite(self.c)):
            raise ValueError(f"surface parameters must be finite, got {self}")
        # normalize -0.0 so regime tests and reprs are unambiguous
        object.__setattr__(self, "H", self.H + 0.0)
        object.__setattr__(self, "c", self.c + 0.0)


@dataclass(frozen=True)
class RingPair:
    """Two concentric horizontal circles: radius r at height a, R at height b."""

    r: float
    R: float
    a: float
    b: float

    def __post_init__(self):
        for name in ("r", "R", "a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"ring field {name!r} must be finite")


@dataclass(frozen=True)
class ValidatedRingPair(RingPair):
    """Rings that can bound a spacelike annulus of revolution, with their slope bound.

    Requires 0 < r < R, R normal (at least sys.float_info.min, so the
    solver's 1/R scales stay finite) and a slope bound |a - b| / (R - r)
    strictly below 1; the latter is necessary and sufficient for a
    spacelike rotational graph spanning both rings to exist.  Comparisons
    are exact: the solvability inequality is open, so boundary data
    sitting on it fails loudly.  Raises ValueError for a non-finite field,
    else DegenerateRadii or NotSpacelikeSolvable.
    """

    slope_bound: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        r, R = self.r, self.R
        if not (0.0 < r < R):
            raise DegenerateRadii(f"need 0 < r < R, got r={r}, R={R}")
        if R < sys.float_info.min:
            raise DegenerateRadii(
                f"outer radius R={R} is subnormal (below {sys.float_info.min}): "
                "1/R overflows and tolerances in ring units underflow"
            )
        slope_bound = abs(self.a - self.b) / (R - r)
        if not slope_bound < 1.0:
            raise NotSpacelikeSolvable(
                f"slope bound |a-b|/(R-r) = {slope_bound} is not < 1; "
                "no spacelike annulus spans these rings"
            )
        object.__setattr__(self, "slope_bound", slope_bound)


class Regime(enum.Enum):
    """Profile family of the canonical (H >= 0) parameters.

    Exactly one case holds for any (H, c); the c = 0 boundaries are decided
    by exact floating comparison, not by epsilon tests: the solver returns
    c = 0 exactly where g(0) meets root_tol inside its barrier bracket
    (see bvp.solve_c), and bvp.classify names the regime by that same rule.
    """

    PLANE = "Plane"
    MAXIMAL_CATENOID = "MaximalCatenoid"
    HYPERBOLIC_CAP = "HyperbolicCap"
    NEGATIVE_C = "NegativeC"
    POSITIVE_C = "PositiveC"


def canonicalize(params: SurfaceParams) -> tuple[SurfaceParams, int]:
    """Reduce to the H >= 0 representative of f(t; -H, -c) = -f(t; H, c).

    Returns ``(canonical, parity)`` with parity -1 iff the flip was applied;
    heights of the original surface are parity times heights of the
    canonical one.  H = 0 is left untouched: both signs of c are genuinely
    distinct maximal branches (rising vs falling), so parity is +1 there.
    """
    if params.H < 0.0:
        return SurfaceParams(-params.H, -params.c), -1
    return params, 1


def classify_params(params: SurfaceParams) -> Regime:
    """Regime of the canonical representative of ``params``."""
    p, _ = canonicalize(params)
    if p.H == 0.0:
        return Regime.PLANE if p.c == 0.0 else Regime.MAXIMAL_CATENOID
    if p.c == 0.0:
        return Regime.HYPERBOLIC_CAP
    return Regime.NEGATIVE_C if p.c < 0.0 else Regime.POSITIVE_C


def _require_positive(name, value):
    """Raise ValueError unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def validate_rings(rings: RingPair) -> ValidatedRingPair:
    """The rings as a ValidatedRingPair; idempotent on already validated pairs."""
    return ValidatedRingPair(rings.r, rings.R, rings.a, rings.b)


def _radius(t, what):
    """``t`` as a float; ValueError unless finite, NonPositiveRadius unless > 0."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"{what} requires a finite radius, got t={t}")
    if t <= 0.0:
        raise NonPositiveRadius(f"{what} requires t > 0, got t={t}")
    return t


def slope(t, params: SurfaceParams):
    """Exact profile slope f'(t) = (H t^2 - c) / sqrt(t^2 + (H t^2 - c)^2).

    The formula is strictly inside (-1, 1), so the surface is spacelike at
    every radius; its float64 value is +-1 where t or |H t^2 - c| is below
    about 1e-8 of the other.  No quadrature is involved.  The bits are
    those of the array formula ``profile._slope_raw``: its hypot is libm's,
    and so is ``abs`` of a complex; where w = H t^2 - c overflows the slope
    is the sign of w.
    """
    t = _radius(t, "slope")
    w = float(params.H) * t * t - float(params.c)
    if math.isinf(w):
        return math.copysign(1.0, w)
    try:
        return w / abs(complex(t, w))
    except OverflowError:  # the hypot overflows, where numpy's is inf
        return w / math.inf


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
    ``slopes`` and ``heights`` take arrays, and load ``profile`` (numpy) on
    their first call.
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
        from .profile import _radii, _slope_raw
        return _slope_raw(_radii(ts, "slopes"), self.surface.H, self.surface.c)

    def height(self, t):
        return height(t, self)

    def heights(self, ts):
        from .profile import heights
        return heights(self, ts)


def profile_curve(params: SurfaceParams, anchor, quad_tol=DEFAULT_QUAD_TOL) -> ProfileCurve:
    """Build a ProfileCurve through ``anchor = (r, a)`` with f(r) = a.

    ``params`` may have H < 0.  Raises ValueError for a non-finite anchor
    and NonPositiveRadius for an anchor radius <= 0.
    """
    return ProfileCurve(params, anchor[0], anchor[1], quad_tol)


def _asinh_ratio(t, c):
    """asinh(t / |c|) by ``math``, at a float ``t >= 0``.

    t/|c| overflows for subnormal c; there asinh(x) = log(2x) to float64,
    taken as log 2 + log t - log|c|.
    """
    x = t / abs(c)
    if math.isfinite(x):
        return math.asinh(x)
    return math.log(2.0) + math.log(t) - math.log(abs(c))


def _closed_form(t, H, c, anchor):
    """Height at a float ``t`` through ``anchor = (r, a)`` of the plane
    (H = c = 0), maximal catenoid (H = 0) or cap (c = 0); else None.

    The catenoid integrates f' = -c / sqrt(t^2 + c^2) to
    f(t) = a - c (arcsinh(t/|c|) - arcsinh(r/|c|)), falling for c > 0 and
    rising for c < 0, odd in c.  The cap is
    f(t) = a + (sqrt(1 + H^2 t^2) - sqrt(1 + H^2 r^2)) / H.  For H > 0 it
    lies on the hyperbolic plane <x - p, x - p> = -1/H^2 centered at
    p = (0, 0, a - sqrt(1 + H^2 r^2) / H); H < 0 gives the mirrored cap,
    exactly the negated heights of (-H, -a).  ``profile._closed_forms``
    gives these bits at an array of radii.
    """
    if H and c:
        return None
    r, a = anchor
    if c:
        return a - c * (_asinh_ratio(t, c) - _asinh_ratio(r, c))
    if H:
        # difference-of-roots form, stable for t near r; no square is formed,
        # so nothing overflows below H t ~ 1e308, and every factor is odd in
        # H; abs of a complex is libm's hypot, as np.hypot is
        return a + (t - r) * (H * (t + r) / (abs(complex(1.0, H * t)) + math.hypot(1.0, H * r)))
    return a


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
