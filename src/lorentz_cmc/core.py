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
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

from .errors import DegenerateRadii, NotSpacelikeSolvable

__all__ = [
    "SurfaceParams",
    "RingPair",
    "ValidatedRingPair",
    "Regime",
    "canonicalize",
    "classify_params",
    "validate_rings",
]


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
