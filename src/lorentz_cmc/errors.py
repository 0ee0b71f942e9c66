"""Exception types raised by lorentz_cmc."""

__all__ = [
    "LorentzCMCError", "DegenerateRadii", "NotSpacelikeSolvable", "NonPositiveRadius",
    "QuadratureFailure", "SpacelikeViolation", "RootBracketFailure", "NotMonotone",
]


class LorentzCMCError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateRadii(LorentzCMCError):
    """Ring radii do not bound an annulus (requires 0 < r < R), or the
    outer radius R is subnormal (below sys.float_info.min)."""


class NotSpacelikeSolvable(LorentzCMCError):
    """Boundary rings are too steep, |a - b| / (R - r) >= 1.

    No spacelike annulus of revolution can span them: the mean value of a
    slope bounded by |f'| < 1 cannot reach the requested rise.
    """


class NonPositiveRadius(LorentzCMCError):
    """Profile evaluation requested at a radius t <= 0."""


class QuadratureFailure(LorentzCMCError):
    """Adaptive integrator could not reach the requested tolerance
    within its subdivision budget."""


class SpacelikeViolation(LorentzCMCError):
    """A numerically estimated slope reached or crossed |f'| = 1."""


class RootBracketFailure(LorentzCMCError):
    """An end of the closed-form barrier bracket for the shooting constant
    has the wrong sign by more than root_tol."""


class NotMonotone(LorentzCMCError):
    """Profile is not strictly monotone on the requested window."""
