"""Flux of the boundary circle of a rotational spacelike CMC surface.

The flux of a 1-cycle on a CMC surface is a homology invariant built from
two line integrals: a weighted projected-area term and a conormal term,

    Flux(Gamma) = H * int <x ^ tau, e3> ds + int <nu, e3> ds.

Orientation conventions used throughout (flipping either negates the flux):
tau runs counterclockwise as seen from +x3, so the first term is 2*H times
the enclosed area of the projected circle, 2*pi*H*r^2; nu is the unit
conormal pointing toward increasing radius, whose Minkowski pairing with
e3 = (0,0,1) is -f'(r)/sqrt(1 - f'(r)^2).  With the conservation law
t f'/sqrt(1 - f'^2) = H t^2 - c the conormal integral collapses to
-2*pi*(H r^2 - c) and the total flux to 2*pi*c, independent of the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ProfileCurve, SurfaceParams, _radius

__all__ = ["FluxResult", "flux_closed_form", "flux_numeric"]


@dataclass(frozen=True)
class FluxResult:
    """Flux split into its projected-area and conormal summands."""

    flux: float
    area_term: float
    conormal_term: float


def flux_closed_form(r, params: SurfaceParams) -> FluxResult:
    """Closed-form flux of the circle of radius r.

    area_term = 2 pi H r^2, conormal_term = -2 pi (H r^2 - c); flux is their
    exact sum 2 pi c, not their float sum, which cancels.  0 when c = 0.
    """
    r = _radius(r, "flux")
    area = 2.0 * math.pi * params.H * r * r
    conormal = -2.0 * math.pi * (params.H * r * r - params.c)
    return FluxResult(flux=2.0 * math.pi * params.c, area_term=area, conormal_term=conormal)


def flux_numeric(r, curve: ProfileCurve) -> FluxResult:
    """The two line-integral terms at radius r, from the curve's (H, c).

    It takes no heights: the conormal density comes from the conservation
    law, so ``flux`` is the float sum of the area term 2 pi H r^2 and the
    conormal term -2 pi (H r^2 - c), and its gap from ``flux_closed_form``
    (the CLI's closed_numeric_gap) measures only that sum's roundoff.  Both
    integrands are constant along the circle by rotational symmetry,
    so each pointwise value is multiplied by the circumference.  The
    conormal density -f'/sqrt(1 - f'^2) is -(H r^2 - c)/r, finite where f'
    rounds to +-1.  Below r ~ |c| / 1.8e308, where that quotient overflows,
    the conormal integrand is taken per unit angle instead, -(H r^2 - c)
    against d theta = ds / r, so the term stays finite.  A term that itself
    overflows (2 pi |H| r^2 beyond the float range) makes the flux nan.
    """
    r = _radius(r, "flux")
    H, c = curve.mean_curvature, curve.first_integral
    circumference = 2.0 * math.pi * r
    conormal_density, conormal_length = -(H * r * r - c) / r, circumference
    if math.isinf(conormal_density):
        conormal_density, conormal_length = -(H * r * r - c), 2.0 * math.pi
    area = H * r * circumference  # <x ^ tau, e3> = r on the counterclockwise circle
    conormal = conormal_density * conormal_length
    return FluxResult(flux=area + conormal, area_term=area, conormal_term=conormal)
