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

import numpy as np

from .core import SurfaceParams
from .profile import ProfileCurve, _radius

__all__ = ["FluxResult", "flux_closed_form", "flux_numeric"]


@dataclass(frozen=True)
class FluxResult:
    """Flux split into its projected-area and conormal summands."""

    flux: float
    area_term: float
    conormal_term: float


def flux_closed_form(r, params: SurfaceParams) -> FluxResult:
    """Closed-form flux of the circle of radius r.

    area_term = 2 pi H r^2, conormal_term = -2 pi (H r^2 - c), and their
    sum 2 pi c.  Zero exactly when c = 0 (plane, hyperbolic cap).
    """
    r = _radius(r, "flux")
    area = 2.0 * math.pi * params.H * r * r
    conormal = -2.0 * math.pi * (params.H * r * r - params.c)
    return FluxResult(flux=area + conormal, area_term=area, conormal_term=conormal)


def flux_numeric(r, curve: ProfileCurve, angular=False, n_theta=720) -> FluxResult:
    """Flux evaluated from the solved profile.

    Both integrands are constant along the circle by rotational symmetry,
    so the default path multiplies the pointwise values by the
    circumference.  ``angular=True`` instead samples theta and applies the
    (here exact) trapezoid rule over the period, as a convention check.
    """
    r = _radius(r, "flux")
    s = curve.slope(r)
    H = curve.mean_curvature
    # (1-s)(1+s) keeps a few extra bits over 1 - s^2; the roundoff of s
    # itself still amplifies by (1 - s^2)^(-3/2) near the light cone
    conormal_density = -s / math.sqrt((1.0 - s) * (1.0 + s))
    area_density = H * r  # <x ^ tau, e3> = r on the counterclockwise circle

    if angular:
        # Periodic trapezoid over n_theta samples; densities are constant in
        # theta, so this exercises only the bookkeeping.
        thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
        ds = 2.0 * math.pi * r / n_theta
        area = float(np.sum(np.full_like(thetas, area_density)) * ds)
        conormal = float(np.sum(np.full_like(thetas, conormal_density)) * ds)
    else:
        circumference = 2.0 * math.pi * r
        area = area_density * circumference
        conormal = conormal_density * circumference
    return FluxResult(flux=area + conormal, area_term=area, conormal_term=conormal)
