"""Spacelike constant-mean-curvature surfaces of revolution in
Lorentz-Minkowski 3-space.

Construct, classify, and verify the rotational profiles f(t; H, c) defined
by the conserved quantity H t^2 - t f'/sqrt(1 - f'^2) = c, solve the
two-ring Plateau boundary value problem by shooting on c, compute boundary
fluxes, re-derive curvature from sampled surfaces and profiles as a check,
and export meshes and profile polylines.

The package exports each public module's ``__all__``, declared there once.
"""

__version__ = "0.1.0"

from . import bvp, core, errors, flux, mesh, oracle, profile, quadrature
from .bvp import *
from .core import *
from .errors import *
from .flux import *
from .mesh import *
from .oracle import *
from .profile import *
from .quadrature import *

__all__ = ["__version__", *bvp.__all__, *core.__all__, *errors.__all__, *flux.__all__,
           *mesh.__all__, *oracle.__all__, *profile.__all__, *quadrature.__all__]
