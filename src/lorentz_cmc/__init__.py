"""Spacelike constant-mean-curvature surfaces of revolution in
Lorentz-Minkowski 3-space.

Construct, classify, and verify the rotational profiles f(t; H, c) defined
by the conserved quantity H t^2 - t f'/sqrt(1 - f'^2) = c, solve the
two-ring Plateau boundary value problem by shooting on c, compute boundary
fluxes, re-derive curvature from sampled surfaces and profiles as a check,
and export meshes and profile polylines.

The package exports each public module's ``__all__``, declared there once.
``import lorentz_cmc`` loads none of them: on first use a name is looked
up, its module imported and the name bound here (PEP 562).  ``errors``,
``core``, ``bvp`` and ``flux`` (with ``elliptic``) import no numpy, so the
profile at one radius, the two-ring solver and the flux run without it;
``quadrature``, ``profile``, ``mesh`` and ``oracle`` load numpy.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ is exported, the numpy-free ones first: a name
# is looked up in this order, so finding one loads no array module that
# comes after its own
_EXPORTING = ("errors", "core", "bvp", "flux", "quadrature", "profile", "mesh", "oracle")
_SUBMODULES = frozenset(_EXPORTING + ("elliptic", "cli"))


def _module(name):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name in _SUBMODULES:
        return _module(name)
    if name == "__all__":
        return ["__version__", *(n for m in map(_module, _EXPORTING) for n in m.__all__)]
    if not name.startswith("__"):
        for module in map(_module, _EXPORTING):
            if name in module.__all__:
                # bound here, as an eager import would have, so the next
                # lookup is a plain attribute read
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __getattr__("__all__")
