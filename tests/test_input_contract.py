"""One table for the input contract of the public API.

Every callable in ``lorentz_cmc.__all__`` that takes numbers has a row of
valid arguments here; the test substitutes nan, +inf and -inf into each
numeric argument in turn (each entry of a sequence argument) and expects
``ValueError`` or ``LorentzCMCError``.  A public callable with neither a
row nor a place in ``NO_NUMBERS`` fails, so a new entry point is covered.
"""

import math

import numpy as np
import pytest

import lorentz_cmc as lc

CURVE = lc.profile_curve(lc.SurfaceParams(1.0, 3.0), (1.0, 0.0))
RINGS = lc.validate_rings(lc.RingPair(1.0, 2.0, 0.0, 0.5))

# name -> keyword arguments the callable accepts; every float, and every
# float in a list, is a numeric argument (a count is an int, and a float
# count raises TypeError)
ROWS = {
    "PlateauProblem": dict(rings=RINGS, H=1.0, root_tol=1e-9, quad_tol=1e-10),
    "solve_two_ring": dict(r=1.0, R=2.0, a=0.0, b=0.5, H=1.0, root_tol=1e-9, quad_tol=1e-10),
    "classify": dict(H=1.0, rings=RINGS),
    "SurfaceParams": dict(H=1.0, c=3.0),
    "RingPair": dict(r=1.0, R=2.0, a=0.0, b=0.5),
    "ValidatedRingPair": dict(r=1.0, R=2.0, a=0.0, b=0.5),
    "ProfileCurve": dict(surface=lc.SurfaceParams(1.0, 3.0), anchor_radius=1.0,
                         anchor_height=0.0, quad_tol=1e-10),
    "profile_curve": dict(params=lc.SurfaceParams(1.0, 3.0), anchor=[1.0, 0.0], quad_tol=1e-10),
    "height": dict(t=2.0, curve=CURVE),
    "heights": dict(curve=CURVE, ts=[1.5, 2.0]),
    "slope": dict(t=2.0, params=lc.SurfaceParams(1.0, 3.0)),
    "first_integral_residual": dict(t=2.0, curve=CURVE, fd_step=1e-5),
    "flux_closed_form": dict(r=2.0, params=lc.SurfaceParams(1.0, 3.0)),
    "flux_numeric": dict(r=2.0, curve=CURVE),
    "export_profile_csv": dict(curve=CURVE, ts=[1.5, 2.0]),
    "sample_surface": dict(curve=CURVE, t_range=[1.0, 2.0], n_t=4, n_theta=5),
    "mean_curvature_rotational": dict(t=2.0, curve=CURVE, fd_step=1e-5),
    "patch_from_profile": dict(curve=CURVE, x1=[1.0, 1.5, 2.0], x2=[1.0, 1.5, 2.0],
                               min_radius=0.5),
    "variational_residual": dict(curve=CURVE, t_window=[2.0, 3.0], n=11),
    "integrate": dict(fn=np.exp, lo=0.0, hi=1.0, tol=1e-10),
    "panel_sums": dict(fn=np.exp, los=[0.0, 1.0], his=[1.0, 2.0]),
}

# public callables that take no number: classes of results, errors and
# enums, and functions of already validated objects or of bytes
NO_NUMBERS = {
    "PlateauSolution", "SolveDiagnostics", "FluxResult", "SurfaceMesh", "CurvatureReport",
    "GraphPatch", "VariationalCheck", "SingularityReport", "Regime", "SingularityKind",
    "LorentzCMCError", "DegenerateRadii", "NotSpacelikeSolvable", "NonPositiveRadius",
    "QuadratureFailure", "SpacelikeViolation", "RootBracketFailure", "NotMonotone",
    "solve_c", "threshold_H0", "canonicalize", "classify_params", "validate_rings",
    "euler_characteristic", "export_obj", "load_obj", "mean_curvature_graph",
    "patch_from_csv", "patch_to_csv", "singularity_report", "asymptotic_slope",
    "slope_extremum_radius",
}


def _substitutions(row):
    """(argument, position or None, bad value, arguments) for every numeric slot."""
    for name, value in row.items():
        if isinstance(value, list):
            slots = [i for i, x in enumerate(value) if isinstance(x, float)]
        else:
            slots = [None] if isinstance(value, float) else []
        for i in slots:
            for bad in (math.nan, math.inf, -math.inf):
                if i is None:
                    new = bad
                else:
                    new = list(value)
                    new[i] = bad
                yield name, i, bad, {**row, name: new}


def test_every_public_callable_has_a_row():
    public = {name for name in lc.__all__ if callable(getattr(lc, name))}
    assert public - ROWS.keys() - NO_NUMBERS == set()
    assert ROWS.keys() | NO_NUMBERS <= public


@pytest.mark.parametrize("name", sorted(ROWS))
def test_valid_row_is_accepted(name):
    getattr(lc, name)(**ROWS[name])


@pytest.mark.parametrize("name", sorted(ROWS))
def test_non_finite_numbers_are_refused(name):
    accepted = []
    for arg, i, bad, kwargs in _substitutions(ROWS[name]):
        try:
            getattr(lc, name)(**kwargs)
        except (ValueError, lc.LorentzCMCError):
            continue
        accepted.append((arg, i, bad))
    assert accepted == []
