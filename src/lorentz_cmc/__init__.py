"""Spacelike constant-mean-curvature surfaces of revolution in
Lorentz-Minkowski 3-space.

Construct, classify, and verify the rotational profiles f(t; H, c) defined
by the conserved quantity H t^2 - t f'/sqrt(1 - f'^2) = c, solve the
two-ring Plateau boundary value problem by shooting on c, compute boundary
fluxes, re-derive curvature from sampled surfaces as an independent check,
and export meshes and profile polylines.
"""

__version__ = "0.1.0"

from .bvp import (
    PlateauProblem,
    PlateauSolution,
    SolveDiagnostics,
    classify,
    solve_c,
    solve_two_ring,
    threshold_H0,
)
from .core import (
    Regime,
    RingPair,
    SurfaceParams,
    ValidatedRingPair,
    canonicalize,
    classify_params,
    validate_rings,
)
from .errors import (
    DegenerateRadii,
    LorentzCMCError,
    NonPositiveRadius,
    NotMonotone,
    NotSpacelikeSolvable,
    OrientationError,
    QuadratureFailure,
    RootBracketFailure,
    SpacelikeViolation,
)
from .flux import FluxResult, flux_closed_form, flux_numeric
from .mesh import (
    SurfaceMesh,
    euler_characteristic,
    export_obj,
    export_profile_csv,
    load_obj,
    sample_surface,
)
from .oracle import (
    CurvatureReport,
    GraphPatch,
    VariationalCheck,
    mean_curvature_graph,
    mean_curvature_rotational,
    patch_from_csv,
    patch_from_function,
    patch_from_profile,
    patch_to_csv,
    variational_residual,
)
from .profile import (
    ProfileCurve,
    SingularityKind,
    SingularityReport,
    asymptotic_slope,
    asymptotic_slope_estimate,
    closed_form_hyperbolic,
    closed_form_maximal,
    first_integral_residual,
    height,
    heights,
    hyperbolic_center_height,
    profile_curve,
    singularity_report,
    slope,
    slope_extremum_radius,
)
from .quadrature import integrate

__all__ = [
    "__version__",
    # core
    "SurfaceParams", "RingPair", "ValidatedRingPair", "Regime",
    "canonicalize", "classify_params", "validate_rings",
    # profile
    "ProfileCurve", "SingularityKind", "SingularityReport",
    "profile_curve", "slope", "height", "heights",
    "closed_form_maximal", "closed_form_hyperbolic",
    "hyperbolic_center_height", "singularity_report",
    "asymptotic_slope", "asymptotic_slope_estimate",
    "first_integral_residual", "slope_extremum_radius",
    # bvp
    "PlateauProblem", "PlateauSolution", "SolveDiagnostics", "threshold_H0",
    "classify",
    "solve_c", "solve_two_ring",
    # flux
    "FluxResult", "flux_closed_form", "flux_numeric",
    # oracle
    "GraphPatch", "CurvatureReport", "VariationalCheck",
    "mean_curvature_graph", "mean_curvature_rotational",
    "variational_residual", "patch_from_function", "patch_from_profile",
    "patch_from_csv", "patch_to_csv",
    # mesh
    "SurfaceMesh", "sample_surface", "export_obj", "load_obj",
    "export_profile_csv", "euler_characteristic",
    # quadrature
    "integrate",
    # errors
    "LorentzCMCError", "DegenerateRadii", "NotSpacelikeSolvable",
    "NonPositiveRadius", "QuadratureFailure", "SpacelikeViolation",
    "RootBracketFailure", "OrientationError", "NotMonotone",
]
