"""Independent verification and export.

Everything upstream trusts the slope formula; this script checks it by
re-deriving the mean curvature: by graph stencils on sampled heights alone,
by rotational finite differences (f' from the slope formula, f'' differenced
from it), and by the variational Beltrami constant from sampled heights (the
slope formula gives only the sign of f'), then exports a mesh and a profile
polyline.
"""

import math
from pathlib import Path

import numpy as np

from lorentz_cmc import (
    SurfaceParams,
    euler_characteristic,
    export_obj,
    export_profile_csv,
    mean_curvature_graph,
    mean_curvature_rotational,
    patch_from_profile,
    profile_curve,
    sample_surface,
    variational_residual,
)

H, c = 1.0, 3.0
curve = profile_curve(SurfaceParams(H, c), (1.0, 0.0))
print(f"surface under test: (H={H}, c={c}) anchored at f(1) = 0")
print()

print("graph-stencil oracle on the rotated profile (puncture masked out):")
xs = np.linspace(-2.4, 2.4, 241)
patch = patch_from_profile(curve, xs, xs, min_radius=0.8)
for mode in ("nondivergence", "divergence"):
    rep = mean_curvature_graph(patch, mode=mode)
    print(f"  {mode:<14} H_mean = {rep.H_mean:.6f}  max dev = {rep.H_max_dev:.2e}  "
          f"margin = {rep.spacelike_min_margin:.3f}  ({rep.points_checked} pts)")

print()
print("rotational finite-difference oracle along the profile:")
for t in (1.2, 1.7321, 2.5, 4.0):
    est = mean_curvature_rotational(t, curve, fd_step=1e-4 * max(1.0, t))
    print(f"  t = {t:6.4f}:  H = {est:.8f}")

print()
print("variational Beltrami constant (recovers 2c on monotone windows):")
star = math.sqrt(c / H)
check = variational_residual(curve, (1.2 * star, 2.2 * star), n=2001)
print(f"  window beyond the minimum at sqrt(c/H) = {star:.4f}:")
print(f"  kappa = {check.kappa_mean:.8f}  (2c = {2 * c})  "
      f"deviation {check.max_deviation:.2e} over {check.samples} samples")

print()
out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)
mesh = sample_surface(curve, (0.0, 4.0), 64, 64)
(out_dir / "dipping_profile.obj").write_bytes(export_obj(mesh))
ts = np.linspace(0.0, 4.0, 257)
(out_dir / "dipping_profile.csv").write_bytes(export_profile_csv(curve, ts))
print(f"exported {mesh.vertices.shape[0]} vertices / {mesh.faces.shape[0]} faces "
      f"(Euler characteristic {euler_characteristic(mesh)}, cone vertex flagged "
      f"at index {mesh.singular_vertex}) to {out_dir}/")
