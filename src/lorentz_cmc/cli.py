"""Command-line front end: solve / classify / flux / verify / mesh / figure.

Output is one JSON object per line (machine-readable, sorted keys) unless
--human is given.  Exit codes: 0 success, 2 boundary data rejected
(DegenerateRadii / NotSpacelikeSolvable), 1 any other error, 64 usage
errors.  Each subcommand accepts --config FILE with key=value lines
(flags override the file) and --dump-config FILE to record the effective
parameters; the environment variable LORENTZ_CMC_TOL=EPS sets the default
quadrature tolerance to EPS and the shooting residual tolerance to 10*EPS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bvp import DEFAULT_ROOT_TOL, classify, solve_two_ring, threshold_H0
from .core import RingPair, SurfaceParams, validate_rings
from .errors import (
    DegenerateRadii,
    LorentzCMCError,
    NotSpacelikeSolvable,
)
from .flux import flux_closed_form, flux_numeric
from .mesh import euler_characteristic, export_obj, export_profile_csv, sample_surface
from .oracle import mean_curvature_graph, patch_from_csv, patch_from_profile
from .profile import (
    DEFAULT_QUAD_TOL,
    asymptotic_slope,
    profile_curve,
    singularity_report,
    slope_extremum_radius,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_UNSOLVABLE = 2
EXIT_USAGE = 64

# Bundled demonstration profiles for the `figure` subcommand: a maximal
# catenoid, a gently rising profile, and a convex dipping profile shown
# with and without its conical axis point.
_FIGURES = {
    1: {"H": 0.0, "c": 3.0, "anchor": (1.0, 0.0), "t_range": (0.0, 7.0)},
    2: {"H": 0.1, "c": -0.25, "anchor": (1.0, 0.0), "t_range": (0.0, 4.0)},
    3: {"H": 1.0, "c": 3.0, "anchor": (1.0, 0.0), "t_range": (1.0, 4.0)},
    4: {"H": 1.0, "c": 3.0, "anchor": (1.0, 0.0), "t_range": (0.0, 4.0)},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Smallest accepted grid sizes (sample_surface needs 2 rings and 3 spokes).
_MIN_SIZE = {"nt": 2, "ntheta": 3, "samples": 1}

# `figure` parameters that neither a flag nor --config set take these.
_FIGURE_DEFAULTS = {"out_dir": ".", "samples": 257, "nt": 64, "ntheta": 64}


def _tolerance(name, value):
    """``value`` as a finite positive float, else a usage error naming it."""
    try:
        tol = float(value)
    except ValueError:
        raise _UsageError(f"{name} must be a number, got {value!r}") from None
    if not (math.isfinite(tol) and tol > 0.0):
        raise _UsageError(f"{name} must be finite and positive, got {value!r}")
    return tol


def _check_sizes(**sizes):
    for name, value in sizes.items():
        if not isinstance(value, int) or value < _MIN_SIZE[name]:
            raise _UsageError(
                f"--{name} must be an integer >= {_MIN_SIZE[name]}, got {value!r}"
            )


def _default_tols():
    env = os.environ.get("LORENTZ_CMC_TOL")
    if env is None:
        return DEFAULT_QUAD_TOL, DEFAULT_ROOT_TOL
    eps = _tolerance("LORENTZ_CMC_TOL", env)
    return eps, 10.0 * eps


def load_config(path):
    """Parse a key=value config file (''#'' comments, blank lines ok)."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = _parse_value(value)
    return out


def _parse_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def dump_config(values) -> str:
    """Serialize a flat dict as key=value lines (sorted; ints, floats, and
    bare strings round-trip through load_config)."""
    return "".join(f"{key}={values[key]}\n" for key in sorted(values))


def _resolve(args, config, names, defaults=None):
    """Fill argparse None values from the config file, else from
    ``defaults``, then report the effective mapping."""
    defaults = defaults or {}
    effective = {}
    for name in names:
        cli_val = getattr(args, name)
        effective[name] = (cli_val if cli_val is not None
                           else config.get(name, defaults.get(name)))
        setattr(args, name, effective[name])
    return effective


def _require(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise _UsageError(f"missing required parameters: {', '.join(missing)}")


def _emit(record, human=False, stream=None):
    stream = stream or sys.stdout
    if human:
        width = max(len(k) for k in record)
        for key in record:
            print(f"{key.ljust(width)}  {record[key]}", file=stream)
    else:
        print(json.dumps(record, sort_keys=True), file=stream)


def _maybe_dump(args, effective):
    if getattr(args, "dump_config", None):
        Path(args.dump_config).write_text(
            dump_config({k: v for k, v in effective.items() if v is not None})
        )


def _add_common(p):
    p.add_argument("--human", action="store_true", help="tabular output")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--dump-config", dest="dump_config",
                   help="write the effective parameters to this file")


def _add_tols(p):
    p.add_argument("--quad-tol", dest="quad_tol", type=float,
                   help="absolute quadrature tolerance")
    p.add_argument("--root-tol", dest="root_tol", type=float,
                   help="shooting residual tolerance")


def build_parser():
    parser = _Parser(prog="lorentz-cmc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the two-ring problem for c")
    for flag in ("--r", "--R", "--a", "--b", "--H"):
        p.add_argument(flag, type=float)
    _add_tols(p)
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("classify", help="predict the regime without solving")
    for flag in ("--r", "--R", "--a", "--b", "--H"):
        p.add_argument(flag, type=float)
    _add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("flux", help="flux of the circle of radius r")
    for flag in ("--r", "--H", "--c"):
        p.add_argument(flag, type=float)
    p.add_argument("--angular", action="store_true",
                   help="validate with explicit angular quadrature")
    _add_common(p)
    p.set_defaults(fn=cmd_flux)

    p = sub.add_parser("verify", help="recompute H on a sampled graph patch")
    p.add_argument("--csv", help="GraphPatch CSV (header x1,x2,u)")
    for flag in ("--H", "--c"):
        p.add_argument(flag, type=float)
    p.add_argument("--anchor-r", dest="anchor_r", type=float)
    p.add_argument("--anchor-a", dest="anchor_a", type=float)
    p.add_argument("--extent", type=float, help="half-width of the sampled square")
    p.add_argument("--grid-step", dest="grid_step", type=float)
    p.add_argument("--min-radius", dest="min_radius", type=float)
    p.add_argument("--mode", choices=("nondivergence", "divergence"))
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mesh", help="sample a surface and write OBJ")
    for flag in ("--H", "--c"):
        p.add_argument(flag, type=float)
    p.add_argument("--anchor-r", dest="anchor_r", type=float)
    p.add_argument("--anchor-a", dest="anchor_a", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--nt", type=int)
    p.add_argument("--ntheta", type=int)
    p.add_argument("--t-spacing", dest="t_spacing", choices=("uniform", "log"))
    p.add_argument("--out", help="output OBJ path")
    _add_common(p)
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("figure", help="emit a bundled gallery profile + mesh")
    p.add_argument("id", type=int, choices=sorted(_FIGURES))
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--samples", type=int)
    p.add_argument("--nt", type=int)
    p.add_argument("--ntheta", type=int)
    _add_common(p)
    p.set_defaults(fn=cmd_figure)

    return parser


def cmd_solve(args):
    quad_default, root_default = _default_tols()
    config = load_config(args.config) if args.config else {}
    effective = _resolve(args, config, ["r", "R", "a", "b", "H", "quad_tol", "root_tol"])
    _require(args, ["r", "R", "a", "b", "H"])
    _maybe_dump(args, effective)
    quad_tol = (quad_default if args.quad_tol is None
                else _tolerance("--quad-tol", args.quad_tol))
    root_tol = (root_default if args.root_tol is None
                else _tolerance("--root-tol", args.root_tol))

    sol = solve_two_ring(args.r, args.R, args.a, args.b, args.H,
                         root_tol=root_tol, quad_tol=quad_tol)
    curve = sol.curve
    report = singularity_report(curve)
    star = slope_extremum_radius(curve.params)
    record = {
        "event": "solution",
        "r": args.r, "R": args.R, "a": args.a, "b": args.b, "H": args.H,
        "c": sol.c,
        "c_oriented": curve.first_integral,
        "parity": curve.parity,
        "regime": sol.regime.value,
        "H0": sol.H0,
        "residual": sol.residual,
        "flux": flux_closed_form(args.r, SurfaceParams(curve.mean_curvature,
                                                       curve.first_integral)).flux,
        "limit_slope": report.limit_slope,
        "singularity": report.kind.value,
        "cone_vertex_height": report.cone_vertex_height,
        "asymptotic_slope": curve.parity * asymptotic_slope(curve.params),
        "slope_extremum_radius": star,
    }
    _emit(record, args.human)


def cmd_classify(args):
    config = load_config(args.config) if args.config else {}
    effective = _resolve(args, config, ["r", "R", "a", "b", "H"])
    _require(args, ["r", "R", "a", "b", "H"])
    _maybe_dump(args, effective)
    a, b, reflected = args.a, args.b, False
    if b < a:
        a, b, reflected = -args.a, -args.b, True
    rings = validate_rings(RingPair(r=args.r, R=args.R, a=a, b=b))
    record = {
        "event": "classification",
        "slope_bound": rings.slope_bound,
        "H0": threshold_H0(rings),
        "regime": classify(args.H, rings).value,
        "reflected": reflected,
    }
    _emit(record, args.human)


def cmd_flux(args):
    config = load_config(args.config) if args.config else {}
    effective = _resolve(args, config, ["r", "H", "c"])
    _require(args, ["r", "H", "c"])
    _maybe_dump(args, effective)
    params = SurfaceParams(args.H, args.c)
    closed = flux_closed_form(args.r, params)
    curve = profile_curve(params, (args.r, 0.0))
    numeric = flux_numeric(args.r, curve, angular=args.angular)
    record = {
        "event": "flux",
        "r": args.r, "H": args.H, "c": args.c,
        "flux": closed.flux,
        "area_term": closed.area_term,
        "conormal_term": closed.conormal_term,
        "numeric_flux": numeric.flux,
        "closed_numeric_gap": abs(closed.flux - numeric.flux),
    }
    _emit(record, args.human)


def cmd_verify(args):
    config = load_config(args.config) if args.config else {}
    effective = _resolve(args, config, [
        "csv", "H", "c", "anchor_r", "anchor_a", "extent", "grid_step",
        "min_radius", "mode",
    ])
    _maybe_dump(args, effective)
    mode = args.mode or "nondivergence"
    if args.csv:
        patch = patch_from_csv(Path(args.csv).read_bytes())
        source = args.csv
    else:
        _require(args, ["H", "c"])
        anchor_r = args.anchor_r if args.anchor_r is not None else 1.0
        anchor_a = args.anchor_a if args.anchor_a is not None else 0.0
        extent = args.extent if args.extent is not None else 2.0
        step = args.grid_step if args.grid_step is not None else 1.0 / 32.0
        curve = profile_curve(SurfaceParams(args.H, args.c), (anchor_r, anchor_a))
        n = int(round(2 * extent / step)) + 1
        xs = np.linspace(-extent, extent, n)
        patch = patch_from_profile(curve, xs, xs, min_radius=args.min_radius)
        source = f"profile(H={args.H}, c={args.c})"
    report = mean_curvature_graph(patch, mode=mode)
    record = {
        "event": "curvature_report",
        "source": source,
        "mode": mode,
        "H_mean": report.H_mean,
        "H_max_dev": report.H_max_dev,
        "spacelike_min_margin": report.spacelike_min_margin,
        "points_checked": report.points_checked,
    }
    _emit(record, args.human)


def cmd_mesh(args):
    config = load_config(args.config) if args.config else {}
    effective = _resolve(args, config, [
        "H", "c", "anchor_r", "anchor_a", "t0", "t1", "nt", "ntheta",
        "t_spacing", "out",
    ])
    _require(args, ["H", "c", "t0", "t1", "out"])
    _maybe_dump(args, effective)
    anchor_r = args.anchor_r if args.anchor_r is not None else 1.0
    anchor_a = args.anchor_a if args.anchor_a is not None else 0.0
    nt = 64 if args.nt is None else args.nt
    ntheta = 64 if args.ntheta is None else args.ntheta
    _check_sizes(nt=nt, ntheta=ntheta)
    spacing = args.t_spacing or "uniform"
    curve = profile_curve(SurfaceParams(args.H, args.c), (anchor_r, anchor_a))
    mesh = sample_surface(curve, (args.t0, args.t1), nt, ntheta, spacing=spacing)
    Path(args.out).write_bytes(export_obj(mesh))
    record = {
        "event": "mesh",
        "path": args.out,
        "vertices": int(mesh.vertices.shape[0]),
        "faces": int(mesh.faces.shape[0]),
        "euler_characteristic": euler_characteristic(mesh),
        "singular_vertex": mesh.singular_vertex,
    }
    _emit(record, args.human)


def cmd_figure(args):
    config = load_config(args.config) if args.config else {}
    effective = _resolve(args, config, list(_FIGURE_DEFAULTS), _FIGURE_DEFAULTS)
    _maybe_dump(args, effective)
    _check_sizes(samples=args.samples, nt=args.nt, ntheta=args.ntheta)
    spec = _FIGURES[args.id]
    curve = profile_curve(SurfaceParams(spec["H"], spec["c"]), spec["anchor"])
    t_lo, t_hi = spec["t_range"]
    ts = np.linspace(t_lo, t_hi, args.samples)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"figure{args.id}_profile.csv"
    obj_path = out_dir / f"figure{args.id}_surface.obj"
    csv_path.write_bytes(export_profile_csv(curve, ts))
    mesh = sample_surface(curve, (t_lo, t_hi), args.nt, args.ntheta)
    obj_path.write_bytes(export_obj(mesh))

    star = slope_extremum_radius(curve.params)
    record = {
        "event": "figure",
        "id": args.id,
        "H": spec["H"], "c": spec["c"],
        "t_range": list(spec["t_range"]),
        "profile_csv": str(csv_path),
        "surface_obj": str(obj_path),
        "f_end": curve.height(t_hi),
        "interior_minimum_radius": (
            star if star is not None and curve.first_integral > 0.0
            and t_lo < star < t_hi else None
        ),
    }
    _emit(record, args.human)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args.fn(args)
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateRadii, NotSpacelikeSolvable) as exc:
        _emit({"event": "error", "type": type(exc).__name__, "message": str(exc)},
              getattr(args, "human", False), stream=sys.stderr)
        return EXIT_UNSOLVABLE
    except LorentzCMCError as exc:
        _emit({"event": "error", "type": type(exc).__name__, "message": str(exc)},
              getattr(args, "human", False), stream=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        _emit({"event": "error", "type": type(exc).__name__, "message": str(exc)},
              getattr(args, "human", False), stream=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
