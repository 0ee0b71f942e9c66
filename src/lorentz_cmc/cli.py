"""Command-line front end: solve / classify / flux / verify / mesh / figure.

Output is one JSON object per line (machine-readable, sorted keys, a
non-finite float written as null) unless --human is given.  Exit codes:
0 success, 2 boundary data rejected (DegenerateRadii /
NotSpacelikeSolvable), 1 any other error, 64 usage errors.  Each
subcommand accepts --config FILE with key=value lines (flags override the
file; a key no subcommand knows is a usage error) and --dump-config FILE
to record the effective parameters, defaults included (a value that would
not read back unchanged is a usage error).  A value is converted by its
parameter's type whether it comes from a flag or the file.  Tolerances
come from flags or --config only: solve exits 64 while the retired
LORENTZ_CMC_TOL is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

from . import __version__

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


def _number(text):
    try:
        value = float(text)
    except ValueError:
        raise ValueError("must be a number") from None
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _positive(text):
    value = _number(text)
    if not value > 0.0:
        raise ValueError("must be positive")
    return value


def _count(minimum):
    """Converter to an integer >= ``minimum``."""
    def convert(text):
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise ValueError(f"must be an integer >= {minimum}")
    return convert


def _choice(*options):
    def convert(text):
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text
    convert.argparse = {"metavar": "{" + ",".join(options) + "}"}
    return convert


def _convert(name, convert, text):
    try:
        return convert(text)
    except ValueError as exc:
        raise _UsageError(f"{name} {exc}, got {text!r}") from None


def _flag(name):
    return "--" + name.replace("_", "-")


def _config_items(text):
    """(key, text) for each key=value line ('#' comments, blank lines ok)."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield key, value


def dump_config(values) -> str:
    """Serialize a flat dict as sorted key=value lines; _UsageError naming the
    first key whose line ``_config_items`` would not read back as written."""
    lines = []
    for key in sorted(values):
        lines.append(f"{key}={values[key]}\n")
        try:
            read_back = list(_config_items(lines[-1]))
        except ValueError:
            read_back = None
        if read_back != [(key, str(values[key]))]:
            raise _UsageError(f"{_flag(key)} {values[key]!r} does not survive --dump-config")
    return "".join(lines)


def _resolve(args):
    """Effective parameters of ``args.command``: the flag, else the --config
    value, else the default; flag and config text go through one converter."""
    if args.command == "solve" and "LORENTZ_CMC_TOL" in os.environ:
        raise _UsageError("LORENTZ_CMC_TOL is no longer read; set the tolerance with "
                          "--root-tol, or root_tol= in a --config file")
    config = dict(_config_items(Path(args.config).read_text())) if args.config else {}
    unknown = sorted(set(config) - _KNOWN)
    if unknown:
        raise _UsageError(f"unknown config keys: {', '.join(unknown)}")
    _, _, table = _COMMANDS[args.command]
    params, missing = {}, []
    for name, convert, default, *_ in table:
        text = getattr(args, name)
        if text is None:
            text = config.get(name)
        if text is not None:
            params[name] = _convert(_flag(name), convert, text)
        elif default is _REQUIRED:
            missing.append(name)
        else:
            params[name] = default() if callable(default) else default
    if missing:
        raise _UsageError(f"missing required parameters: {', '.join(missing)}")
    return params


def _write(path, data):
    """Write ``data`` (bytes, or str in the locale encoding) over ``path`` in
    place: open without truncating, write, then cut a regular file to the
    length written.  The inode, mode, owner and hard links stay as they are,
    and /dev/null or a FIFO, which cannot be truncated, still works.  Cutting
    a written file to zero before rewriting it is what ``write_bytes`` does,
    and on some filesystems that costs far more than the write.  Like
    ``write_bytes`` the write is not atomic: a crash mid-write may leave the
    new prefix followed by the old tail.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666),
              "wb" if isinstance(data, bytes) else "w") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def _emit(record, human=False, stream=None):
    """Print ``record`` as a table, or as one line of strict JSON: a non-finite
    float value, which ``json`` would write as Infinity or NaN, is null."""
    if human:
        width = max(len(k) for k in record)
        for key in record:
            print(f"{key.ljust(width)}  {record[key]}", file=stream)
    else:
        record = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                  for k, v in record.items()}
        print(json.dumps(record, sort_keys=True), file=stream)


# Each cmd_* takes the resolved parameters, plus figure's id (the one argument
# outside the table), and returns the record to print.  It imports the
# library modules it runs, so importing cli loads none of them and a
# command loads none it does not use: solve, classify and flux no numpy.
def cmd_solve(p):
    from .bvp import solve_two_ring
    from .core import asymptotic_slope, singularity_report, slope_extremum_radius
    from .flux import flux_closed_form

    sol = solve_two_ring(p["r"], p["R"], p["a"], p["b"], p["H"],
                         root_tol=p["root_tol"])
    curve = sol.curve
    report = singularity_report(curve)
    star = slope_extremum_radius(curve.params)
    return {
        "event": "solution",
        "r": p["r"], "R": p["R"], "a": p["a"], "b": p["b"], "H": p["H"],
        "c": sol.c,
        "c_oriented": curve.first_integral,
        "parity": curve.parity,
        "regime": sol.regime.value,
        "H0": sol.H0,
        "residual": sol.residual,
        "flux": flux_closed_form(p["r"], curve.surface).flux,
        "limit_slope": report.limit_slope,
        "singularity": report.kind.value,
        "cone_vertex_height": report.cone_vertex_height,
        "asymptotic_slope": curve.parity * asymptotic_slope(curve.params),
        "slope_extremum_radius": star,
    }


def cmd_classify(p):
    from .bvp import classify, threshold_H0
    from .core import RingPair, validate_rings

    rings = validate_rings(RingPair(r=p["r"], R=p["R"], a=p["a"], b=p["b"]))
    return {
        "event": "classification",
        "slope_bound": rings.slope_bound,
        "H0": threshold_H0(rings),
        "regime": classify(p["H"], rings).value,
        "reflected": p["b"] < p["a"],
    }


def cmd_flux(p):
    from .core import SurfaceParams, profile_curve
    from .flux import flux_closed_form, flux_numeric

    params = SurfaceParams(p["H"], p["c"])
    closed = flux_closed_form(p["r"], params)
    curve = profile_curve(params, (p["r"], 0.0))
    numeric = flux_numeric(p["r"], curve)
    return {
        "event": "flux",
        "r": p["r"], "H": p["H"], "c": p["c"],
        "flux": closed.flux,
        "area_term": closed.area_term,
        "conormal_term": closed.conormal_term,
        "numeric_flux": numeric.flux,
        "closed_numeric_gap": abs(closed.flux - numeric.flux),
    }


def cmd_verify(p):
    import numpy as np

    from .core import SurfaceParams, profile_curve
    from .oracle import mean_curvature_graph, patch_from_csv, patch_from_profile

    if p["csv"]:
        patch = patch_from_csv(Path(p["csv"]).read_bytes())
        source = p["csv"]
    else:
        if p["H"] is None or p["c"] is None:
            raise _UsageError("missing required parameters: H and c (or csv)")
        curve = profile_curve(SurfaceParams(p["H"], p["c"]),
                              (p["anchor_r"], p["anchor_a"]))
        steps = 2 * p["extent"] / p["grid_step"]
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise _UsageError(f"--extent {p['extent']!r} and --grid-step {p['grid_step']!r} give "
                              f"{steps + 1!r} lattice points per axis; need a finite number >= 2")
        n = round(steps) + 1
        xs = np.linspace(-p["extent"], p["extent"], n)
        patch = patch_from_profile(curve, xs, xs, min_radius=p["min_radius"])
        source = f"profile(H={p['H']}, c={p['c']})"
    report = mean_curvature_graph(patch, mode=p["mode"])
    return {
        "event": "curvature_report",
        "source": source,
        "mode": p["mode"],
        "H_mean": report.H_mean,
        "H_max_dev": report.H_max_dev,
        "spacelike_min_margin": report.spacelike_min_margin,
        "points_checked": report.points_checked,
    }


def cmd_mesh(p):
    from .core import SurfaceParams, profile_curve
    from .mesh import euler_characteristic, export_obj, sample_surface

    curve = profile_curve(SurfaceParams(p["H"], p["c"]), (p["anchor_r"], p["anchor_a"]))
    mesh = sample_surface(curve, (p["t0"], p["t1"]), p["nt"], p["ntheta"],
                          spacing=p["t_spacing"])
    _write(p["out"], export_obj(mesh))
    return {
        "event": "mesh",
        "path": p["out"],
        "vertices": int(mesh.vertices.shape[0]),
        "faces": int(mesh.faces.shape[0]),
        "euler_characteristic": euler_characteristic(mesh),
        "singular_vertex": mesh.singular_vertex,
    }


def cmd_figure(p):
    import numpy as np

    from .core import SurfaceParams, profile_curve, slope_extremum_radius
    from .mesh import export_obj, export_profile_csv, sample_surface

    spec = _FIGURES[p["id"]]
    curve = profile_curve(SurfaceParams(spec["H"], spec["c"]), spec["anchor"])
    t_lo, t_hi = spec["t_range"]
    ts = np.linspace(t_lo, t_hi, p["samples"])
    out_dir = Path(p["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"figure{p['id']}_profile.csv"
    obj_path = out_dir / f"figure{p['id']}_surface.obj"
    _write(csv_path, export_profile_csv(curve, ts))
    mesh = sample_surface(curve, (t_lo, t_hi), p["nt"], p["ntheta"])
    _write(obj_path, export_obj(mesh))

    star = slope_extremum_radius(curve.params)
    return {
        "event": "figure",
        "id": p["id"],
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


# Default of a parameter that has to be given.
_REQUIRED = object()


def _default_root_tol():
    from .bvp import DEFAULT_ROOT_TOL
    return DEFAULT_ROOT_TOL


_RINGS = [(name, _number, _REQUIRED) for name in ("r", "R", "a", "b", "H")]
_SURFACE = [("H", _number, _REQUIRED), ("c", _number, _REQUIRED)]
_ANCHOR = [("anchor_r", _number, 1.0), ("anchor_a", _number, 0.0)]
# sample_surface needs 2 rings and 3 spokes.
_GRID = [("nt", _count(2), 64), ("ntheta", _count(3), 64)]

# The one declaration of every settable parameter: subcommand -> (function,
# help, [(name, converter, default[, help])]).  A name is the config key and,
# with dashes for underscores, the flag.  A default that is a function is
# called when the command resolves its parameters, so that a library
# constant loads its module only then.
_COMMANDS = {
    "solve": (cmd_solve, "solve the two-ring problem for c", _RINGS + [
        ("root_tol", _positive, _default_root_tol, "shooting residual tolerance"),
    ]),
    "classify": (cmd_classify, "predict the regime without solving", _RINGS),
    "flux": (cmd_flux, "flux of the circle of radius r", [("r", _number, _REQUIRED), *_SURFACE]),
    "verify": (cmd_verify, "recompute H on a sampled graph patch", [
        ("csv", str, None, "GraphPatch CSV (header x1,x2,u)"),
        ("H", _number, None), ("c", _number, None), *_ANCHOR,
        ("extent", _positive, 2.0, "half-width of the sampled square"),
        ("grid_step", _positive, 1.0 / 32.0),
        ("min_radius", _positive, None),
        ("mode", _choice("nondivergence", "divergence"), "nondivergence"),
    ]),
    "mesh": (cmd_mesh, "sample a surface and write OBJ", [
        *_SURFACE, *_ANCHOR, ("t0", _number, _REQUIRED), ("t1", _number, _REQUIRED),
        *_GRID, ("t_spacing", _choice("uniform", "log"), "uniform"),
        ("out", str, _REQUIRED, "output OBJ path"),
    ]),
    "figure": (cmd_figure, "emit a bundled gallery profile + mesh", [
        ("out_dir", str, "."), ("samples", _count(1), 257), *_GRID,
    ]),
}
_KNOWN = {name for _, _, params in _COMMANDS.values() for name, *_ in params}


@functools.cache  # one parser per process: parse_args keeps no state in it
def build_parser():
    parser = _Parser(prog="lorentz-cmc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help_text, params) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, convert, _, *doc in params:
            p.add_argument(_flag(name), dest=name, help=doc[0] if doc else None,
                           **getattr(convert, "argparse", {}))
        p.add_argument("--human", action="store_true", help="tabular output")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--dump-config", dest="dump_config",
                       help="write the effective parameters to this file")
        p.set_defaults(fn=fn)
    sub.choices["figure"].add_argument("id", type=int, choices=sorted(_FIGURES))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = _resolve(args)
        if args.dump_config:
            _write(args.dump_config,
                   dump_config({k: v for k, v in params.items() if v is not None}))
        _emit(args.fn({**vars(args), **params}), args.human)
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        from .errors import DegenerateRadii, NotSpacelikeSolvable

        _emit({"event": "error", "type": type(exc).__name__, "message": str(exc)},
              args.human, stream=sys.stderr)
        if isinstance(exc, (DegenerateRadii, NotSpacelikeSolvable)):
            return EXIT_UNSOLVABLE
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
