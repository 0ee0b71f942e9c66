"""``python -m lorentz_cmc.cli`` in a fresh process: each row of ``ROWS`` runs
its argvs in order (``{tmp}`` is the row's directory, ``{csv}`` that of
``csv_copies``); the demos run under ``-W error``; no command loads a test
dependency."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorentz_cmc as lc

ROOT = Path(__file__).resolve().parents[1]


def child_env(*paths, **env):
    """os.environ for a fresh interpreter: src, then ``paths``, ahead of PYTHONPATH; and ``env``."""
    old = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, **env,
                PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *map(str, paths), *old]))


def python(*args, cwd=None):
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=cwd, capture_output=True,
                          text=True, timeout=60)


def console(*argv):
    """The run of ``lorentz-cmc *argv``; ``rec`` is its last stdout record."""
    run = python("-m", "lorentz_cmc.cli", *argv)
    run.rec = json.loads(run.stdout.splitlines()[-1]) if run.stdout else None
    return run


def figure2_apex_and_bom(tmp, run):
    data = (tmp / "figure2_surface.obj").read_bytes()
    v, f = lc.load_obj(data)
    curve = lc.profile_curve(lc.SurfaceParams(0.1, -0.25), (1.0, 0.0))
    return v[0, 2] == lc.singularity_report(curve).cone_vertex_height and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip((v, f), lc.load_obj(b"\xef\xbb\xbf" + data)))


def figure4_256_shapes(tmp, run):
    v, f = lc.load_obj((tmp / "figure4_surface.obj").read_bytes())
    return (v.shape, f.shape, f.min(), f.max()) == ((65281, 3), (130304, 3), 0, 65280)


RINGS = "--r 1 --R 2 --a 0 --b 0.5"
H0 = repr(lc.threshold_H0(lc.validate_rings(lc.RingPair(1.0, 2.0, 0.0, 0.5))))
# H0 of these is about 1e309, beyond the floats
STEEP_TINY_RINGS = ("--r 4.412487191811404e-307 --R 2.896473841700921e-300 "
                    "--a 2.2061343573961882e-303 --b 2.8986795348068602e-300")
# row -> (argvs, the exit code of each, check(tmp, *runs) or None)
ROWS = {
    "vertex_within_r_of_a": (
        ["solve --r 0.7568639576687938 --R 2218.582234870558 --a -1155.0777419963356 "
         "--b -1155.0777419963356 --H 1.906359864168945e+101"], 0,
        lambda tmp, s: math.isfinite(s.rec["residual"]) and abs(
            s.rec["cone_vertex_height"] - s.rec["a"]) <= s.rec["r"] + 8 * math.ulp(s.rec["a"])),
    "vertex_at_tiny_r": (["solve --r 1e-120 --R 1 --a 0 --b 0.5 --H 1"], 0,
                         lambda tmp, s: s.rec["cone_vertex_height"] == s.rec["a"] - s.rec["r"]),
    "descending_flux": (["solve --r 1 --R 2 --a 0.5 --b 0 --H 1"], 0,
                        lambda tmp, s: s.rec["flux"] == 2 * math.pi * s.rec["c_oriented"]),
    "solve_mirror": ([f"solve {RINGS} --H 1", "solve --r 1 --R 2 --a 0 --b -0.5 --H 1"], 0,
                     lambda tmp, u, d: all(d.rec[k] == -u.rec[k] for k in ("cone_vertex_height",
                                                                          "c_oriented", "flux"))
                     and all(d.rec[k] == u.rec[k] for k in ("c", "regime", "residual"))),
    "cap_at_H0": ([f"classify {RINGS} --H 1", f"solve {RINGS} --H {H0}"], 0,
                  lambda tmp, c, s: repr(c.rec["H0"]) == H0
                  and s.rec["regime"] == "HyperbolicCap" and s.rec["c"] == 0),
    "heights_near_the_largest_float": (
        ["solve --r 0.25 --R 0.4 --a 1e308 --b 1e308 --H 1"], 0,
        lambda tmp, s: s.rec["regime"] == "PositiveC" and s.rec["residual"] <= 5e-10),
    "H0_beyond_the_floats": (
        [f"{cmd} {STEEP_TINY_RINGS} --H 1" for cmd in ("classify", "solve")], 0,
        lambda tmp, c, s: c.rec["H0"] is None is s.rec["H0"]
        and c.rec["regime"] == "NegativeC" == s.rec["regime"]),
    # a rise of 1e-12: g(0) meets root_tol at H = 1.5 H0, so both name the cap
    "cap_on_a_tiny_rise": (
        [f"{cmd} --r 1 --R 2 --a 0 --b 1e-12 --H 1e-12" for cmd in ("classify", "solve")], 0,
        lambda tmp, c, s: c.rec["regime"] == "HyperbolicCap" == s.rec["regime"]),
    "classify_mirror": ([f"classify {RINGS} --H 1", "classify --r 1 --R 2 --a 0.5 --b 0 --H 1"], 0,
                        lambda tmp, u, d: all(u.rec[k] == d.rec[k] for k in ("H0", "regime",
                                                                             "slope_bound"))
                        and u.rec["reflected"] is False and d.rec["reflected"] is True),
    "figure2_apex_and_bom_obj": (["figure 2 --out-dir {tmp}"], 0, figure2_apex_and_bom),
    "figure4_256": (["figure 4 --nt 256 --ntheta 256 --out-dir {tmp}"], 0, figure4_256_shapes),
    "mesh_to_dev_null": ([f"mesh --H 1 --c 3 --t0 1 --t1 4 --out {os.devnull}"], 0, None),
    "verify_fine_grid": (["verify --H 1 --c 3 --extent 4 --grid-step 0.0078125"], 0, None),
    "cr_only_csv": (["verify --csv {csv}/cr.csv"], 1,
                    lambda tmp, s: json.loads(s.stderr)["type"] == "ValueError"),
    "dump_config": ([f"solve {RINGS} --H 1 --dump-config {{tmp}}/solve.cfg",
                     "solve --config {tmp}/solve.cfg"], 0, lambda tmp, a, b: a.stdout == b.stdout),
    **{f"{copy}_csv_{mode}": ([f"verify --csv {{csv}}/holed.csv --mode {mode}",
                               f"verify --csv {{csv}}/{copy}.csv --mode {mode}"], 0,
                              lambda tmp, a, b: dict(a.rec, source=0) == dict(b.rec, source=0))
       for copy in ("quoted", "bom") for mode in ("nondivergence", "divergence")},
}


@pytest.fixture(scope="module")
def csv_copies(tmp_path_factory):
    """holed.csv as patch_to_csv writes it, and its quoted, CR-only and BOM copies."""
    out = tmp_path_factory.mktemp("csv")
    xs, curve = np.linspace(-2.0, 2.0, 65), lc.profile_curve(lc.SurfaceParams(1.0, 3.0), (1.0, 0.0))
    data = lc.patch_to_csv(lc.patch_from_profile(curve, xs, xs, min_radius=0.5))
    quoted = b"".join(b",".join(b'"' + f + b'"' for f in line.split(b",")) + b"\n"
                      for line in data.split(b"\r\n") if line)
    for name, text in (("holed", data), ("quoted", quoted), ("cr", data.replace(b"\r\n", b"\r")),
                       ("bom", b"\xef\xbb\xbf" + data)):
        (out / f"{name}.csv").write_bytes(text)
    return out


@pytest.mark.parametrize("row", ROWS)
def test_console(tmp_path, csv_copies, row):
    argvs, code, check = ROWS[row]
    runs = [console(*(arg.format(tmp=tmp_path, csv=csv_copies) for arg in argv.split()))
            for argv in argvs]
    assert [run.returncode for run in runs] == [code] * len(runs), [run.stderr for run in runs]
    assert check is None or check(tmp_path, *runs), [run.stdout for run in runs]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(tmp_path, demo):
    run = python("-W", "error", str(demo), cwd=tmp_path)
    assert run.returncode == 0, run.stderr


def test_commands_load_no_test_dependency(tmp_path):
    # a runtime-only install has numpy alone
    argvs = [f"solve {RINGS} --H 1", f"classify {RINGS} --H 1", "flux --r 2 --H 1 --c 3",
             "verify --H 1 --c 3 --extent 1 --grid-step 0.25",
             "mesh --H 1 --c 3 --t0 1 --t1 4 --out m.obj",
             "figure 1 --nt 5 --ntheta 7 --samples 3 --out-dir ."]
    run = python("-c", "import sys\nfrom lorentz_cmc.cli import main\n"
                 f"assert all(main(argv.split()) == 0 for argv in {argvs!r})\n"
                 "print(sorted({'scipy', 'hypothesis', 'pytest'} & {m.split('.')[0] for m in "
                 "sys.modules}))", cwd=tmp_path)
    assert run.returncode == 0 and run.stdout.splitlines()[-1] == "[]", run.stderr
