import json
import math
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

import lorentz_cmc
import lorentz_cmc.cli as cli_module
from lorentz_cmc import (
    GraphPatch,
    SurfaceParams,
    load_obj,
    patch_from_profile,
    patch_to_csv,
    profile_curve,
)
from lorentz_cmc.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNSOLVABLE,
    EXIT_USAGE,
    _config_items,
    _emit,
    main,
)
from test_console import console


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_record(out):
    return json.loads(out.strip().splitlines()[-1])


def strict_record(out):
    """The one JSON line of ``out``, read as strict JSON (no NaN or Infinity)."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    (line,) = out.splitlines()
    return json.loads(line, parse_constant=refuse)


def read_config(path):
    """The key -> text pairs a --config run would read from ``path``."""
    return dict(_config_items(Path(path).read_text()))


def patch_from_function(fn, xs):
    """Sample u = fn(X1, X2) (vectorized) on the lattice xs x xs, all in-mask."""
    X1, X2 = np.meshgrid(xs, xs, indexing="ij")
    return GraphPatch(x1=xs, x2=xs, values=np.asarray(fn(X1, X2), dtype=float),
                      mask=np.ones(X1.shape, dtype=bool))


class TestSolve:
    def test_solution_record(self, capsys):
        code, out, _ = run(capsys, "solve", "--r", "1", "--R", "2",
                           "--a", "0", "--b", "0.5", "--H", "1")
        assert code == EXIT_OK
        rec = last_record(out)
        assert rec["event"] == "solution"
        assert rec["regime"] == "PositiveC"
        assert rec["c"] > 0.0
        assert rec["residual"] <= 1e-9
        assert rec["flux"] == pytest.approx(2.0 * math.pi * rec["c"], abs=1e-9)
        assert rec["flux"] == 2.0 * math.pi * rec["c_oriented"]

    def test_each_solve_parameter_changes_its_record(self, capsys):
        # a parameter that changes no output byte is not declared (solve
        # took --quad-tol, which no field it prints depends on)
        base = {"r": "1", "R": "2", "a": "0", "b": "0.5", "H": "1", "root_tol": "1e-9"}
        other = {"r": "0.9", "R": "2.5", "a": "0.1", "b": "0.6", "H": "1.5", "root_tol": "1"}
        assert {name for name, *_ in cli_module._COMMANDS["solve"][2]} == set(base)

        def record(values):
            code, out, _ = run(capsys, "solve", *(f"--{k.replace('_', '-')}={v}"
                                                  for k, v in values.items()))
            assert code == EXIT_OK
            return last_record(out)

        want = record(base)
        for name in base:
            assert record(dict(base, **{name: other[name]})) != want, name

    def test_overflowing_rise_solves_in_a_fresh_process(self):
        # H R = 1e150: rise is nan there, and with it every g, so this solve
        # never returned; g is the light-cone limit there
        run = console("solve", "--r", "1e-200", "--R", "1", "--a", "0", "--b", "0.5", "--H", "1e150")
        assert run.returncode == EXIT_OK
        assert "NaN" not in run.stdout
        assert math.isfinite(run.rec["residual"]) and run.rec["residual"] <= 1e-9

    def test_overflowing_flux_prints_strict_json(self, capsys):
        # c = 6.25e307, so 2 pi c overflows: "flux" was the token Infinity
        code, out, _ = run(capsys, "solve", "--r", "1", "--R", "1e8", "--a", "0",
                           "--b", "5e7", "--H", "1e293")
        assert code == EXIT_OK
        rec = strict_record(out)
        assert rec["flux"] is None
        assert math.isfinite(rec["c"]) and math.isfinite(rec["residual"])
        assert math.isinf(2.0 * math.pi * rec["c_oriented"])

    def test_unsolvable_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "--r", "1", "--R", "2",
                             "--a", "0", "--b", "1.5", "--H", "1")
        assert code == EXIT_UNSOLVABLE
        assert json.loads(err.strip())["type"] == "NotSpacelikeSolvable"

    def test_degenerate_radii_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--r", "2", "--R", "1",
                           "--a", "0", "--b", "0", "--H", "1")
        assert code == EXIT_UNSOLVABLE
        assert json.loads(err.strip())["type"] == "DegenerateRadii"

    @pytest.mark.parametrize("r,R", [("5e-311", "1e-310"), ("1e-321", "1e-320")])
    def test_subnormal_outer_radius_exits_2(self, capsys, r, R):
        # exited 1 with a bare OverflowError or a quad_tol ValueError
        code, _, err = run(capsys, "solve", "--r", r, "--R", R,
                           "--a", "0", "--b", "0", "--H", "0")
        assert code == EXIT_UNSOLVABLE
        assert json.loads(err.strip())["type"] == "DegenerateRadii"

    def test_plane_solution(self, capsys):
        code, out, _ = run(capsys, "solve", "--r", "1", "--R", "2",
                           "--a", "0", "--b", "0", "--H", "0")
        assert code == EXIT_OK
        rec = last_record(out)
        assert rec["regime"] == "Plane"
        assert rec["c"] == 0.0
        assert rec["flux"] == 0.0

    @pytest.mark.parametrize("a,b,H,text", [
        ("0", "0.5", "1", '"asymptotic_slope": 1.0, "b": 0.5,'),
        ("0.5", "0", "1", '"asymptotic_slope": -1.0, "b": 0.0,'),
        ("0.5", "0", "0", '"asymptotic_slope": 0.0, "b": 0.0,'),
    ])
    def test_asymptotic_slope_in_oriented_record(self, capsys, a, b, H, text):
        code, out, _ = run(capsys, "solve", "--r", "1", "--R", "2",
                           "--a", a, "--b", b, "--H", H)
        assert code == EXIT_OK
        assert text in out

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--r", "1", "--R", "2")
        assert code == EXIT_USAGE
        assert "missing" in err

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--r", "1", "--R", "2",
                           "--a", "0", "--b", "0.5", "--H", "1", "--human")
        assert code == EXIT_OK
        assert "regime" in out and "{" not in out


class TestClassify:
    def test_threshold_and_regime(self, capsys):
        code, out, _ = run(capsys, "classify", "--r", "1", "--R", "2",
                           "--a", "0", "--b", "0.5", "--H", "0.2")
        assert code == EXIT_OK
        rec = last_record(out)
        assert rec["H0"] == pytest.approx(1.0 / math.sqrt(6.5625), abs=1e-12)
        assert rec["regime"] == "NegativeC"
        assert rec["reflected"] is False

    def test_descending_data_reflects(self, capsys):
        code, out, _ = run(capsys, "classify", "--r", "1", "--R", "2",
                           "--a", "0.5", "--b", "0", "--H", "1")
        assert code == EXIT_OK
        rec = last_record(out)
        assert rec["reflected"] is True
        assert rec["regime"] == "PositiveC"


class TestFlux:
    def test_record(self, capsys):
        code, out, _ = run(capsys, "flux", "--r", "2", "--H", "1", "--c", "3")
        assert code == EXIT_OK
        rec = last_record(out)
        assert rec["flux"] == pytest.approx(6.0 * math.pi, abs=1e-12)
        assert rec["closed_numeric_gap"] < 1e-10

    def test_light_cone_radius(self, capsys):
        # the slope rounds to 1 at r = 1e8 on (1, 0): the numeric flux once
        # divided by sqrt(1 - s^2) = 0 and exited 1 with ZeroDivisionError
        code, out, _ = run(capsys, "flux", "--r", "1e8", "--H", "1", "--c", "0")
        assert code == EXIT_OK
        rec = last_record(out)
        assert rec["flux"] == 0.0 and rec["numeric_flux"] == 0.0

    def test_angular_mode(self, capsys):
        # the angular sampling mode is gone; its flag is refused, not dropped
        code, out, err = run(capsys, "flux", "--r", "2", "--H", "1", "--c", "3", "--angular")
        assert code == EXIT_USAGE and "--angular" in err and out == ""

    def test_angular_config_value_is_checked(self, tmp_path, capsys):
        # an angular= key, whatever its value, is an unknown key
        for value in ("1", "maybe"):
            cfg = tmp_path / "angular.cfg"
            cfg.write_text(f"r=2\nH=1\nc=3\nangular={value}\n")
            code, out, err = run(capsys, "flux", "--config", str(cfg))
            assert code == EXIT_USAGE and "unknown config keys: angular" in err and out == ""

    def test_overflowing_terms_print_strict_json(self, capsys):
        # 2 pi H r^2 is inf at r = 1e200: the record held Infinity, -Infinity
        # and NaN, which strict JSON readers reject
        code, out, _ = run(capsys, "flux", "--r", "1e200", "--H", "1", "--c", "3")
        assert code == EXIT_OK
        rec = strict_record(out)
        assert rec["flux"] == 6.0 * math.pi
        for key in ("area_term", "conormal_term", "numeric_flux", "closed_numeric_gap"):
            assert rec[key] is None, key
        code, out, _ = run(capsys, "flux", "--r", "1e200", "--H", "1", "--c", "3", "--human")
        assert code == EXIT_OK and " inf\n" in out and " nan\n" in out


class TestEmit:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_is_null(self, capsys, value):
        _emit({"event": "x", "v": value, "w": 1.5})
        assert strict_record(capsys.readouterr().out) == {"event": "x", "v": None, "w": 1.5}

    def test_finite_values_are_kept(self, capsys):
        record = {"tiny": 5e-324, "huge": 1.7976931348623157e308, "zero": -0.0,
                  "n": 3, "flag": False, "none": None, "s": "inf"}
        _emit(record)
        got = strict_record(capsys.readouterr().out)
        assert got == record and math.copysign(1.0, got["zero"]) == -1.0


class TestVerify:
    def test_neither_csv_nor_profile_is_usage_error(self, capsys):
        for argv in (("verify",), ("verify", "--H", "1")):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE and out == ""
            assert "missing required parameters: H and c (or csv)" in err

    def test_profile_patch(self, capsys):
        code, out, _ = run(capsys, "verify", "--H", "1", "--c", "0",
                           "--extent", "1", "--grid-step", str(1.0 / 64.0))
        assert code == EXIT_OK
        rec = last_record(out)
        assert rec["H_mean"] == pytest.approx(1.0, abs=1e-3)
        assert rec["points_checked"] > 100

    def test_csv_patch(self, tmp_path, capsys):
        xs = np.linspace(-1.0, 1.0, 65)
        fn = lambda X1, X2: (np.sqrt(1.0 + X1**2 + X2**2) - math.sqrt(2.0))
        path = tmp_path / "patch.csv"
        path.write_bytes(patch_to_csv(patch_from_function(fn, xs)))
        code, out, _ = run(capsys, "verify", "--csv", str(path),
                           "--mode", "divergence")
        assert code == EXIT_OK
        rec = last_record(out)
        assert rec["mode"] == "divergence"
        assert rec["H_mean"] == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("mode", ["nondivergence", "divergence"])
    def test_written_holed_patch_reads_back_as_the_profile_patch(self, tmp_path, capsys, mode):
        # patch_to_csv -> verify --csv gives the record verify builds from (H, c)
        xs = np.linspace(-2.0, 2.0, 65)
        curve = profile_curve(SurfaceParams(1.0, 3.0), (1.0, 0.0))
        path = tmp_path / "holed.csv"
        path.write_bytes(patch_to_csv(patch_from_profile(curve, xs, xs, min_radius=0.5)))
        code, out, _ = run(capsys, "verify", "--csv", str(path), "--mode", mode)
        assert code == EXIT_OK
        from_csv = last_record(out)
        code, out, _ = run(capsys, "verify", "--H", "1", "--c", "3", "--grid-step", "0.0625",
                           "--min-radius", "0.5", "--mode", mode)
        assert code == EXIT_OK
        from_profile = last_record(out)
        assert from_csv.pop("source") == str(path)
        assert from_profile.pop("source") == "profile(H=1.0, c=3.0)"
        assert from_csv == from_profile

    def test_plane_patch_reports_zero(self, tmp_path, capsys):
        xs = np.linspace(-1.0, 1.0, 33)
        patch = patch_from_function(lambda X1, X2: np.full(X1.shape, 0.3), xs)
        path = tmp_path / "plane.csv"
        path.write_bytes(patch_to_csv(patch))
        code, out, _ = run(capsys, "verify", "--csv", str(path))
        assert code == EXIT_OK
        assert last_record(out)["H_mean"] == 0.0

    def test_solved_profile_patch(self, capsys):
        code, out, _ = run(capsys, "verify", "--H", "1", "--c", "3",
                           "--extent", "2.4", "--grid-step", "0.02",
                           "--min-radius", "0.8")
        assert code == EXIT_OK
        assert last_record(out)["H_mean"] == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("flag", ["--extent", "--grid-step"])
    def test_bad_grid_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "--H", "1", "--c", "3", flag, value)
        assert code == EXIT_USAGE
        assert flag in err and out == ""

    # a lattice of inf points raised a bare OverflowError, one of 1 point a
    # ValueError: both exited 1
    @pytest.mark.parametrize("extent,grid_step", [("1e200", "1e-200"), ("1e308", "1e-300"),
                                                  ("1", "10"), ("1", "4")])
    def test_unbuildable_lattice_is_usage_error(self, capsys, extent, grid_step):
        code, out, err = run(capsys, "verify", "--H", "1", "--c", "3", "--extent", extent,
                             "--grid-step", grid_step)
        assert code == EXIT_USAGE and out == ""
        assert "--extent" in err and "--grid-step" in err and "points per axis" in err

    @pytest.mark.parametrize("grid_step", ["0.25", "0.3"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_min_radius_is_usage_error(self, tmp_path, capsys, grid_step, value):
        # on the 0.25 lattice, which holds the origin, 0 exited 1; on the 0.3
        # lattice it exited 0 with H_mean -1.83 for H = 1
        head = ("verify", "--H", "1", "--c", "3", "--extent", "1", "--grid-step", grid_step)
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(f"min_radius={value}\n")
        for tail in (("--min-radius", value), ("--config", str(cfg))):
            code, out, err = run(capsys, *head, *tail)
            assert code == EXIT_USAGE
            assert "--min-radius" in err and out == ""

    def test_steep_patch_is_internal_error(self, tmp_path, capsys):
        xs = np.linspace(-1.0, 1.0, 17)
        patch = patch_from_function(lambda X1, X2: 1.5 * X1, xs)
        path = tmp_path / "steep.csv"
        path.write_bytes(patch_to_csv(patch))
        code, _, err = run(capsys, "verify", "--csv", str(path))
        assert code == EXIT_INTERNAL
        assert json.loads(err.strip())["type"] == "SpacelikeViolation"


class TestMesh:
    def test_writes_obj(self, tmp_path, capsys):
        out_path = tmp_path / "m.obj"
        code, out, _ = run(capsys, "mesh", "--H", "1", "--c", "3",
                           "--t0", "1", "--t1", "4", "--nt", "8",
                           "--ntheta", "12", "--out", str(out_path))
        assert code == EXIT_OK
        rec = last_record(out)
        assert rec["vertices"] == 8 * 12
        assert rec["euler_characteristic"] == 0
        verts, faces = load_obj(out_path.read_bytes())
        assert verts.shape == (96, 3)

    def test_zero_sizes_are_usage_errors(self, tmp_path, capsys):
        out_path = tmp_path / "m.obj"
        code, _, err = run(capsys, "mesh", "--H", "1", "--c", "3",
                           "--t0", "1", "--t1", "4", "--nt", "0",
                           "--ntheta", "0", "--out", str(out_path))
        assert code == EXIT_USAGE
        assert "--nt" in err
        assert not out_path.exists()


class TestFigures:
    def test_figure1_profile_matches_closed_form(self, tmp_path, capsys):
        code, out, _ = run(capsys, "figure", "1", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        rec = last_record(out)
        lines = (tmp_path / "figure1_profile.csv").read_text().strip().splitlines()
        assert lines[0] == "t,f,f_prime,first_integral_residual"
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        ts = body[:, 0]
        pos = ts > 0
        expected = -3.0 * (np.arcsinh(ts[pos] / 3.0) - np.arcsinh(1.0 / 3.0))
        assert np.max(np.abs(body[pos, 1] - expected)) < 1e-12
        assert rec["f_end"] == pytest.approx(body[-1, 1])

    def test_figure2_endpoints(self, tmp_path, capsys):
        code, out, _ = run(capsys, "figure", "2", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        lines = (tmp_path / "figure2_profile.csv").read_text().strip().splitlines()
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert body[0, 0] == 0.0 and body[-1, 0] == 4.0
        # rising branch: c < 0 means positive slope everywhere
        assert np.all(body[1:, 2] > 0.0)

    def test_figures_3_and_4_agree_on_shared_window(self, tmp_path, capsys):
        run(capsys, "figure", "3", "--out-dir", str(tmp_path))
        run(capsys, "figure", "4", "--out-dir", str(tmp_path))
        rows3 = {}
        for ln in (tmp_path / "figure3_profile.csv").read_text().strip().splitlines()[1:]:
            t, f, *_ = (float(v) for v in ln.split(","))
            rows3[t] = f
        matched = 0
        for ln in (tmp_path / "figure4_profile.csv").read_text().strip().splitlines()[1:]:
            t, f, *_ = (float(v) for v in ln.split(","))
            if t in rows3:
                matched += 1
                assert f == pytest.approx(rows3[t], abs=1e-10)
        assert matched >= 2  # shared endpoints at t = 1 and t = 4

    def test_figure_obj_written(self, tmp_path, capsys):
        code, out, _ = run(capsys, "figure", "4", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        rec = last_record(out)
        verts, faces = load_obj((tmp_path / "figure4_surface.obj").read_bytes())
        assert verts.shape[0] == 1 + 63 * 64
        assert rec["interior_minimum_radius"] == pytest.approx(math.sqrt(3.0))
        # the window reaches the axis: first CSV row carries the conical
        # limits (tangent to the lower light cone, slope -1)
        first = (tmp_path / "figure4_profile.csv").read_text().strip().splitlines()[1]
        t0, f0, fp0, _ = (float(v) for v in first.split(","))
        assert t0 == 0.0
        assert fp0 == -1.0
        assert f0 > 0.0

    @pytest.mark.parametrize("fig,radius", [(1, None), (2, None), (3, math.sqrt(3.0)),
                                            (4, math.sqrt(3.0))])
    def test_interior_minimum_radius(self, tmp_path, capsys, fig, radius):
        # sqrt(c / H) where the convex profiles (H, c) = (1, 3) turn; the
        # catenoid and the rising profile have no interior minimum
        code, out, _ = run(capsys, "figure", str(fig), "--nt", "2", "--ntheta", "3",
                           "--samples", "3", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert last_record(out)["interior_minimum_radius"] == radius

    @pytest.mark.parametrize("t_range", [(0.5, 1.5), (2.0, 4.0), (0.0, math.sqrt(3.0))])
    def test_no_interior_minimum_outside_the_window(self, monkeypatch, tmp_path, capsys, t_range):
        # figure 4's profile turns at sqrt(3), past these windows or at an end
        monkeypatch.setitem(cli_module._FIGURES, 4, {**cli_module._FIGURES[4], "t_range": t_range})
        code, out, _ = run(capsys, "figure", "4", "--nt", "2", "--ntheta", "3",
                           "--samples", "3", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert last_record(out)["t_range"] == list(t_range)
        assert last_record(out)["interior_minimum_radius"] is None

    def test_zero_rings_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "figure", "4", "--nt", "0",
                           "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert "--nt" in err

    def test_figures_deterministic(self, tmp_path, capsys):
        run(capsys, "figure", "1", "--out-dir", str(tmp_path / "a"))
        run(capsys, "figure", "1", "--out-dir", str(tmp_path / "b"))
        for name in ("figure1_profile.csv", "figure1_surface.obj"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


MESH_ARGS = ("mesh", "--H", "1", "--c", "3", "--t0", "1", "--t1", "4")


class TestOutputFiles:
    """Output files are rewritten in place: no stale tail, the same inode,
    mode and links, and targets that cannot be truncated still work."""

    BIG = ("--nt", "256", "--ntheta", "256")

    @pytest.mark.parametrize("first,second", [(BIG, ()), ((), BIG)])
    def test_figure_rewrite_equals_a_fresh_write(self, tmp_path, capsys, first, second):
        same, fresh = tmp_path / "same", tmp_path / "fresh"
        assert run(capsys, "figure", "4", "--out-dir", str(same), *first)[0] == EXIT_OK
        old = (same / "figure4_surface.obj").stat().st_size
        for out_dir in (same, fresh):
            assert run(capsys, "figure", "4", "--out-dir", str(out_dir), *second)[0] == EXIT_OK
        assert (same / "figure4_surface.obj").stat().st_size != old
        for name in ("figure4_profile.csv", "figure4_surface.obj"):
            assert (same / name).read_bytes() == (fresh / name).read_bytes()

    def test_mesh_rewrite_keeps_inode_mode_and_links(self, tmp_path, capsys):
        out, link, fresh = tmp_path / "m.obj", tmp_path / "link.obj", tmp_path / "f.obj"
        assert run(capsys, *MESH_ARGS, "--nt", "16", "--out", str(out))[0] == EXIT_OK
        # a new file gets the mode write_bytes would give it (0o666 less the umask)
        (tmp_path / "w").write_bytes(b"")
        assert out.stat().st_mode == (tmp_path / "w").stat().st_mode
        out.chmod(0o640)
        os.link(out, link)
        before = out.stat()
        for path in (out, fresh):
            assert run(capsys, *MESH_ARGS, "--nt", "8", "--out", str(path))[0] == EXIT_OK
        after = out.stat()
        assert after.st_size < before.st_size
        assert (after.st_ino, after.st_nlink) == (before.st_ino, 2)
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert out.read_bytes() == link.read_bytes() == fresh.read_bytes()

    def test_mesh_to_dev_null(self, capsys):
        code, out, _ = run(capsys, *MESH_ARGS, "--nt", "8", "--out", os.devnull)
        assert code == EXIT_OK
        assert last_record(out)["path"] == os.devnull

    def test_mesh_to_fifo(self, tmp_path, capsys):
        fifo, fresh = tmp_path / "pipe", tmp_path / "f.obj"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run(capsys, *MESH_ARGS, "--nt", "8", "--out", str(fifo))[0] == EXIT_OK
        reader.join(timeout=60)
        assert run(capsys, *MESH_ARGS, "--nt", "8", "--out", str(fresh))[0] == EXIT_OK
        assert got == [fresh.read_bytes()]

    def test_dump_config_over_a_longer_file(self, tmp_path, capsys):
        dump, fresh = tmp_path / "eff.cfg", tmp_path / "fresh.cfg"
        dump.write_text("# stale\n" * 1000)
        argv = ("classify", "--r", "1", "--R", "2", "--a", "0", "--b", "0.5", "--H", "1")
        for path in (dump, fresh):
            assert run(capsys, *argv, "--dump-config", str(path))[0] == EXIT_OK
        assert dump.read_bytes() == fresh.read_bytes()
        assert read_config(dump) == {"r": "1.0", "R": "2.0", "a": "0.0", "b": "0.5",
                                     "H": "1.0"}


class TestConfig:
    def test_config_file_supplies_parameters(self, tmp_path, capsys):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("r=1\nR=2\na=0\nb=0.5\nH=1\n")
        code, out, _ = run(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_OK
        assert last_record(out)["regime"] == "PositiveC"

    def test_blank_and_comment_lines_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("# rings\n\nr=1  # inner\nR=2\n   \na=0\nb=0.5\n  # curvature\nH=1\n")
        code, out, _ = run(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_OK
        assert out == run(capsys, "solve", "--r", "1", "--R", "2", "--a", "0", "--b", "0.5",
                          "--H", "1")[1]

    def test_cli_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("r=1\nR=2\na=0\nb=0.5\nH=0.1\n")
        code, out, _ = run(capsys, "solve", "--config", str(cfg), "--H", "1")
        assert code == EXIT_OK
        assert last_record(out)["regime"] == "PositiveC"

    def test_dump_config_records_effective_values(self, tmp_path, capsys):
        dump = tmp_path / "eff.cfg"
        code, _, _ = run(capsys, "solve", "--r", "1", "--R", "2", "--a", "0",
                         "--b", "0.5", "--H", "1", "--dump-config", str(dump))
        assert code == EXIT_OK
        eff = read_config(dump)
        assert eff["H"] == "1.0" and eff["R"] == "2.0"

    def test_figure_reads_sizes_and_out_dir_from_config(self, tmp_path, capsys):
        # these four used to keep their argparse defaults over the file
        cfg = tmp_path / "figure.cfg"
        out_dir = tmp_path / "from_config"
        cfg.write_text(f"nt=5\nntheta=7\nsamples=3\nout_dir={out_dir}\n")
        dump = tmp_path / "eff.cfg"
        code, _, _ = run(capsys, "figure", "3", "--config", str(cfg),
                         "--dump-config", str(dump))
        assert code == EXIT_OK
        verts, faces = load_obj((out_dir / "figure3_surface.obj").read_bytes())
        assert verts.shape[0] == 5 * 7 and faces.shape[0] == 2 * 4 * 7
        rows = (out_dir / "figure3_profile.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3
        eff = read_config(dump)
        assert (eff["nt"], eff["ntheta"], eff["samples"]) == ("5", "7", "3")
        assert eff["out_dir"] == str(out_dir)

    def test_figure_flags_override_config_and_defaults_fill_in(self, tmp_path, capsys):
        cfg = tmp_path / "figure.cfg"
        cfg.write_text("nt=5\n")
        dump = tmp_path / "eff.cfg"
        code, _, _ = run(capsys, "figure", "3", "--config", str(cfg), "--nt", "6",
                         "--out-dir", str(tmp_path), "--dump-config", str(dump))
        assert code == EXIT_OK
        eff = read_config(dump)
        assert (eff["nt"], eff["ntheta"], eff["samples"]) == ("6", "64", "257")
        verts, _ = load_obj((tmp_path / "figure3_surface.obj").read_bytes())
        assert verts.shape[0] == 6 * 64

    def test_bad_config_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_INTERNAL
        assert json.loads(err)["message"] == "bad config line: 'this is not a key value pair'"

    @pytest.mark.parametrize("argv,line,flag", [
        (("solve",), "r=abc", "--r"),
        (("verify",), "mode=foo", "--mode"),
        (("mesh", "--t0", "1", "--t1", "4", "--out", "m.obj"), "t_spacing=foo",
         "--t-spacing"),
    ])
    def test_config_value_checked_by_its_type(self, tmp_path, capsys, argv, line, flag):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"r=1\nR=2\na=0\nb=0.5\nH=1\nc=3\n{line}\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_USAGE
        assert flag in err and out == ""

    def test_config_number_prints_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("r=1\nR=2\na=0\nb=0.5\nH=1\n")
        _, from_config, _ = run(capsys, "solve", "--config", str(cfg))
        _, from_flags, _ = run(capsys, "solve", "--r", "1", "--R", "2", "--a", "0",
                               "--b", "0.5", "--H", "1")
        assert '"r": 1.0,' in from_config
        assert from_config == from_flags

    def test_numeric_out_dir_from_config_is_a_directory(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "figure.cfg").write_text("out_dir=2024\nnt=5\nntheta=7\n")
        code, out, _ = run(capsys, "figure", "1", "--config", "figure.cfg")
        assert code == EXIT_OK
        assert last_record(out)["surface_obj"] == "2024/figure1_surface.obj"
        assert (tmp_path / "2024" / "figure1_profile.csv").is_file()

    @pytest.mark.parametrize("typo", ["quad-tol=abc", "foo=1"])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, typo):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(f"r=1\nR=2\na=0\nb=0.5\nH=1\n{typo}\n")
        code, out, err = run(capsys, "solve", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert typo.split("=")[0] in err and out == ""

    def test_one_config_serves_solve_and_classify(self, tmp_path, capsys):
        # root_tol is a solve parameter; classify ignores it
        cfg = tmp_path / "rings.cfg"
        cfg.write_text("r=1\nR=2\na=0\nb=0.5\nH=1\nroot_tol=1e-10\n")
        for command in ("solve", "classify"):
            code, out, _ = run(capsys, command, "--config", str(cfg))
            assert code == EXIT_OK
            assert last_record(out)["regime"] == "PositiveC"


class TestDumpConfigRoundTrip:
    """--dump-config of a flag-driven run, fed back as --config alone,
    reproduces the stdout and every written file byte for byte."""

    CASES = {
        "solve": (["--r", "1", "--R", "2", "--a", "0.5", "--b", "0", "--H", "1"],
                  {"root_tol"}),
        "classify": (["--r", "1", "--R", "2", "--a", "0", "--b", "0.5", "--H", "0.2"],
                     set()),
        "flux": (["--r", "2", "--H", "1", "--c", "3"], set()),
        "verify": (["--H", "1", "--c", "3", "--extent", "2.4", "--grid-step", "0.05",
                    "--min-radius", "0.8"], {"anchor_r", "anchor_a", "mode"}),
        "mesh": (["--H", "1", "--c", "3", "--t0", "0.5", "--t1", "4", "--ntheta", "9",
                  "--out", "OUT/m.obj"],
                 {"anchor_r", "anchor_a", "nt", "t_spacing"}),
        "figure": (["--out-dir", "OUT", "--nt", "5"], {"ntheta", "samples"}),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_round_trip(self, tmp_path, capsys, command):
        flags, defaulted = self.CASES[command]
        flags = [f.replace("OUT", str(tmp_path / "out")) for f in flags]
        (tmp_path / "out").mkdir()
        head = [command, "4"] if command == "figure" else [command]
        dump = tmp_path / "eff.cfg"

        def outputs(*argv):
            for old in (tmp_path / "out").iterdir():
                old.unlink()
            code, out, _ = run(capsys, *head, *argv)
            assert code == EXIT_OK
            files = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
            return out, files

        first = outputs(*flags, "--dump-config", str(dump))
        assert defaulted <= set(read_config(dump))
        assert outputs("--config", str(dump)) == first

    @pytest.mark.parametrize("out_dir", ["o#x", "o\nx", " o", "o "])
    def test_value_that_would_not_read_back_is_usage_error(self, tmp_path, capsys,
                                                           monkeypatch, out_dir):
        # out_dir=o#x was dumped as is and read back as "o"
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "figure", "1", "--out-dir", out_dir, "--nt", "3",
                             "--ntheta", "3", "--samples", "2", "--dump-config", "d.cfg")
        assert code == EXIT_USAGE
        assert "--out-dir" in err and out == ""
        # neither the dump nor the figure was written
        assert list(tmp_path.iterdir()) == []


class TestEnvTolerance:
    @pytest.mark.parametrize("value", ["nan", "abc", "0", "-1e-6", "inf", "1e-6", ""])
    def test_bad_env_tolerance_is_usage_error(self, tmp_path, capsys, monkeypatch, value):
        # LORENTZ_CMC_TOL once set the default tolerances; any value it holds,
        # valid or not, is now refused rather than silently ignored, and the
        # message names the flag and key that replace it
        monkeypatch.setenv("LORENTZ_CMC_TOL", value)
        dump = tmp_path / "eff.cfg"
        code, out, err = run(capsys, "solve", "--r", "1", "--R", "2", "--a", "0",
                             "--b", "0.5", "--H", "1", "--root-tol", "1e-9",
                             "--dump-config", str(dump))
        assert code == EXIT_USAGE and out == ""
        assert "LORENTZ_CMC_TOL" in err and "--root-tol" in err and "root_tol=" in err
        assert not dump.exists()

    @pytest.mark.parametrize("argv,event", [
        (("classify", "--r", "1", "--R", "2", "--a", "0", "--b", "0.5", "--H", "1"),
         "classification"),
        (("flux", "--r", "2", "--H", "1", "--c", "3"), "flux"),
    ])
    def test_env_tolerance_only_stops_solve(self, capsys, monkeypatch, argv, event):
        # only solve ever read LORENTZ_CMC_TOL; no other command refuses it
        monkeypatch.setenv("LORENTZ_CMC_TOL", "1e-6")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert last_record(out)["event"] == event

    @pytest.mark.parametrize("flag", ["--quad-tol", "--root-tol"])
    def test_nan_tolerance_flag_is_usage_error(self, capsys, flag):
        # solve no longer declares --quad-tol: it exits 64 as an unknown flag
        code, _, err = run(capsys, "solve", "--r", "1", "--R", "2",
                           "--a", "0", "--b", "0.5", "--H", "1", flag, "nan")
        assert code == EXIT_USAGE
        assert flag in err


class TestUsage:
    @pytest.mark.parametrize("argv,name,value", [
        (("flux", "--H", "1", "--c", "3"), "r", "inf"),
        (("flux", "--r", "1", "--c", "3"), "H", "-inf"),
        (("solve", "--r", "1", "--R", "2", "--a", "0", "--b", "0.5"), "H", "nan"),
        (("classify", "--R", "2", "--a", "0", "--b", "0.5", "--H", "1"), "r", "nan"),
        (("mesh", "--c", "3", "--t0", "1", "--t1", "4", "--out", "m.obj"), "H", "nan"),
    ])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                              argv, name, value, via_config):
        # flux used to print NaN/Infinity, and the rest to fail with exit 1
        monkeypatch.chdir(tmp_path)
        if via_config:
            Path("job.cfg").write_text(f"{name}={value}\n")
            extra = ("--config", "job.cfg")
        else:
            extra = (f"--{name}={value}",)
        code, out, err = run(capsys, *argv, *extra)
        assert code == EXIT_USAGE
        assert f"--{name} must be a finite number" in err and out == ""
        assert not Path("m.obj").exists()

    def test_one_parser_serves_every_call(self, capsys):
        # main builds its parser once; nothing one call parses carries over
        assert cli_module.build_parser() is cli_module.build_parser()
        argv = ("classify", "--r", "1", "--R", "2", "--a", "0", "--b", "0.5", "--H", "1")
        code, out, _ = run(capsys, *argv, "--human")
        assert code == EXIT_OK and "{" not in out
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and last_record(out)["event"] == "classification"
        code, _, err = run(capsys, *argv[:-2])
        assert code == EXIT_USAGE and "missing required parameters: H" in err
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"{lorentz_cmc.__version__}\n"

    def test_fractional_count_is_usage_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "figure", "4", "--nt", "2.5", "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE and out == ""
        assert "--nt must be an integer >= 2, got '2.5'" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command,choices", [
        ("verify", "--mode {nondivergence,divergence}"),
        ("mesh", "--t-spacing {uniform,log}"),
        ("solve", "--root-tol ROOT_TOL   shooting residual tolerance"),
    ])
    def test_help_lists_choices(self, capsys, command, choices):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert choices in capsys.readouterr().out
