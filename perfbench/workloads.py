"""The three seeded workloads: inputs, one op, and the checks of one op.

Each workload builds its ops from the seed alone, as one stratified design:
every stratum of the input space gets its ops, with their positions
inside the stratum drawn from the seed.  A timed run makes whole passes
over these ops; a traced run makes one, so its counts repeat exactly.
``pass_seconds`` is about how long one untraced pass takes on a 2-core
x86-64 host; it fixes how many passes fill ``--seconds``.

``run`` is the op that is timed.  ``check`` runs between ops, untimed and
untraced, and returns the list of problems with one op's output; it
compares against ``oracles`` (numpy only) and, where the issue asks for a
consistency check, against other public functions of the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import lorentz_cmc as lc
import lorentz_cmc.cli as lc_cli
import oracles

QUAD_TOL = 1e-10  # the library default every op runs with
ROOT_TOL = 1e-9


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratum(rng, k, n, lo, hi, log=False):
    """A draw from the k-th of n equal strata of [lo, hi] (log scale if asked)."""
    if log:
        return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * (k + rng.random()) / n)
    return lo + (hi - lo) * (k + rng.random()) / n


def _rng(seed, name):
    return np.random.default_rng([seed % 2**63, sum(map(ord, name))])


class PlateauSweep:
    """One op: ``solve_two_ring`` on admissible two-ring data.

    Strata: R/r log-uniform over 1.05..1e3 (12), |b-a|/(R-r) over 0..0.99
    (7), H in {0, below H0, H0, above H0 up to 50} (4), ascending or
    descending (2), three draws in each: 2016 ops, shuffled.  Distinct
    draws rather than repeated passes keep the tail (the 11th slowest op)
    from resting on three or four of them.
    """

    name = "plateau_sweep"
    pass_seconds = 24.0

    def build(self, seed):
        rng = _rng(seed, self.name)
        ops = [self._draw(rng, kr, kq, h_class, descending)
               for kr in range(12) for kq in range(7) for h_class in range(4)
               for descending in (False, True) for _ in range(3)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _draw(rng, kr, kq, h_class, descending):
        ratio = _stratum(rng, kr, 12, 1.05, 1e3, log=True)
        q = _stratum(rng, kq, 7, 0.0, 0.99)
        r = _log_uniform(rng, 0.5, 2.0)
        R = r * ratio
        a = rng.uniform(-1.0, 1.0)
        b = a + q * (R - r)
        H0 = lc.threshold_H0(lc.validate_rings(lc.RingPair(r=r, R=R, a=a, b=b)))
        if h_class == 0:
            H = 0.0
        elif h_class == 1:
            H = H0 * rng.uniform(0.05, 0.95)
        elif h_class == 2:
            H = H0
        else:
            H = _log_uniform(rng, 1.05 * H0 + 1e-3, 50.0)
        if descending:
            a, b = b, a
        return (r, R, a, b, H)

    def run(self, op, workdir):
        return lc.solve_two_ring(*op)

    def check(self, op, sol, workdir):
        r, R, a, b, H = op
        curve = sol.curve
        Hu, cu = curve.mean_curvature, curve.first_integral
        problems = []
        # descending data is solved on the mirror image, which flips H
        if Hu != (H if b >= a else -H):
            problems.append(f"solved with H = {Hu!r}, asked for {H!r} (b {'<' if b < a else '>='} a)")
        if (curve.anchor_radius, curve.anchor_height) != (r, a):
            problems.append(f"anchor ({curve.anchor_radius!r}, {curve.anchor_height!r}), "
                            f"asked for ({r!r}, {a!r})")
        f_R = a + float(oracles.rise(Hu, cu, r, np.array([R]))[0])
        tol = ROOT_TOL + float(oracles.height_tolerance(R, r, QUAD_TOL))
        if not abs(f_R - b) <= tol:
            problems.append(f"f(R) = {f_R!r} misses b = {b!r} by {abs(f_R - b):.3e} > {tol:.3e}")
        lo, hi = (a, b) if b >= a else (-a, -b)
        expected = lc.classify(H, lc.validate_rings(lc.RingPair(r=r, R=R, a=lo, b=hi)))
        if sol.regime is not expected:
            problems.append(f"regime {sol.regime.value} but classify says {expected.value}")
        flux = lc.flux_numeric(r, curve).flux
        ftol = oracles.flux_tolerance(Hu, cu, r)
        if not abs(flux - 2.0 * math.pi * cu) <= ftol:
            problems.append(f"flux {flux!r} vs 2 pi c = {2 * math.pi * cu!r} (tol {ftol:.3e})")
        return problems

    def counts(self, op, out, workdir):
        return {}


# The four bundled gallery profiles of ``lorentz-cmc figure N`` (README):
# (H, c, anchor, t_range).
FIGURES = {
    1: (0.0, 3.0, (1.0, 0.0), (0.0, 7.0)),
    2: (0.1, -0.25, (1.0, 0.0), (0.0, 4.0)),
    3: (1.0, 3.0, (1.0, 0.0), (1.0, 4.0)),
    4: (1.0, 3.0, (1.0, 0.0), (0.0, 4.0)),
}
FIGURE_SAMPLES = 257  # the CLI default for the profile CSV

# every (nt, ntheta) the figures are requested at
SIZES = [(256, 256), (64, 64), (128, 128), (256, 64), (64, 256),
         (128, 256), (64, 128), (256, 128), (128, 64)]
# mesh windows: apex + uniform, annulus + uniform, annulus + log spacing
WINDOWS = ["apex", "uniform", "log"]
# mesh regimes: two with closed forms, three by quadrature
MESH_REGIMES = ["maximal", "cap", "positive_c", "negative_c", "mirrored"]


class FigureExport:
    """One op: an in-process ``lorentz-cmc figure N`` or ``mesh`` request,
    then ``load_obj`` on the OBJ it wrote.

    72 requests, alternately a figure and a mesh: every (nt, ntheta) in
    {64, 128, 256}^2 twice, and 54 more at 128 x 128, so that the median
    falls inside one class of like requests rather than between two.
    Which figure, and which mesh window and regime, each request gets is
    fixed and balanced, so that every seed times the same mix; the seed
    draws the mesh parameters and the order of the requests.
    """

    name = "figure_export"
    pass_seconds = 31.0

    def build(self, seed):
        rng = _rng(seed, self.name)
        ops = []
        for k, (nt, ntheta) in enumerate(2 * SIZES + [(128, 128)] * 54):
            if k % 2 == 0:
                ops.append({"kind": "figure", "id": k // 2 % 4 + 1, "nt": nt, "ntheta": ntheta})
            else:
                m = k // 2
                ops.append(self._mesh(rng, WINDOWS[m % 3], MESH_REGIMES[m % 5], nt, ntheta))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _mesh(rng, window, regime, nt, ntheta):
        H = _log_uniform(rng, 0.1, 2.0)
        c = _log_uniform(rng, 0.1, 5.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        H, c = {"maximal": (0.0, sign * c),
                "cap": (sign * H, 0.0),
                "positive_c": (H, c),
                "negative_c": (H, -c),
                "mirrored": (-H, sign * c)}[regime]
        anchor = (_log_uniform(rng, 0.5, 2.0), rng.uniform(-1.0, 1.0))
        t1 = anchor[0] * rng.uniform(2.0, 5.0)
        t0 = 0.0 if window == "apex" else anchor[0] * rng.uniform(0.2, 0.8)
        return {"kind": "mesh", "H": H, "c": c, "anchor": anchor, "t0": t0, "t1": t1,
                "spacing": "log" if window == "log" else "uniform",
                "nt": nt, "ntheta": ntheta}

    @staticmethod
    def argv(op, workdir):
        if op["kind"] == "figure":
            return ["figure", str(op["id"]), "--out-dir", str(workdir),
                    "--nt", str(op["nt"]), "--ntheta", str(op["ntheta"])]
        return ["mesh", "--H", repr(op["H"]), "--c", repr(op["c"]),
                "--anchor-r", repr(op["anchor"][0]), "--anchor-a", repr(op["anchor"][1]),
                "--t0", repr(op["t0"]), "--t1", repr(op["t1"]),
                "--nt", str(op["nt"]), "--ntheta", str(op["ntheta"]),
                "--t-spacing", op["spacing"], "--out", str(workdir / "mesh.obj")]

    def run(self, op, workdir):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = lc_cli.main(self.argv(op, workdir))
        if code != 0:
            raise RuntimeError(f"lorentz-cmc exited {code}")
        record = json.loads(stdout.getvalue())
        obj = Path(record["surface_obj"] if op["kind"] == "figure" else record["path"])
        vertices, faces = lc.load_obj(obj.read_bytes())
        return record, stdout.getvalue(), vertices, faces

    @staticmethod
    def _geometry(op):
        """(H, c, anchor, t0, t1, spacing) of the request."""
        if op["kind"] == "figure":
            H, c, anchor, (t0, t1) = FIGURES[op["id"]]
            return H, c, anchor, t0, t1, "uniform"
        return op["H"], op["c"], op["anchor"], op["t0"], op["t1"], op["spacing"]

    def check(self, op, out, workdir):
        record, _, vertices, faces = out
        H, c, (r, a), t0, t1, spacing = self._geometry(op)
        nt, ntheta = op["nt"], op["ntheta"]
        apex = t0 == 0.0
        n_rings = nt - 1 if apex else nt
        problems = []
        n_v = n_rings * ntheta + (1 if apex else 0)
        n_f = 2 * (n_rings - 1) * ntheta + (ntheta if apex else 0)
        if vertices.shape != (n_v, 3) or faces.shape != (n_f, 3):
            return [f"OBJ has {vertices.shape[0]} v / {faces.shape[0]} f, "
                    f"expected {n_v} / {n_f}"]
        chi = oracles.euler_characteristic(n_v, faces)
        if chi != (1 if apex else 0):
            problems.append(f"Euler characteristic {chi}, expected {1 if apex else 0}")
        if op["kind"] == "mesh" and record["euler_characteristic"] != chi:
            problems.append(f"CLI reports chi = {record['euler_characteristic']}, OBJ has {chi}")

        ts = (np.linspace if spacing == "uniform" else np.geomspace)(t0, t1, nt)
        ring_ts = ts[1:] if apex else ts
        rings = vertices[1 if apex else 0:].reshape(n_rings, ntheta, 3)
        z = rings[:, :, 2]
        curve = lc.profile_curve(lc.SurfaceParams(H, c), (r, a))
        if not np.array_equal(z, np.broadcast_to(lc.heights(curve, ring_ts)[:, None], z.shape)):
            problems.append("ring z values differ from heights()")
        rho = np.hypot(rings[:, :, 0], rings[:, :, 1])
        if not np.allclose(rho, ring_ts[:, None], rtol=1e-14, atol=0.0):
            problems.append("ring radii differ from the requested t grid")
        probe_ts = ts if apex else ring_ts
        probe_z = np.concatenate([[vertices[0, 2]], z[:, 0]]) if apex else z[:, 0]
        problems += _height_problems(H, c, r, a, probe_ts, probe_z, "OBJ ring")

        if op["kind"] == "figure":
            table = np.loadtxt(io.StringIO(Path(record["profile_csv"]).read_text()),
                               delimiter=",", skiprows=1)
            if table.shape != (FIGURE_SAMPLES, 4):
                problems.append(f"profile CSV has shape {table.shape}")
            else:
                problems += _height_problems(H, c, r, a, table[:, 0], table[:, 1], "CSV")
        return problems

    def counts(self, op, out, workdir):
        record, stdout, _, _ = out
        paths = ([record["profile_csv"], record["surface_obj"]]
                 if op["kind"] == "figure" else [record["path"]])
        written = sum(Path(p).stat().st_size for p in paths)
        return {"cli.bytes_written": written + len(stdout.encode())}


def _height_problems(H, c, r, a, ts, zs, what):
    want = a + oracles.rise(H, c, r, ts)
    gap = np.abs(zs - want)
    tol = oracles.height_tolerance(ts, r, QUAD_TOL)
    bad = np.nonzero(~(gap <= tol))[0]
    if bad.size:
        i = bad[np.argmax(gap[bad] / tol[bad])]
        return [f"{what} height at t={ts[i]!r} is {zs[i]!r}, oracle {want[i]!r} "
                f"({bad.size} points beyond tolerance)"]
    return []


SLOPE_DESIGN = 0.95  # |f'| bound the patch windows are placed within
SLOPE_CHECK = 0.999  # |f'| bound under which H_mean must match H
N_RADII = 100_000
N_LATTICE = 257
N_HEIGHT_PROBES = 64


class ProfileEval:
    """One op: a quadrature-regime (H, c, anchor) put through ``heights`` on
    1e5 unsorted radii spanning six decades, ``patch_from_profile`` on a
    257^2 lattice, ``mean_curvature_graph`` in both modes, and a
    ``patch_to_csv`` / ``patch_from_csv`` round trip.

    Strata: sign of c (2) x orientation (H > 0 or mirrored H < 0, 2) x
    log H over 0.05..5 (18): 72 ops, shuffled.
    """

    name = "profile_eval"
    pass_seconds = 37.0
    h_strata = 18

    def build(self, seed):
        rng = _rng(seed, self.name)
        ops = [self._draw(rng, sign_c, parity, kh)
               for sign_c in (1.0, -1.0) for parity in (1.0, -1.0)
               for kh in range(self.h_strata)]
        rng.shuffle(ops)
        return ops

    def _draw(self, rng, sign_c, parity, kh):
        H = _stratum(rng, kh, self.h_strata, 0.05, 5.0, log=True)
        # c < 0 needs 4 H |c| < kappa^2 for a window with |f'| <= 0.95
        c = sign_c * _log_uniform(rng, 0.05, 10.0 if sign_c > 0 else 1.5 / H)
        anchor = (_log_uniform(rng, 0.3, 3.0), rng.uniform(-1.0, 1.0))
        # radial band where |H t^2 - c| <= kappa t, i.e. |f'| <= SLOPE_DESIGN
        kappa = SLOPE_DESIGN / math.sqrt(1.0 - SLOPE_DESIGN**2)
        root = math.sqrt(kappa * kappa + 4.0 * H * c)
        t_lo = (root - kappa) / (2.0 * H) if c > 0.0 else 0.0
        t_hi = (root + kappa) / (2.0 * H)
        rho0 = t_lo + (t_hi - t_lo) * rng.uniform(0.4, 0.6)
        side = min(rho0 - t_lo, t_hi - rho0, rho0)
        x1 = np.linspace(rho0 - side / 2, rho0 + side / 2, N_LATTICE)
        x2 = np.linspace(-side / 2, side / 2, N_LATTICE)
        # mask a lens on the inner edge; every row and column keeps points
        min_radius = math.hypot(rho0 - side / 2, side / 4)
        radii = rho0 * 10.0 ** rng.uniform(-3.0, 3.0, N_RADII)
        return {"H": parity * H, "c": parity * c, "anchor": anchor, "radii": radii,
                "x1": x1, "x2": x2, "min_radius": min_radius,
                "probes": rng.choice(N_RADII, N_HEIGHT_PROBES, replace=False)}

    def run(self, op, workdir):
        curve = lc.profile_curve(lc.SurfaceParams(op["H"], op["c"]), op["anchor"])
        hs = lc.heights(curve, op["radii"])
        patch = lc.patch_from_profile(curve, op["x1"], op["x2"], min_radius=op["min_radius"])
        reports = {mode: lc.mean_curvature_graph(patch, mode=mode)
                   for mode in ("nondivergence", "divergence")}
        back = lc.patch_from_csv(lc.patch_to_csv(patch))
        return hs, patch, reports, back

    def check(self, op, out, workdir):
        hs, patch, reports, back = out
        H, c, (r, a) = op["H"], op["c"], op["anchor"]
        i = op["probes"]
        problems = _height_problems(H, c, r, a, op["radii"][i], hs[i], "heights()")

        if not (np.array_equal(back.x1, patch.x1) and np.array_equal(back.x2, patch.x2)
                and np.array_equal(back.mask, patch.mask)
                and np.array_equal(back.values[patch.mask], patch.values[patch.mask])):
            problems.append("patch CSV round trip is not exact")

        rho = np.hypot(*np.meshgrid(op["x1"], op["x2"], indexing="ij"))[patch.mask]
        steepest = float(np.max(np.abs(oracles.slope(rho, H, c))))
        if not steepest <= SLOPE_CHECK:
            return problems + [f"window reaches |f'| = {steepest}"]
        # O(h^2): halving the lattice quadruples the error, so the error at h
        # is at most a third of the change from 2h, plus quadrature noise
        # (one quad_tol through the second-difference stencil)
        coarse = lc.GraphPatch(x1=patch.x1[::2], x2=patch.x2[::2],
                               values=patch.values[::2, ::2], mask=patch.mask[::2, ::2])
        h = float(patch.x1[1] - patch.x1[0])
        noise = 4.0 * QUAD_TOL / (h * h)
        for mode, report in reports.items():
            err = abs(report.H_mean - H)
            change = abs(lc.mean_curvature_graph(coarse, mode=mode).H_mean - report.H_mean)
            if not err <= 2.0 * change / 3.0 + noise:
                problems.append(f"{mode}: H_mean {report.H_mean!r} vs H {H!r}, error "
                                f"{err:.3e} above the O(h^2) bound {2 * change / 3 + noise:.3e}")
        return problems

    def counts(self, op, out, workdir):
        return {}


WORKLOADS = {w.name: w for w in (PlateauSweep(), FigureExport(), ProfileEval())}
