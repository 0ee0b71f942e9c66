"""Golden sha256 hashes of the OBJ and CSV bytes the library writes, and
of the solver's results.

README promises byte-deterministic output; these hashes pin the actual
bytes, so a rewrite of a serialiser or sampler that changes one byte fails
here.  The solver hash pins every bit of ``solve_c``'s results on the
light-cone grid and the wide ring pairs of ``test_bvp``, so a rewrite of
the shooting loop that moves one root, residual or work count fails here.
They were recorded with numpy 2.4 on x86-64 Linux: a platform whose
libm or numpy SIMD kernels round sin/cos differently can shift the last
digit of a coordinate.  Change a hash only for a deliberate change of
format or of results, and record it in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from lorentz_cmc import (PlateauProblem, RingPair, SurfaceParams, patch_from_profile,
                         patch_to_csv, profile_curve, solve_c, solve_two_ring, threshold_H0,
                         validate_rings)
from lorentz_cmc.cli import EXIT_OK, main
from test_bvp import _light_cone_grid, _wide_ring_pairs

# figure id -> sha256 of figure<id>_profile.csv (257 samples, both sizes).
# Figures 2-4 were re-pinned when the residual column moved from two scalar
# height integrals per row to one heights call on the t +- step grid; their
# t, f, f_prime columns kept their bytes (figure 1 has a closed form and
# kept all of them).
FIGURE_CSV = {
    1: "b657ed7c77b10d24e1a874390d7d3a346d6a35e8f59dac2a424fd58583a1b30b",
    2: "6c08121294f7562959e7ca34eda97e099d5fd27c174509d3e6c31d4bb7c7e671",
    3: "32a1dae763ff1f7cca40ad0114869e55fb374eaf19744261545b21df02767d90",
    4: "a1ed434d26d431acd114cb1329cfae59b02fd9e327c8e97fec9228a1ed2b6b14",
}

# (figure id, size flags) -> sha256 of figure<id>_surface.obj
FIGURE_OBJ = {
    (1, ()): "6bc89d8668dad8a041a6e8a7d558348f4dc997de96f71489ea9e10333cd1d10d",
    (2, ()): "8b973357d2ac2808db5dcc05645a8aa0e7bab6a4d91486621c9da1ee11fb8b0e",
    (3, ()): "df1801a7712bb22689ebf42459fb86a78f3755845147c4bdb4deb8d5c0205b72",
    (4, ()): "b53f3e98caa5f072d2604a31b9ad5f002c37e4a5135e8888c4108a8e0f1244d4",
    (1, ("--nt", "5", "--ntheta", "7")):
        "385363ab406e127ea3e094cf2ae8d5aa610fc9e4843e4906a5d1e130b5a7f374",
    (2, ("--nt", "5", "--ntheta", "7")):
        "3e9ef5e87ac05f9b40be5d93f425d6c184d3f66231ff85cecb001b83a4a2274f",
    (3, ("--nt", "5", "--ntheta", "7")):
        "97351ec94f64bfdde358d6cbc7e9ae4f50700affec4835918b7fafc5e9cea7b3",
    (4, ("--nt", "5", "--ntheta", "7")):
        "b6867f48f6b8ba8e7b1e182c338610f674ae7f1cb77e7bddb3d1a1106f2f07a9",
    # 65281 v and 130560 f records: many writer and reader blocks
    (4, ("--nt", "256", "--ntheta", "256")):
        "31ea747defb1ecca3634b65c1e202b358bf1bcc89236ba51e25eda7c09615a8d",
}

# figure4_profile.csv at --samples 12293 (three writer blocks and five rows)
MULTI_BLOCK_CSV = "12b4d0c43087749a07b385fcc8a0f5f124db52ad9e1aafb5269e3fd90293ab1d"

LOG_MESH_OBJ = "f2de2770da985c16d81d02312ff027c4893169a9c7e645cefaeaac36057f36d0"
HOLED_PATCH_CSV = "5699f500a884436a4f320b90afa7cdee38d67e75fac4bfb9307f381d2f0715ce"

# (c, residual, H0, regime, the four SolveDiagnostics fields, curve.quad_tol)
# of the 360 light-cone grid solves, then the 400 wide ring pair solves;
# re-pinned when rise's conjugate-pair regime moved to float arithmetic
# (309 records moved, c by at most 3.7e-10 relative; CHANGES.md)
SOLVER_RESULTS = "dab1fd12f34e27219b7a1ee680d1a5742cfff64ab3b9c43d2cda08285114ebb4"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fig,sizes", sorted(FIGURE_OBJ))
def test_figure_bytes(tmp_path, capsys, fig, sizes):
    assert main(["figure", str(fig), "--out-dir", str(tmp_path), *sizes]) == EXIT_OK
    capsys.readouterr()
    assert sha256((tmp_path / f"figure{fig}_profile.csv").read_bytes()) == FIGURE_CSV[fig]
    assert sha256((tmp_path / f"figure{fig}_surface.obj").read_bytes()) == \
        FIGURE_OBJ[fig, sizes]


def test_multi_block_profile_csv_bytes(tmp_path, capsys):
    assert main(["figure", "4", "--out-dir", str(tmp_path), "--samples", "12293",
                 "--nt", "2", "--ntheta", "3"]) == EXIT_OK
    capsys.readouterr()
    assert sha256((tmp_path / "figure4_profile.csv").read_bytes()) == MULTI_BLOCK_CSV


def test_log_spaced_annulus_mesh_bytes(tmp_path, capsys):
    out = tmp_path / "annulus.obj"
    assert main(["mesh", "--H", "1", "--c", "3", "--t0", "0.5", "--t1", "4",
                 "--nt", "9", "--ntheta", "11", "--t-spacing", "log",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert sha256(out.read_bytes()) == LOG_MESH_OBJ


def test_patch_with_masked_hole_bytes():
    curve = profile_curve(SurfaceParams(1.0, 3.0), (1.0, 0.0))
    xs = np.linspace(-2.0, 2.0, 17)
    patch = patch_from_profile(curve, xs, xs, min_radius=0.75)
    assert np.count_nonzero(~patch.mask) == 25
    assert sha256(patch_to_csv(patch)) == HOLED_PATCH_CSV


def _solver_record(sol):
    d = sol.diagnostics
    return (sol.c.hex(), sol.residual.hex(), sol.H0.hex(), sol.regime.value, d.g_evals,
            d.interpolation_steps, d.bisection_fallbacks, d.final_bracket_width.hex(),
            sol.curve.quad_tol.hex())


def test_solver_result_bits():
    records = []
    for R, ratio, k, h in _light_cone_grid():
        r = R / ratio
        rings = validate_rings(RingPair(r=r, R=R, a=0.0, b=k * (R - r)))
        records.append(_solver_record(solve_c(PlateauProblem(rings, h * threshold_H0(rings)))))
    records += [_solver_record(solve_two_ring(*case)) for case in _wide_ring_pairs()]
    assert len(records) == 760
    assert sha256("\n".join(map(repr, records)).encode()) == SOLVER_RESULTS
