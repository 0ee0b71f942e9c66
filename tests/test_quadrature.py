import contextlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from lorentz_cmc import (QuadratureFailure, SurfaceParams, heights, profile, profile_curve,
                         quadrature)
from lorentz_cmc.core import _height_at
from lorentz_cmc.profile import _slope_raw
from lorentz_cmc.quadrature import (PRESPLIT_RATIO, _BLOCK, _NODES, _WG7, _WGK, integrate,
                                    panel_sums)


def test_low_degree_polynomial_is_exact():
    # K15 integrates these on a single panel
    val = integrate(lambda x: x**4, 0.0, 1.0, tol=1e-12)
    assert abs(val - 0.2) < 1e-14
    val = integrate(lambda x: 3 * x**2 - x + 2.0, -1.0, 2.0, tol=1e-12)
    assert abs(val - (9.0 - 1.5 + 6.0)) < 1e-13


def test_sine_to_tight_tolerance():
    val = integrate(np.sin, 0.0, math.pi, tol=1e-13)
    assert abs(val - 2.0) < 1e-13


def test_orientation_and_degenerate_bounds():
    assert integrate(np.cos, 1.0, 1.0) == 0.0
    # an empty interval is never sampled, so the pole at 0 is never hit
    assert integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 0.0) == 0.0
    fwd = integrate(np.exp, 0.0, 1.0, tol=1e-12)
    back = integrate(np.exp, 1.0, 0.0, tol=1e-12)
    assert abs(fwd - (math.e - 1.0)) < 1e-12
    assert abs(fwd + back) < 1e-14


def test_endpoint_limit_never_sampled():
    # 1/sqrt(x) is integrable with a pole at the left endpoint; all nodes
    # are interior so this converges
    val = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-9)
    assert abs(val - 2.0) < 1e-8


def test_wide_interval_against_closed_form():
    val = integrate(lambda x: 1.0 / x**2, 1.0, 1e6, tol=1e-10)
    assert abs(val - (1.0 - 1e-6)) < 1e-9


@pytest.mark.parametrize("lo", [1e-320, 5e-324])
@pytest.mark.parametrize("lo_type", [float, np.float64])
def test_subnormal_lower_bound_presplits_by_logs(lo, lo_type):
    # hi / lo overflows: math.ceil(inf) raised OverflowError, and a numpy
    # lo warned of the overflow first
    assert abs(integrate(np.cos, lo_type(lo), 1.0, tol=1e-13) - math.sin(1.0)) <= 1e-13
    cuts = quadrature._initial_cuts(lo, 1.0)
    assert lo < cuts[0] and cuts[-1] < 1.0 and all(np.diff(cuts) > 0.0)
    assert len(cuts) + 1 == math.ceil(-math.log10(lo))


def test_wide_interval_presplits_at_each_decade():
    assert quadrature._initial_cuts(1.0, 1e4) == pytest.approx([10.0, 100.0, 1e3], rel=1e-15)


def test_agrees_with_scipy_on_oscillatory_integrand():
    fn = lambda x: np.sin(7.3 * x) * np.exp(-0.5 * x)
    ours = integrate(fn, 0.0, 9.0, tol=1e-12)
    ref, _ = scipy_quad(lambda x: math.sin(7.3 * x) * math.exp(-0.5 * x), 0.0, 9.0,
                        epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(ours - ref) < 1e-11


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 12)
    with pytest.raises(QuadratureFailure):
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-14)


def test_interior_pole_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 64)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureFailure):
            integrate(lambda x: 1.0 / np.sqrt(np.abs(x)), -1.0, 1.0, tol=1e-14)


@pytest.mark.parametrize("at", [0.5, 0.5 + _NODES[0] * 0.5], ids=["gauss", "kronrod"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_is_refined_away(bad, at):
    # the Kronrod rule samples the midpoint 0.5 of [0, 1] (a Gauss node)
    # and 0.5 + _NODES[0] / 2 (a node of zero Gauss weight), never an end
    # of a panel: the panel holding the bad sample counts as unresolved
    # until it is cut away from it, and contributes nothing, without a
    # warning from the rule's own arithmetic (inf - inf, 0 * inf)
    assert integrate(lambda x: np.where(x == at, bad, 1.0), 0.0, 1.0) == 1.0


def test_non_finite_sample_at_roundoff_width_raises():
    # a non-integrable pole at 0.5: panels beside it shrink to roundoff
    # width while their estimate stays infinite
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureFailure,
                           match=r"roundoff-width panel \[0\.5, .*\] has error estimate inf"):
            integrate(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)


@pytest.mark.parametrize("p, c, lo, hi, tol", [
    # integrable: the exact integral is 212.08, and the one huge sample at
    # c lifts the 50 eps sum|panel| floor over the panel's own estimate
    (-0.99, 201.91578631115027, -1.6556007276268616, 812.6299474274817, 1e-10),
    # log-divergent: no finite value is right
    (-1.0, 176.36866792832723, -0.5147376942988595, 353.25207355095336, 1.4193521072388574e-11),
])
def test_finite_estimate_at_roundoff_width_raises(p, c, lo, hi, tol):
    # the spike sits 1e-20 past a float, inside a panel with no float in
    # its interior; parking that panel returned 3586642.73 and 5684414.39
    with np.errstate(divide="ignore"):
        with pytest.raises(QuadratureFailure,
                           match=rf"roundoff-width panel \[{c}, .*\] has error estimate \d"):
            integrate(lambda x: np.abs((x - c) - 1e-20) ** p, lo, hi, tol=tol)


def test_a_given_roundoff_width_interval_integrates():
    # only a bisection's children are checked for a float strictly inside
    x = 201.91578631115027
    y = math.nextafter(x, math.inf)
    assert integrate(lambda s: np.full(s.shape, 3.0), x, y) == pytest.approx(3.0 * (y - x))
    # an infinite sample leaves it unresolved: bisecting it makes a child
    # of no width
    with pytest.raises(QuadratureFailure, match=rf"roundoff-width panel \[{x}, "):
        integrate(lambda s: np.where(s == x, np.inf, 1.0), x, y)


def test_a_child_whose_midpoint_rounds_to_its_upper_end_raises():
    # [1 + eps, 1 + 3 eps] is cut at 1 + 2 eps exactly; the first child's
    # midpoint (2 + 3 eps) / 2 rounds to even, up to the child's upper end,
    # so no float lies strictly inside though the lower end is below it
    eps = 2.0 ** -52
    lo, m, hi = 1.0 + eps, 1.0 + 2.0 * eps, 1.0 + 3.0 * eps
    assert 0.5 * (lo + hi) == m and lo < 0.5 * (lo + m) == m
    with pytest.raises(QuadratureFailure, match=rf"roundoff-width panel \[{lo}, {m}\] "):
        integrate(lambda s: np.where(s == m, np.inf, 1.0), lo, hi)


def test_reversed_bounds_negate_the_integral():
    assert integrate(lambda x: x, 1.0, 0.0) == -0.5
    # a reversed panel has no midpoint strictly inside it, so an integrand
    # that needs refinement needs the bounds put in order first
    assert abs(integrate(lambda x: 1.0 / np.sqrt(x), 1.0, 0.0) + 2.0) <= 1e-10


def test_panel_sums_matches_adaptive_on_smooth_segments():
    edges = np.linspace(0.2, 1.7, 31)
    fn = lambda x: np.cos(x) * x
    vals, errs = panel_sums(fn, edges[:-1], edges[1:])
    total = float(np.sum(vals))
    ref = integrate(fn, 0.2, 1.7, tol=1e-13)
    assert abs(total - ref) < 1e-12
    assert np.all(errs < 1e-10)


def reference_panel_sums(fn, los, his):
    """The 15-point rule one panel at a time, in Python floats: each panel's
    weighted samples summed in node order (Gauss-7 on nodes 1, 3, ..., 13)."""
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    ys = fn(mid[None, :] + _NODES[:, None] * half[None, :])
    wk, wg = _WGK.tolist(), _WG7.tolist()
    ks, es = [], []
    for h, y in zip(half.tolist(), ys.T.tolist()):
        k = wk[0] * y[0]
        for w, v in zip(wk[1:], y[1:]):
            k += w * v
        g = wg[0] * y[1]
        for w, v in zip(wg[1:], y[3::2]):
            g += w * v
        ks.append(h * k)
        es.append(abs(h * k - h * g))
    return np.array(ks, dtype=float), np.array(es, dtype=float)


# a batch of one panel, and the first and last blocks of several sizes
@pytest.mark.parametrize("n", [0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2, _BLOCK + 3,
                               3 * _BLOCK + 5])
def test_blocked_panel_sums_are_bitwise_the_unblocked_rule(n):
    rng = np.random.default_rng(n)
    edges = np.sort(np.exp(rng.uniform(-7.0, 7.0, n + 1)))
    for _ in range(4):
        H, c = rng.choice([-1.0, 1.0], 2) * np.exp(rng.uniform(-3.0, 3.0, 2))
        fn = lambda s: _slope_raw(s, H, c)
        got = panel_sums(fn, edges[:-1], edges[1:])
        want = reference_panel_sums(fn, edges[:-1], edges[1:])
        for a, b in zip(got, want):
            assert a.shape == (n,)
            assert a.tobytes() == b.tobytes()


def test_a_panel_alone_sums_to_the_bits_it_has_in_a_batch():
    # a BLAS gemv (and numpy's np.sum) adds a lone panel's 15 rows in
    # another order than a batch's: with gemv, 393 of these 600 panels
    # moved; the node-order sum is one order for both
    rng = np.random.default_rng(6000)
    los = rng.uniform(-10.0, 10.0, 600)
    his = los + np.exp(rng.uniform(-20.0, 3.0, 600))
    fn = lambda x: np.sin(3.0 * x) / (1.0 + x * x) + 1e3 * np.exp(-x * x)
    batch = panel_sums(fn, los, his)
    for i in range(los.size):
        alone = panel_sums(fn, los[i:i + 1], his[i:i + 1])
        assert [a.tobytes() for a in alone] == [b[i:i + 1].tobytes() for b in batch]


def _log_uniform_curves():
    rng = np.random.default_rng(1991)
    for sign_c in (1.0, -1.0):
        H, c = math.exp(rng.uniform(-2.0, 1.5)), sign_c * math.exp(rng.uniform(-2.0, 2.0))
        r, a = math.exp(rng.uniform(-1.0, 1.0)), rng.uniform(-1.0, 1.0)
        ts = r * 10.0 ** rng.uniform(-3.0, 3.0, 100_000)
        yield H, c, (r, a), ts


def _untrusted(H, c, quad_tol, los, his, vals, errs):
    """Indices of the segments whose panel ``heights`` may not keep, one at a
    time: it misses max(quad_tol / segments, 50 eps |panel|), spans more than
    three decades, or is wider than 16 w within 64 w of a slope turn (k, w)
    of the canonical (H, c): the conical (|c|, |c|), and where 4 H c > 1 the
    kink (sqrt(c / H), 1 / (2 H)); or lies a distance d beyond 64 w of the
    kink and is wider than 16 d."""
    H, c = (-H, -c) if H < 0.0 else (H, c)
    turns = [(abs(c), abs(c))] + ([(math.sqrt(c / H), 0.5 / H)] if 4.0 * H * c > 1.0 else [])
    tol = quad_tol / len(vals)
    return [i for i, (lo, hi, v, e) in enumerate(zip(los.tolist(), his.tolist(), vals.tolist(),
                                                     errs.tolist()))
            if not e <= max(tol, 50.0 * np.finfo(float).eps * abs(v))
            or hi / lo > PRESPLIT_RATIO
            or any(lo <= k + 64.0 * w and hi >= k - 64.0 * w and hi - lo > 16.0 * w
                   for k, w in turns)
            or any(max(lo - k, k - hi) > 64.0 * w and hi - lo > 16.0 * max(lo - k, k - hi)
                   for k, w in turns[1:])]


def _reference_heights(H, c, anchor, ts, quad_tol=quadrature.DEFAULT_QUAD_TOL, taken=None):
    """Anchor-zeroed cumulative sums of unblocked panels over the sorted radii,
    every segment in ``_untrusted`` taken by ``_height_at`` (and appended to
    ``taken`` as (lo, hi), when given)."""
    edges = np.unique(np.append(ts, anchor[0]))
    los, his = edges[:-1], edges[1:]
    vals, errs = reference_panel_sums(lambda s: _slope_raw(s, H, c), los, his)
    for i in _untrusted(H, c, quad_tol, los, his, vals, errs):
        vals[i] = _height_at(float(his[i]), H, c, (float(los[i]), 0.0))
        if taken is not None:
            taken.append((float(los[i]), float(his[i])))
    F = np.concatenate([[0.0], np.cumsum(vals)])
    F -= F[np.searchsorted(edges, anchor[0])]
    return anchor[1] + F[np.searchsorted(edges, ts)]


@contextlib.contextmanager
def heights_taken():
    """Context yielding the (lo, hi) of each segment ``heights`` gives to
    ``_height_at``, in which ``integrate`` raises."""
    taken = []

    def recorded(t, H, c, anchor):
        taken.append((anchor[0], t))
        return _height_at(t, H, c, anchor)

    def entered(*args, **kwargs):
        raise AssertionError("heights called integrate")

    with mock.patch.object(profile, "_height_at", recorded), \
            mock.patch.object(quadrature, "integrate", entered):
        yield taken


def test_heights_on_1e5_radii_are_bitwise_the_unblocked_rule():
    # 1e5 log-uniform radii over six decades: about 50 blocks; the mirrored
    # curve (-H, -c, -a) must give exactly the negated heights, with no
    # floating-point warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H, c, (r, a), ts in _log_uniform_curves():
            want = _reference_heights(H, c, (r, a), ts)
            got = heights(profile_curve(SurfaceParams(H, c), (r, a)), ts)
            mirrored = heights(profile_curve(SurfaceParams(-H, -c), (r, -a)), ts)
            assert got.tobytes() == want.tobytes()
            assert np.negative(mirrored).tobytes() == want.tobytes()


# (H, c, anchor) of the profile_eval draw (seed 1) whose 1e5 radii, about
# 34.5 * 10^U(-3, 3), have the most panels that miss quad_tol / segments:
# 436, each within the roundoff floor 50 eps |panel|, which keeps it
_HEAVIEST = (-0.05204485526405397, -3.412048270750136, (0.8114525396932905, 0.9220897933424266))


def test_roundoff_floor_accepts_keep_their_panel():
    H, c, anchor = _HEAVIEST
    ts = 34.5 * 10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, 100_000)
    edges = np.unique(np.append(ts, anchor[0]))
    vals, errs = reference_panel_sums(lambda s: _slope_raw(s, H, c), edges[:-1], edges[1:])
    floor = errs <= 50.0 * np.finfo(float).eps * np.abs(vals)
    assert np.count_nonzero(floor & ~(errs <= quadrature.DEFAULT_QUAD_TOL / vals.size)) == 436
    want_taken = []
    want = _reference_heights(H, c, anchor, ts, taken=want_taken)
    for curve, sign in ((profile_curve(SurfaceParams(H, c), anchor), 1.0),
                        (profile_curve(SurfaceParams(-H, -c), (anchor[0], -anchor[1])), -1.0)):
        with heights_taken() as taken:
            assert (sign * heights(curve, ts)).tobytes() == want.tobytes()
        assert taken == want_taken == []


@pytest.mark.parametrize("quad_tol", [1e-10, 1e-16, 1e-300, 5e-324])
def test_untrusted_segments_take_height_at(quad_tol):
    # a tight quad_tol leaves the roundoff floor as the stop rule: some
    # segments keep their panel and the others take _height_at, as every
    # segment over more than three decades does, such as [1e-6, 1e-2] and
    # [1e5, 1e9] on (1, 3); at 5e-324 quad_tol / segments underflows to 0
    cases = [(H, c, anchor, ts[:2000]) for H, c, anchor, ts in _log_uniform_curves()]
    cases.append((1.0, 3.0, (1.0, 0.0), np.array([1e-6, 1e-2, 1e5, 1e9])))
    for H, c, anchor, ts in cases:
        want_taken = []
        want = _reference_heights(H, c, anchor, ts, quad_tol, want_taken)
        with heights_taken() as taken:
            got = heights(profile_curve(SurfaceParams(H, c), anchor, quad_tol=quad_tol), ts)
        assert got.tobytes() == want.tobytes()
        assert taken == want_taken
    assert {(1e-6, 1e-2), (1e5, 1e9)} <= set(taken)


def test_heights_peak_memory_is_one_block_beyond_the_results():
    # the unblocked rule held (15, N) nodes, samples and products at once:
    # about 52 MB at N = 1e5
    H, c, anchor, ts = next(_log_uniform_curves())
    curve = profile_curve(SurfaceParams(H, c), anchor)
    tracemalloc.start()
    try:
        heights(curve, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_tolerance_must_be_finite_and_positive(tol):
    # with tol = nan, `err > max(tol, floor)` is False and refinement would
    # stop after the first pass
    with pytest.raises(ValueError):
        integrate(np.exp, 0.0, 1.0, tol=tol)

