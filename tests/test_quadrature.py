import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from lorentz_cmc import QuadratureFailure
from lorentz_cmc.quadrature import integrate, panel_sums


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


def test_agrees_with_scipy_on_oscillatory_integrand():
    fn = lambda x: np.sin(7.3 * x) * np.exp(-0.5 * x)
    ours = integrate(fn, 0.0, 9.0, tol=1e-12)
    ref, _ = scipy_quad(lambda x: math.sin(7.3 * x) * math.exp(-0.5 * x), 0.0, 9.0,
                        epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(ours - ref) < 1e-11


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureFailure):
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                  tol=1e-14, max_intervals=12)


def test_interior_pole_raises_instead_of_hanging():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureFailure):
            integrate(lambda x: 1.0 / np.sqrt(np.abs(x)), -1.0, 1.0,
                      tol=1e-14, max_intervals=64)


def test_panel_sums_matches_adaptive_on_smooth_segments():
    edges = np.linspace(0.2, 1.7, 31)
    fn = lambda x: np.cos(x) * x
    vals, errs = panel_sums(fn, edges[:-1], edges[1:])
    total = float(np.sum(vals))
    ref = integrate(fn, 0.2, 1.7, tol=1e-13)
    assert abs(total - ref) < 1e-12
    assert np.all(errs < 1e-10)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_tolerance_must_be_finite_and_positive(tol):
    # with tol = nan, `err > max(tol, floor)` is False and refinement would
    # stop after the first pass
    with pytest.raises(ValueError):
        integrate(np.exp, 0.0, 1.0, tol=tol)


@pytest.mark.parametrize("n", [math.nan, 0, -1, 2.5, True])
def test_max_intervals_must_be_a_positive_integer(n):
    # with max_intervals = nan, `n_panels >= nan` is False and the budget
    # was ignored: 1/sqrt(x) on [0, 1] came out 2.0 instead of raising
    with pytest.raises(ValueError, match="max_intervals"):
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-14, max_intervals=n)
