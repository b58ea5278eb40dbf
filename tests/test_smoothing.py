"""Natural cubic smoothing splines and GCV smoothing selection."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from trapnoise.constants import DomainError
from trapnoise.smoothing import _bands, fit_smoothing_spline

# records from tests/record_smoothing_reference.py (mpmath, 60 digits)
ORACLE = json.loads(
    (Path(__file__).parent / "data" / "smoothing_gcv.json").read_text())["records"]


def test_zero_smoothing_interpolates_knots():
    x = np.array([0.0, 0.7, 1.1, 2.0, 3.5, 4.0])
    y = np.sin(x)
    sp = fit_smoothing_spline(x, y, lam=0.0)
    np.testing.assert_allclose(sp(x), y, atol=1e-14)


def test_zero_smoothing_matches_scipy_natural_spline():
    x = np.array([0.0, 0.7, 1.1, 2.0, 3.5, 4.0])
    y = np.cos(1.3 * x) + 0.2 * x
    sp = fit_smoothing_spline(x, y, lam=0.0)
    ref = CubicSpline(x, y, bc_type="natural")
    xq = np.linspace(0.0, 4.0, 57)
    np.testing.assert_allclose(sp(xq), ref(xq), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sp.derivative(xq), ref(xq, 1), atol=1e-10)


def test_natural_boundary_second_derivatives_vanish():
    x = np.linspace(0.0, 2.0, 9)
    y = x**3
    sp = fit_smoothing_spline(x, y, lam=0.0)
    assert sp.second_derivs[0] == 0.0
    assert sp.second_derivs[-1] == 0.0


def test_heavy_smoothing_tends_to_weighted_regression_line():
    rng = np.random.default_rng(12)
    x = np.linspace(0.0, 10.0, 30)
    y = 2.0 * x + 1.0 + rng.normal(0.0, 0.3, x.size)
    sp = fit_smoothing_spline(x, y, lam=1e8)
    slope, intercept = np.polyfit(x, y, 1)
    np.testing.assert_allclose(sp(x), slope * x + intercept, rtol=1e-4)
    assert np.max(np.abs(sp.second_derivs)) < 1e-7


def test_gcv_recovers_smooth_signal_better_than_interpolation():
    rng = np.random.default_rng(99)
    x = np.linspace(0.0, 3.0, 40)
    truth = np.sin(2.0 * x)
    y = truth + rng.normal(0.0, 0.15, x.size)
    gcv = fit_smoothing_spline(x, y)
    interp = fit_smoothing_spline(x, y, lam=0.0)
    rmse_gcv = np.sqrt(np.mean((gcv(x) - truth) ** 2))
    rmse_interp = np.sqrt(np.mean((interp(x) - truth) ** 2))
    assert gcv.lam > 0.0
    assert rmse_gcv < rmse_interp


def test_weights_pull_fit_toward_precise_points():
    x = np.linspace(0.0, 1.0, 8)
    y = np.zeros_like(x)
    y[3] = 1.0
    sigma = np.full_like(x, 1.0)
    sigma[3] = 1e-3  # make the outlier the most trusted point
    loose = fit_smoothing_spline(x, y, lam=1e-2)
    tight = fit_smoothing_spline(x, y, sigma, lam=1e-2)
    assert abs(tight(x[3]) - 1.0) < abs(loose(x[3]) - 1.0)


def test_derivative_consistent_with_values():
    x = np.linspace(0.5, 4.0, 12)
    y = np.log(x)
    sp = fit_smoothing_spline(x, y, lam=1e-3)
    xq = np.linspace(0.6, 3.9, 11)
    h = 1e-6
    numeric = (sp(xq + h) - sp(xq - h)) / (2.0 * h)
    np.testing.assert_allclose(sp.derivative(xq), numeric, rtol=1e-6, atol=1e-8)


def test_influence_trace_counts_effective_parameters():
    x = np.linspace(0.0, 1.0, 10)
    y = x**2
    interp = fit_smoothing_spline(x, y, lam=0.0)
    assert interp.influence_trace == pytest.approx(10.0)
    heavy = fit_smoothing_spline(x, y, lam=1e9)
    assert 1.9 < heavy.influence_trace < 2.5  # essentially a line


def test_validation():
    with pytest.raises(DomainError):
        fit_smoothing_spline([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        fit_smoothing_spline([0.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        fit_smoothing_spline(
            [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, 1.0]
        )
    with pytest.raises(DomainError):
        fit_smoothing_spline([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], lam=-1.0)
    x, y, sigma = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [1.0] * 4
    for bad in (np.nan, np.inf, -np.inf):
        for args in (([bad, *x[1:]], y, sigma), (x[:3] + [bad], y, sigma),
                     (x, [1.0, bad, 3.0, 4.0], sigma), (x, y, [1.0, 1.0, bad, 1.0])):
            with pytest.raises(DomainError, match="finite"):
                fit_smoothing_spline(*args)
        with pytest.raises(DomainError, match="finite"):
            fit_smoothing_spline(x, y, sigma, lam=bad)
    for args in ((x, y[:3], sigma), (x, [*y, 5.0], sigma), (x, y, sigma[:3]),
                 (x, [y, y], sigma), (x, np.ones((2, 5)), sigma, 1.0)):
        with pytest.raises(DomainError, match="x has 4 points"):
            fit_smoothing_spline(*args)
    sp = fit_smoothing_spline(x, y, sigma, lam=1.0)
    for bad in ([y[:3]], np.ones((2, 5)), [y, [1.0, np.nan, 3.0, 4.0]]):
        with pytest.raises(DomainError, match="finite with 4 points"):
            sp.refit(bad)


@pytest.mark.parametrize("rec", ORACLE, ids=[r["name"] for r in ORACLE])
def test_gcv_matches_mpmath_oracle(rec):
    x, y, sigma = (np.array(rec[k]) for k in ("x", "y", "sigma"))
    best = rec["argmin"]
    if rec["gap"] > 1e-10:
        chosen = fit_smoothing_spline(x, y, sigma).lam
        assert chosen == pytest.approx(rec["lam"][best], rel=1e-12)
    got = [fit_smoothing_spline(x, y, sigma, lam=lam).gcv for lam in rec["lam"]]
    np.testing.assert_allclose(got, rec["gcv"], rtol=1e-9, atol=0.0)
    sp = fit_smoothing_spline(x, y, sigma, lam=rec["lam"][best])
    assert sp.influence_trace == pytest.approx(rec["trace"], rel=1e-9)
    values, second = np.array(rec["values"]), np.array(rec["second_derivs"])
    np.testing.assert_allclose(sp.values, values, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(values)))
    np.testing.assert_allclose(sp.second_derivs, second, rtol=0.0,
                               atol=1e-11 * np.max(np.abs(second)))


@st.composite
def _datasets(draw):
    n = draw(st.integers(4, 30))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    sigma = 10.0 ** np.array(
        draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    return x, y, sigma


@settings(max_examples=100, deadline=None)
@given(_datasets())
def test_influence_trace_in_range_and_falls_along_gcv_grid(data):
    x, y, sigma = data
    n = x.size
    # the grid fit_smoothing_spline searches
    r_mat, q = _bands(x)
    lam_ref = np.sum(sigma**-2.0) / np.trace(q @ np.linalg.solve(r_mat, q.T))
    traces = np.array([fit_smoothing_spline(x, y, sigma, lam=lam).influence_trace
                       for lam in lam_ref * np.logspace(-8.0, 8.0, 49)])
    assert np.all(traces >= 2.0)
    assert np.all(traces < n)
    assert np.all(np.diff(traces) <= 0.0)


@settings(max_examples=100, deadline=None)
@given(_datasets(), st.floats(-8.0, 8.0), st.integers(1, 5))
def test_stacked_fit_equals_row_by_row_fits(data, log_lam, rows):
    x, y, sigma = data
    stack = np.stack([np.roll(y, k) * (k + 1) for k in range(rows)])
    lam = 10.0**log_lam
    first = fit_smoothing_spline(x, stack[0], sigma, lam=lam)
    again = first.refit(stack[0])
    for got, want in ((again.values, first.values), (again.second_derivs, first.second_derivs),
                      (again.gcv, first.gcv)):
        assert np.array_equal(got, want)
    both = first.refit(stack)
    assert both.values.shape == both.second_derivs.shape == stack.shape
    assert np.shape(both.gcv) == (rows,)
    for row, values, second in zip(stack, both.values, both.second_derivs):
        one = fit_smoothing_spline(x, row, sigma, lam=lam)
        # a stack takes matrix-matrix products where one vector takes
        # matrix-vector ones, and BLAS rounds those two differently; data of
        # size |y| on the smallest gap bound f'' by about |y| / h^2
        scale = np.max(np.abs(row))
        np.testing.assert_allclose(values, one.values, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(second, one.second_derivs, rtol=0.0,
                                   atol=1e-12 * scale / np.min(np.diff(x)) ** 2)
