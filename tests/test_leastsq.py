"""Levenberg-Marquardt minimiser against scipy.optimize references."""

import numpy as np
import pytest
from scipy import optimize

from trapnoise import leastsq
from trapnoise.leastsq import FitFailure, fd_jacobian, levenberg_marquardt


def exponential_problem(seed=3):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 5.0, 40)
    true = np.array([2.5, 0.8, 0.3])
    y = true[0] * np.exp(-true[1] * x) + true[2]
    sigma = np.full_like(x, 0.02)
    y_noisy = y + sigma * rng.standard_normal(x.size)

    def model(theta, xx):
        return theta[0] * np.exp(-theta[1] * xx) + theta[2]

    def residual(theta):
        return (y_noisy - model(theta, x)) / sigma

    return x, y_noisy, sigma, model, residual


def test_linear_model_recovers_exactly():
    x = np.linspace(0.0, 1.0, 10)
    y = 3.0 * x - 1.0

    def residual(theta):
        return y - (theta[0] * x + theta[1])

    res = levenberg_marquardt(residual, np.array([0.0, 0.0]))
    np.testing.assert_allclose(res.params, [3.0, -1.0], rtol=1e-8)
    assert res.rss < 1e-16


def test_matches_scipy_least_squares():
    _, _, _, _, residual = exponential_problem()
    theta0 = np.array([1.0, 1.0, 0.0])
    mine = levenberg_marquardt(residual, theta0)
    ref = optimize.least_squares(residual, theta0, method="lm")
    np.testing.assert_allclose(mine.params, ref.x, rtol=1e-6)
    assert mine.rss == pytest.approx(2.0 * ref.cost, rel=1e-10)


def test_covariance_matches_curve_fit():
    x, y_noisy, sigma, model, residual = exponential_problem()
    theta0 = np.array([1.0, 1.0, 0.0])
    mine = levenberg_marquardt(residual, theta0)
    popt, pcov = optimize.curve_fit(
        lambda xx, a, b, c: model(np.array([a, b, c]), xx),
        x, y_noisy, p0=theta0, sigma=sigma,
    )
    np.testing.assert_allclose(mine.params, popt, rtol=1e-6)
    np.testing.assert_allclose(mine.covariance, pcov, rtol=1e-3)
    np.testing.assert_allclose(
        mine.errors(), np.sqrt(np.diag(pcov)), rtol=1e-3
    )


def test_chi2_red_definition():
    _, _, _, _, residual = exponential_problem()
    res = levenberg_marquardt(residual, np.array([1.0, 1.0, 0.0]))
    assert residual(res.params).size == 40
    # the covariance is inv(J^T J) scaled by chi2_red = rss / (40 - 3)
    jac = fd_jacobian(residual, res.params, residual(res.params))
    np.testing.assert_allclose(
        res.covariance, np.linalg.inv(jac.T @ jac) * (res.rss / 37.0), rtol=1e-12
    )


def test_analytic_jacobian_agrees_with_finite_differences():
    x = np.linspace(0.1, 4.0, 25)
    y = 1.7 * x**0.6

    def residual(theta):
        return y - theta[0] * x ** theta[1]

    def jacobian(theta):
        jac = np.empty((x.size, 2))
        jac[:, 0] = -(x ** theta[1])
        jac[:, 1] = -theta[0] * x ** theta[1] * np.log(x)
        return jac

    theta0 = np.array([1.0, 1.0])
    r0 = residual(theta0)
    np.testing.assert_allclose(
        jacobian(theta0), fd_jacobian(residual, theta0, r0), rtol=1e-5, atol=1e-7
    )
    with_jac = levenberg_marquardt(residual, theta0, jacobian=jacobian)
    without = levenberg_marquardt(residual, theta0)
    np.testing.assert_allclose(with_jac.params, without.params, rtol=1e-7)
    np.testing.assert_allclose(with_jac.params, [1.7, 0.6], rtol=1e-7)


def test_failure_carries_best_point(monkeypatch):
    _, _, _, _, residual = exponential_problem()
    monkeypatch.setattr(leastsq, "_MAX_ITER", 1)
    with pytest.raises(FitFailure) as exc_info:
        levenberg_marquardt(residual, np.array([1.0, 1.0, 0.0]))
    err = exc_info.value
    assert err.n_iter == 1
    assert np.isfinite(err.rss)
    assert err.params.shape == (3,)


def test_rss_improvement_alone_stops_a_converged_fit(monkeypatch):
    # with the step-size stop off, only the relative RSS improvement ends
    # the iterations; the fit converges in 7 of them
    _, _, _, _, residual = exponential_problem()
    monkeypatch.setattr(leastsq, "_STEP_TOL", 0.0)
    res = levenberg_marquardt(residual, np.array([1.0, 1.0, 0.0]))
    assert res.n_iter <= 10


def test_step_size_alone_stops_a_fit_whose_rss_keeps_falling():
    # r = theta has its zero at 0: each step takes theta to about lambda
    # times itself, so the RSS falls by nearly all of itself every iteration
    # and the RSS stop cannot fire; the step-size stop ends the fit at step
    # 7, under 1e-24.  Without it the RSS would underflow to 0 first
    trials = []

    def residual(theta):
        trials.append(theta[0])
        return theta.copy()

    res = levenberg_marquardt(residual, np.array([1.0]), lambda theta: np.eye(1))
    assert res.n_iter == 7 and len(trials) == 8
    step = trials[-2] - trials[-1]
    assert 0.0 < step <= 1e-24 and res.rss > 0.0
    assert all(abs(b) < 1e-3 * abs(a) for a, b in zip(trials, trials[1:]))


def test_forty_rejected_trials_end_the_fit_where_it_stands():
    # a kink at theta = 0 where the given slope of 1 is one-sided: every
    # trial, however damped, climbs the other side.  Each rejection raises
    # lambda tenfold from 1e-3, and after 40 of them the fit stops
    trials = []

    def residual(theta):
        trials.append(theta[0])
        return np.array([1.0 + 1e100 * abs(theta[0])])

    res = levenberg_marquardt(residual, np.array([0.0]), lambda theta: np.eye(1))
    assert res.n_iter == 1 and res.params.tolist() == [0.0] and res.rss == 1.0
    lams = 1e-3 * 10.0 ** np.arange(40)
    assert trials[1:] == pytest.approx(-1.0 / (1.0 + lams), rel=1e-12, abs=0.0)


def test_stalls_return_current_point_instead_of_raising():
    # |r| has a non-smooth minimum; LM stalls there and returns gracefully
    def residual(theta):
        return np.array([abs(theta[0] - 1.0) + 0.5])

    res = levenberg_marquardt(residual, np.array([0.0]))
    assert np.isfinite(res.rss)
    assert res.rss >= 0.25  # cannot go below the floor of 0.5^2
