"""Adaptive Gauss-Kronrod quadrature against scipy.integrate references."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from trapnoise.constants import DomainError
from trapnoise.quadrature import _CHUNK, QuadratureFailure, adaptive_gk

from quadrature_oracles import adaptive_gk_budget_only


def test_polynomial_is_exact():
    # K15 integrates degree <= 22 exactly; a cubic converges on one panel
    res = adaptive_gk(lambda x: 3.0 * x**2 + 1.0, 0.0, 2.0, rel_tol=1e-12)
    assert res.value == pytest.approx(10.0, rel=1e-14)
    assert res.panels == 1


def test_smooth_integrand_matches_scipy():
    def f(x):
        return np.exp(-x) * np.sin(5.0 * x)

    res = adaptive_gk(f, 0.0, 10.0, rel_tol=1e-10)
    ref, _ = integrate.quad(lambda x: float(f(np.array([x]))[0]), 0.0, 10.0,
                            epsabs=1e-14, epsrel=1e-14)
    assert res.value == pytest.approx(ref, rel=1e-10)
    assert res.error <= 1e-9 * abs(ref) + 1e-15


def test_peaked_integrand_matches_scipy():
    # narrow Lorentzian away from panel edges forces adaptive refinement
    def f(x):
        return 1.0 / ((x - 0.3713) ** 2 + 1e-6)

    res = adaptive_gk(f, 0.0, 1.0, rel_tol=1e-9)
    ref, _ = integrate.quad(lambda x: float(f(np.array([x]))[0]), 0.0, 1.0,
                            points=[0.3713], epsabs=0.0, epsrel=1e-13)
    assert res.value == pytest.approx(ref, rel=1e-9)
    assert res.panels > 1


def test_oscillatory_decaying_integrand():
    # exp(-x) cos(40 x) over [0, 20] has the closed form 1/(1 + 40^2)
    def f(x):
        return np.exp(-x) * np.cos(40.0 * x)

    res = adaptive_gk(f, 0.0, 20.0, rel_tol=1e-10)
    exact = (1.0 - np.exp(-20.0) * (np.cos(800.0) - 40.0 * np.sin(800.0))) / 1601.0
    assert res.value == pytest.approx(exact, rel=1e-9)


def test_complex_integrand():
    res = adaptive_gk(lambda x: np.exp(1j * x), 0.0, np.pi, rel_tol=1e-12)
    assert res.value.real == pytest.approx(0.0, abs=1e-12)
    assert res.value.imag == pytest.approx(2.0, rel=1e-12)


def test_breakpoints_seed_panels():
    # integrand with scales spanning decades: sum of two exponentials
    def f(x):
        return np.exp(-x / 1e-3) + np.exp(-x / 10.0)

    exact = 1e-3 * (1 - np.exp(-1e5)) + 10.0 * (1 - np.exp(-10.0))
    res = adaptive_gk(f, 0.0, 100.0, rel_tol=1e-9,
                      breakpoints=np.geomspace(1e-4, 100.0, 25))
    assert res.value == pytest.approx(exact, rel=1e-9)


def test_abs_tol_floor_accepts_small_integrals():
    # integrable but tiny: relative tolerance alone would churn, abs_tol stops
    def f(x):
        return 1e-30 * np.sin(x)

    res = adaptive_gk(f, 0.0, np.pi, rel_tol=1e-16, abs_tol=1e-20)
    assert res.value == pytest.approx(2e-30, rel=1e-6)


def test_budget_exhaustion_raises_with_diagnostics():
    # |x - pi/8|^(-0.9) is integrable but the singularity defeats a tiny budget
    def f(x):
        return np.abs(x - np.pi / 8) ** -0.9

    with pytest.raises(QuadratureFailure) as exc_info:
        adaptive_gk(f, 0.0, 1.0, rel_tol=1e-12, max_evals=600)
    err = exc_info.value
    assert err.evaluations <= 600
    assert err.error > 0.0
    assert np.isfinite(err.value)


def _lorentzian(x):
    return 1.0 / ((x - 0.3713) ** 2 + 1e-6)


def _zero_mean_wave(x):
    return np.cos(2.0 * np.pi * 60.0 * x)


@pytest.mark.parametrize("f, n_initial", [(_lorentzian, 1), (_zero_mean_wave, 20)])
def test_failure_never_passes_the_budget(f, n_initial):
    # a round that cannot be paid for in full is not started; a tolerance
    # of 0 is never met, so every budget runs out
    breakpoints = np.linspace(0.0, 1.0, n_initial + 1)[1:-1]
    for max_evals in range(15 * n_initial, 6000, 7):
        with pytest.raises(QuadratureFailure) as exc_info:
            adaptive_gk(f, 0.0, 1.0, rel_tol=0.0, max_evals=max_evals,
                        breakpoints=breakpoints)
        assert exc_info.value.evaluations <= max_evals


def test_integrand_calls_stay_chunk_sized():
    # 2,000 panels of three whole periods each have one error, so the
    # second round splits all of them, and later rounds thousands more;
    # the integral of 0 never meets its relative tolerance
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.cos(2.0 * np.pi * 6000.0 * x)

    with pytest.raises(QuadratureFailure) as exc_info:
        adaptive_gk(f, 0.0, 1.0, rel_tol=1e-12, max_evals=300_000,
                    breakpoints=np.linspace(0.0, 1.0, 2001)[1:-1])
    assert max(sizes) == 15 * _CHUNK == 4080
    assert sum(sizes) == exc_info.value.evaluations
    assert exc_info.value.evaluations > 15 * (2000 + 4000)


_NON_FINITE_RUN = """
import sys
import numpy as np
from trapnoise.quadrature import QuadratureFailure, adaptive_gk
bad = float(sys.argv[1])
try:
    adaptive_gk(lambda x: np.where(x > 0.5, bad, 1.0), 0.0, 1.0)
except QuadratureFailure as exc:
    print(exc)
"""


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_integrand_fails_at_once(bad):
    # a child process with a timeout, so a loop that never ends fails the test
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _NON_FINITE_RUN, bad], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("non-finite error estimate over [0.0, 1.0]")


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_integrand_fails_without_a_warning(bad):
    # in process, with every warning an error: the infinite panel sums must
    # reach the non-finite failure, not warn while the error is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="^non-finite error estimate"):
            adaptive_gk(lambda x: np.where(x > 0.5, bad, 1.0), 0.0, 1.0)


def test_unreachable_tolerance_fails_before_the_budget_runs_out():
    # |x - pi/8|^(-0.9) at rel_tol 1e-12: the budget-only stop grinds on to
    # the last round it can pay for, though the panels it could never split
    # already hold more error than the tolerance
    def f(x):
        return np.abs(x - np.pi / 8) ** -0.9

    kwargs = dict(rel_tol=1e-12, max_evals=600)
    with pytest.raises(QuadratureFailure) as budget_only:
        adaptive_gk_budget_only(f, 0.0, 1.0, **kwargs)
    with pytest.raises(QuadratureFailure, match="tolerance out of reach") as exc_info:
        adaptive_gk(f, 0.0, 1.0, **kwargs)
    assert exc_info.value.evaluations < budget_only.value.evaluations


def test_early_stop_allows_for_the_error_of_a_near_zero_estimate():
    # the first round sees 0.41 of the Lorentzian's unit area, which the
    # floor of -0.4 cancels to |total| = 0.0066 with error 0.0068.  The 16
    # panels outside the 9 it can still split hold 8.5e-6 of the floor's
    # noise error: above rel_tol * |total|, below rel_tol * (|total| + error),
    # and within what the resolved integral, 0.597, lets converge
    x0, w = 0.05, 5e-4

    def f(x):
        return (w / np.pi) / ((x - x0) ** 2 + w * w) - 0.4 * (1.0 + 1e-3 * np.sin(1e9 * x))

    res = adaptive_gk(f, 0.0, 1.0, rel_tol=1e-3, max_evals=650,
                      breakpoints=np.linspace(0.0, 1.0, 26)[1:-1])
    exact = (np.arctan((1.0 - x0) / w) + np.arctan(x0 / w)) / np.pi - 0.4
    assert abs(res.value - exact) <= res.error <= 1e-3 * abs(res.value)


def _family(kind, c, s):
    """One integrand on [0, 1] of a family, with shape parameter s in [0, 1]."""
    if kind == "lorentzian":
        width = 10.0 ** (-6.0 + 5.0 * s)
        return lambda x: 1.0 / ((x - c) ** 2 + width**2)
    if kind == "power":
        def f(x):
            # a node on c gives inf, and both sides fail on it alike
            with np.errstate(divide="ignore"):
                return np.abs(x - c) ** -(0.05 + 0.9 * s)
        return f
    if kind == "oscillatory":
        omega = 10.0 ** (3.5 * s)
        return lambda x: np.exp(-x) * np.cos(omega * x + c)
    # rounding-level noise on a constant: K15 and G7 disagree at random
    amp = 10.0 ** (-16.0 + 8.0 * s)
    return lambda x: 1.0 + amp * np.sin(1e9 * x + c) + amp * np.cos(3.7e11 * x * x)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["lorentzian", "power", "oscillatory", "noise"]),
    c=st.floats(0.0, 1.0),
    s=st.floats(0.0, 1.0),
    log_rel_tol=st.floats(-14.0, -2.0),
    abs_tol=st.one_of(st.just(0.0), st.floats(1e-12, 1e-2)),
    max_evals=st.integers(15, 30_000),
    breakpoints=st.lists(st.floats(0.0, 1.0), max_size=20),
)
# the first panel halves to width 0.0, where the integrand is inf: the
# rule sums times that width must fail without a RuntimeWarning
@example(kind="power", c=0.0, s=0.0, log_rel_tol=-2.0, abs_tol=0.0,
         max_evals=15, breakpoints=[5e-324])
def test_early_failure_changes_no_outcome_of_the_budget_only_loop(
        kind, c, s, log_rel_tol, abs_tol, max_evals, breakpoints):
    # the early stop only fires when no later round could converge: the
    # budget-only loop converges exactly when this one does, to the same
    # bits, and a failure never costs more evaluations than it does there
    f = _family(kind, c, s)
    kwargs = dict(rel_tol=10.0**log_rel_tol, abs_tol=abs_tol,
                  max_evals=max_evals, breakpoints=breakpoints)
    try:
        want = adaptive_gk_budget_only(f, 0.0, 1.0, **kwargs)
    except QuadratureFailure as exc:
        with pytest.raises(QuadratureFailure) as exc_info:
            adaptive_gk(f, 0.0, 1.0, **kwargs)
        assert exc_info.value.evaluations <= exc.evaluations
        return
    got = adaptive_gk(f, 0.0, 1.0, **kwargs)
    assert float(got.value).hex() == float(want.value).hex()
    assert got.error.hex() == want.error.hex()
    assert (got.evaluations, got.panels) == (want.evaluations, want.panels)


def test_budget_exhaustion_carries_an_honest_best_effort():
    def f(x):
        return np.abs(x - np.pi / 8) ** -0.9

    with pytest.raises(QuadratureFailure) as exc_info:
        adaptive_gk(f, 0.0, 1.0, rel_tol=1e-12, max_evals=600)
    best = exc_info.value
    ref, _ = integrate.quad(lambda x: abs(x - np.pi / 8) ** -0.9, 0.0, 1.0,
                            points=[np.pi / 8])
    # crude but in the right ballpark, and the error bar is honest
    assert abs(best.value - ref) <= 10 * best.error


@pytest.mark.parametrize("a, b", [
    (1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0),
    (0.0, math.inf), (math.inf, math.inf), (-math.inf, -math.inf),
])
def test_rejects_empty_interval(a, b):
    def never(x):
        pytest.fail(f"integrand called on [{a}, {b}]")

    with pytest.raises(DomainError):
        adaptive_gk(never, a, b)
