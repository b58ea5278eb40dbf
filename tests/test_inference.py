"""Heating-rate inference: power laws, model selection, slopes, and TAF."""

import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trapnoise.configio import load_temp_params, packaged_config
from trapnoise.constants import (
    DomainError,
    heating_rate_from_noise,
    noise_from_heating_rate,
    omega_from_hz,
)
from trapnoise.inference import (
    MAX_BOOT,
    OMEGA0,
    SURFACE_MODELS,
    FitRangeWarning,
    HeatingDataset,
    HeatingRecord,
    IllConditionedWarning,
    SurfaceModelFit,
    TempFitParams,
    UnusableDataError,
    _median,
    chi2_sf,
    fit_freq_power_law,
    fit_surface_models,
    fit_temperature_models,
    information_criteria,
    loglog_spline_slope,
    model_gamma1,
    model_gamma2,
    plateau_width,
    synth_dataset,
    synth_surface,
    taf_alpha,
    taf_consistency_chi2,
)
from trapnoise.leastsq import FitFailure, levenberg_marquardt
from trapnoise.smoothing import fit_smoothing_spline

FREQS_HZ = (0.4e6, 0.6e6, 0.8e6, 1.0e6, 1.4e6, 1.8e6)
TEMPS = (15.0, 40.0, 60.0, 80.0, 90.0, 100.0, 120.0, 160.0, 200.0)

PIECEWISE = TempFitParams(
    gamma0={0.4e6: 3.76, 0.6e6: 1.92, 0.8e6: 1.18, 1.0e6: 0.70,
            1.4e6: 0.38, 1.8e6: 0.29},
    t1=46.2, beta1=3.39, t2=102.9, beta2=4.14, t_star=92.5,
)
SIMPLE = TempFitParams(
    gamma0={0.4e6: 2.18, 0.6e6: 1.04, 0.8e6: 0.62, 1.0e6: 0.41,
            1.4e6: 0.21, 1.8e6: 0.16},
    t1=22.1, beta1=1.69,
)


# ---------------------------------------------------------------------------
# records and datasets


def test_record_validation():
    HeatingRecord(40.0, 1e6, 0.0, 0.1)  # zero rate is fine
    with pytest.raises(DomainError):
        HeatingRecord(-1.0, 1e6, 1.0, 0.1)
    with pytest.raises(DomainError):
        HeatingRecord(40.0, 0.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        HeatingRecord(40.0, 1e6, -1.0, 0.1)
    with pytest.raises(DomainError):
        HeatingRecord(40.0, 1e6, 1.0, 0.0)
    with pytest.raises(DomainError):
        HeatingDataset(())


def _fit_numbers(fit) -> np.ndarray:
    """Every parameter, error and score of a temperature-model fit."""
    p, score = fit.params, fit.score
    shape = [v for v in (p.t1, p.beta1, p.t2, p.beta2, p.t_star) if v is not None]
    freqs = sorted(p.gamma0)
    return np.array([
        *freqs, *(p.gamma0[f] for f in freqs), *shape, *fit.fit.params,
        *(fit.global_errors[n] for n in sorted(fit.global_errors)),
        score.rss, score.aic, score.bic,
    ])


def test_temperature_fit_ignores_record_order():
    dataset = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ[:3], 0.1, seed=5)
    shuffled = np.random.default_rng(3).permutation(len(dataset.records))
    reordered = HeatingDataset(tuple(dataset.records[i] for i in shuffled))
    a = fit_temperature_models(dataset)
    b = fit_temperature_models(reordered)
    for fa, fb in ((a.simple, b.simple), (a.piecewise, b.piecewise)):
        assert np.array_equal(_fit_numbers(fa), _fit_numbers(fb))


_rates = st.floats(1e-6, 1e8)  # phonons/s


@settings(max_examples=200, deadline=None)
@given(
    f_hz=st.floats(1e3, 1e9),
    rows=st.lists(
        st.tuples(st.floats(0.1, 1e3), st.just(0.0) | _rates, _rates),
        min_size=1,
        max_size=12,
    ),
)
def test_noise_curve_round_trip(f_hz, rows):
    dataset = HeatingDataset(tuple(HeatingRecord(t, f_hz, g, s) for t, g, s in rows))
    f, curve = dataset.noise_curve("x")
    back = HeatingDataset.from_noise_curve(curve, f)
    assert f == f_hz
    for r, b in zip(dataset.records, back.records, strict=True):
        assert (b.temperature, b.f_secular) == (r.temperature, r.f_secular)
        assert abs(b.gamma - r.gamma) <= 8 * np.spacing(r.gamma)
        assert abs(b.sigma_gamma - r.sigma_gamma) <= 8 * np.spacing(r.sigma_gamma)


def test_frequency_curves_sort_temperatures_and_keep_record_order():
    records = (
        HeatingRecord(60.0, 2e6, 3.0, 0.3),
        HeatingRecord(20.0, 3e6, 1.0, 0.1),
        HeatingRecord(60.0, 1e6, 4.0, 0.4),
        HeatingRecord(20.0, 1e6, 2.0, 0.2),
        HeatingRecord(40.0, 5e5, 5.0, 0.5),
        HeatingRecord(20.0, 2e6, 6.0, 0.6),
    )
    curves = HeatingDataset(records).frequency_curves()
    assert list(curves) == [20.0, 40.0, 60.0]
    for temperature, points in curves.items():
        same_t = [r for r in records if r.temperature == temperature]
        assert points == [
            (omega_from_hz(r.f_secular), r.gamma, r.sigma_gamma) for r in same_t
        ]
    assert [p[1] for p in curves[20.0]] == [1.0, 2.0, 6.0]


# ---------------------------------------------------------------------------
# frequency power law


def test_freq_power_law_exact_round_trip():
    omegas = 2 * math.pi * np.array(FREQS_HZ)
    alpha_true, coeff_true = -1.2, 0.9
    points = [
        (w, coeff_true * (w / OMEGA0) ** (alpha_true - 1.0), 0.01)
        for w in omegas
    ]
    fit = fit_freq_power_law(points)
    assert fit.alpha == pytest.approx(alpha_true, abs=1e-8)
    assert fit.gamma_coeff == pytest.approx(coeff_true, rel=1e-8)
    # evaluation reproduces the inputs
    assert fit(omegas[2]) == pytest.approx(points[2][1], rel=1e-8)


def test_freq_power_law_recovery_with_noise():
    rng = np.random.default_rng(5)
    omegas = 2 * math.pi * np.array(FREQS_HZ)
    truth = 0.7 * (omegas / OMEGA0) ** (-1.1 - 1.0)
    sigma = 0.05 * truth
    points = [
        (w, g + s * rng.standard_normal(), s)
        for w, g, s in zip(omegas, truth, sigma)
    ]
    fit = fit_freq_power_law(points)
    err_g, err_a = fit.errors()
    assert abs(fit.alpha - (-1.1)) < 3 * err_a
    assert abs(fit.gamma_coeff - 0.7) < 3 * err_g
    assert err_a < 0.2


def test_freq_power_law_validation():
    good = [(OMEGA0, 1.0, 0.1), (2 * OMEGA0, 0.5, 0.1), (3 * OMEGA0, 0.3, 0.1)]
    fit_freq_power_law(good)
    with pytest.raises(DomainError):
        fit_freq_power_law(good[:2])
    with pytest.raises(DomainError):
        fit_freq_power_law(good[:2] + [good[0]])  # duplicate frequency
    with pytest.raises(DomainError):
        fit_freq_power_law(good[:2] + [(4 * OMEGA0, -1.0, 0.1)])


@pytest.mark.parametrize(
    "column, value, message",
    [(0, math.nan, "omega must be finite, got nan"),
     (0, math.inf, "omega must be finite, got inf"),
     (0, -1e6, "omega must be > 0, got -1000000.0"),
     (1, math.nan, "gamma must be finite, got nan"),
     (2, math.nan, "sigma must be finite, got nan"),
     (2, math.inf, "sigma must be finite, got inf")],
    ids=["nan-omega", "inf-omega", "negative-omega", "nan-gamma", "nan-sigma", "inf-sigma"],
)
def test_freq_power_law_rejects_an_unusable_point(column, value, message, capfd):
    points = [[w, 0.9 * (w / OMEGA0) ** -2.2, 0.01] for w in 2 * math.pi * np.array(FREQS_HZ)]
    points[3][column] = value
    with pytest.raises(UnusableDataError, match=f"^power-law fit: {re.escape(message)} in point "):
        fit_freq_power_law(points)
    # a bad omega once reached LAPACK, which printed to stderr before failing
    assert capfd.readouterr().err == ""


def _reversed_then_sorted(points):
    return list(reversed(points)), sorted(points)


def test_analyses_read_their_points_sorted_by_x():
    # a reversed point list gives the bits of the sorted one
    omegas = 2 * math.pi * np.array(FREQS_HZ)
    rng = np.random.default_rng(11)
    freq = [(w, 0.9 * (w / OMEGA0) ** -2.2 * (1 + 0.05 * rng.standard_normal()), 0.05)
            for w in omegas]
    fits = [fit_freq_power_law(pts) for pts in _reversed_then_sorted(freq)]
    assert (fits[0].gamma_coeff, fits[0].alpha) == (fits[1].gamma_coeff, fits[1].alpha)
    curve = synth_surface("power", POWER_PARAMS, SURF_TEMPS, 0.05, seed=2)
    surfaces = [fit_surface_models(pts) for pts in _reversed_then_sorted(curve)]
    assert surfaces[0] == surfaces[1]
    t = np.array([20.0, 100.0, 250.0])
    slopes = [loglog_spline_slope(pts, n_boot=20, seed=5) for pts in _reversed_then_sorted(curve)]
    assert np.array_equal(slopes[0](t), slopes[1](t))
    assert np.array_equal(slopes[0].band(t), slopes[1].band(t))


# ---------------------------------------------------------------------------
# temperature models


def test_model_gamma1_values():
    assert model_gamma1(0.0, 2.0, 50.0, 3.0) == pytest.approx(2.0)
    assert model_gamma1(50.0, 2.0, 50.0, 3.0) == pytest.approx(4.0)
    assert model_gamma1(100.0, 2.0, 50.0, 3.0) == pytest.approx(2.0 * 9.0)


def test_model_gamma2_continuous_at_transition():
    args = (0.7, 46.2, 3.39, 102.9, 4.14, 92.5)
    below = model_gamma2(92.5 - 1e-9, *args)
    at = model_gamma2(92.5, *args)
    above = model_gamma2(92.5 + 1e-9, *args)
    assert at == pytest.approx(below, rel=1e-9)
    assert at == pytest.approx(above, rel=1e-9)


def test_model_gamma2_equals_gamma1_below_transition():
    t = np.array([10.0, 50.0, 90.0])
    np.testing.assert_allclose(
        model_gamma2(t, 0.7, 46.2, 3.39, 102.9, 4.14, 92.5),
        model_gamma1(t, 0.7, 46.2, 3.39),
        rtol=1e-14,
    )
    # above the transition the second activation (larger onset T2) is
    # flatter at first than the continued first power law: a plateau
    assert model_gamma2(150.0, 0.7, 46.2, 3.39, 102.9, 4.14, 92.5) < model_gamma1(
        150.0, 0.7, 46.2, 3.39
    )


def test_temp_params_callable_dispatch():
    t = np.array([30.0, 120.0])
    np.testing.assert_allclose(
        SIMPLE(t, 1.0e6), model_gamma1(t, 0.41, 22.1, 1.69), rtol=1e-14
    )
    np.testing.assert_allclose(
        PIECEWISE(t, 1.0e6),
        model_gamma2(t, 0.70, 46.2, 3.39, 102.9, 4.14, 92.5),
        rtol=1e-14,
    )
    assert SIMPLE.piecewise is False
    assert PIECEWISE.piecewise is True


def test_a_frequency_without_gamma0_is_a_domain_error():
    params = TempFitParams({1e6: 1.0}, 20.0, 1.0)
    message = r"^no gamma0 at 2000000.0 Hz, only at \[1000000.0\]$"
    with pytest.raises(DomainError, match=message):
        params(20.0, 2e6)
    with pytest.raises(DomainError, match=message):
        synth_dataset("gamma1", params, [20.0], [1e6, 2e6], 0.1, seed=1)


def test_information_criteria_identity():
    rss, n, m = 136.0, 54, 8
    score = information_criteria(rss, n, m)
    assert score.aic == pytest.approx(n * math.log(rss / n) + 2 * m, rel=1e-14)
    assert score.bic == pytest.approx(
        n * math.log(rss / n) + m * math.log(n), rel=1e-14
    )
    assert score.bic > score.aic  # ln 54 > 2


def test_information_criteria_edge_cases():
    perfect = information_criteria(0.0, 10, 3)
    assert perfect.perfect is True
    assert perfect.aic == float("-inf")
    with pytest.raises(DomainError):
        information_criteria(1.0, 5, 5)
    with pytest.raises(DomainError):
        information_criteria(-1.0, 10, 3)


def test_chi2_sf_matches_mpmath_reference():
    # records from tests/record_chi2_sf_reference.py (mpmath, 50 digits)
    path = Path(__file__).parent / "data" / "chi2_sf.json"
    bad = []
    for dof, x, want in json.loads(path.read_text())["records"]:
        got = chi2_sf(x, dof)
        if want < 1e-300:
            ok = 0.0 <= got < 1e-290
        else:
            # above x = 1e3 the sum is scaled in log space, whose rounding
            # grows with the number of terms
            tol = 1e-13 if x <= 1e3 else 5e-13 if dof <= 300 else 2e-12
            ok = abs(got - want) <= tol * want
        if not ok:
            bad.append((dof, x, got, want))
    assert not bad, bad[:10]


def test_chi2_sf_edge_cases():
    for dof in (1, 2, 7, 300):
        assert chi2_sf(0.0, dof) == 1.0
        assert chi2_sf(-3.0, dof) == 1.0
        assert chi2_sf(math.inf, dof) == 0.0
    assert chi2_sf(2.0, 2.0) == chi2_sf(2.0, np.int64(2)) == math.exp(-1.0)
    # true values just below 1, where the log-space scale rounds above it
    for x, dof in ((3000.0, 100000), (37705.08474576272, 84000),
                   (42925.00847457627, 99999)):
        assert 0.99 < chi2_sf(x, dof) <= 1.0
    for dof in (0, -2, 1.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="dof"):
            chi2_sf(1.0, dof)


def test_simple_data_prefers_simple_model():
    dataset = synth_dataset("gamma1", SIMPLE, TEMPS, FREQS_HZ, 0.05, seed=11)
    cmp = fit_temperature_models(dataset)
    assert cmp.delta_aic > 0.0  # extra parameters not worth it
    truth = {"t1": 22.1, "beta1": 1.69}
    for name, value in truth.items():
        fitted = getattr(cmp.simple.params, name)
        err = cmp.simple.global_errors[name]
        assert abs(fitted - value) <= 2.5 * err


def test_piecewise_data_prefers_piecewise_model():
    dataset = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ, 0.1, seed=42)
    cmp = fit_temperature_models(dataset)
    assert cmp.delta_aic < 0.0
    truth = {"t1": 46.2, "beta1": 3.39, "t2": 102.9, "beta2": 4.14,
             "t_star": 92.5}
    for name, value in truth.items():
        fitted = getattr(cmp.piecewise.params, name)
        err = cmp.piecewise.global_errors[name]
        assert abs(fitted - value) <= 2.0 * err, (name, fitted, value, err)
    # per-frequency amplitudes come out near truth as well
    for f, g0 in PIECEWISE.gamma0.items():
        assert cmp.piecewise.params.gamma0[f] == pytest.approx(g0, rel=0.25)


def test_piecewise_fit_lets_unexpected_errors_propagate(monkeypatch):
    calls = []

    def simple_fit_only(residual, theta0, **kwargs):
        calls.append(theta0)
        if len(calls) > 1:  # the first call is the simple-model fit
            raise ValueError("injected")
        return levenberg_marquardt(residual, theta0, **kwargs)

    monkeypatch.setattr(
        "trapnoise.inference.levenberg_marquardt", simple_fit_only
    )
    dataset = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ, 0.1, seed=42)
    with pytest.raises(ValueError, match="injected"):
        fit_temperature_models(dataset)


def _failing_starts(failing, error, monkeypatch):
    """Fit the seeded piecewise set with the ``levenberg_marquardt`` calls
    numbered in ``failing`` (0 is the simple model's lone start) raising
    ``error``; returns the comparison and every fit that did return."""
    results = []

    def faulty(residual, theta0, **kwargs):
        results.append(None)
        if len(results) - 1 in failing:
            raise error
        results[-1] = levenberg_marquardt(residual, theta0, **kwargs)
        return results[-1]

    monkeypatch.setattr("trapnoise.inference.levenberg_marquardt", faulty)
    dataset = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ, 0.1, seed=42)
    return fit_temperature_models(dataset), results


@pytest.mark.parametrize(
    "error",
    [FitFailure("injected", None, math.inf, 0), np.linalg.LinAlgError("injected")],
    ids=["fit-failure", "singular"],
)
def test_piecewise_fit_skips_a_failing_start(error, monkeypatch):
    cmp, results = _failing_starts({3}, error, monkeypatch)
    assert len(results) == 9 and results[3] is None  # the simple fit, then 8 starts
    fits = [r for r in results[1:] if r is not None]
    assert cmp.piecewise.fit is min(fits, key=lambda r: r.rss)


def test_piecewise_fit_failing_from_every_start_fails(monkeypatch):
    with pytest.raises(FitFailure, match="failed from all starts"):
        _failing_starts(set(range(1, 9)), FitFailure("injected", None, 1.0, 0),
                        monkeypatch)


def test_piecewise_fit_warns_when_t_star_leaves_the_data_range():
    # simple-model data on an uneven grid: the piecewise optimum puts T* past 290 K
    temps = [24.5, 24.7, 71.6, 76.3, 81.4, 106.6, 131.9, 170.9, 253.2, 267.0, 290.0]
    params = load_temp_params(packaged_config("synth", "temp-simple"))
    data = synth_dataset("gamma1", params, temps, [4e5], 0.5, 12)
    message = r"^T\* = 349\.1 K lies outside the data range \[24\.5, 290\.0\] K$"
    with pytest.warns(FitRangeWarning, match=message):
        comparison = fit_temperature_models(data)
    assert comparison.piecewise.params.t_star > max(temps)


def test_simple_fit_failure_propagates(monkeypatch):
    injected = FitFailure("injected", None, 1.0, 0)
    with pytest.raises(FitFailure) as raised:
        _failing_starts({0}, injected, monkeypatch)
    assert raised.value is injected


def _zeroed_synth_records():
    ds = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ, 0.1, seed=1)
    return (replace(ds.records[0], gamma=0.0), *ds.records[1:])


_ZERO_FIRST_RATE = (
    (10.0, 0.0), (20.0, 8.542), (50.0, 2.605), (60.0, 18.31), (70.0, 7.433),
    (110.0, 44.90), (130.0, 38.06), (190.0, 42.59), (220.0, 70.05),
    (250.0, 22.59), (270.0, 43.39),
)


@pytest.mark.parametrize(
    "records",
    [
        _zeroed_synth_records(),
        tuple(HeatingRecord(t, 1e6, g, 0.1 + 0.1 * g) for t, g in _ZERO_FIRST_RATE),
    ],
    ids=["six-frequencies", "one-frequency"],
)
def test_temperature_fit_on_a_zero_rate_is_quiet(records):
    # trial steps overflow exp() on such data; they must be rejected silently,
    # neither warned about nor raised as OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cmp = fit_temperature_models(HeatingDataset(records))
    for fit in (cmp.simple, cmp.piecewise):
        p = fit.params
        shape = [p.t1, p.beta1, p.t2, p.beta2, p.t_star]
        assert np.all(np.isfinite([v for v in shape if v is not None]))


def _one_frequency_set_with_zero_rates(seed, sigma_from_rate):
    """7-11 gamma2 rates at 1 MHz between 10 and 290 K, one or two set to 0;
    sigma is the model's (as synth_dataset draws it) or the noisy rate's,
    floored at 0.1 (as a lab file might quote it)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(7, 12))
    temps = np.sort(rng.choice(np.arange(10.0, 291.0, 10.0), n, replace=False))
    params = replace(PIECEWISE, gamma0={1e6: PIECEWISE.gamma0[1e6]})
    records = list(synth_dataset("gamma2", params, temps, [1e6], 0.3, seed).records)
    for i in rng.choice(n, int(rng.integers(1, 3)), replace=False):
        records[i] = replace(records[i], gamma=0.0)
    if sigma_from_rate:
        records = [replace(r, sigma_gamma=max(0.1 * r.gamma, 0.1)) for r in records]
    return HeatingDataset(tuple(records))


@pytest.mark.parametrize(
    "sigma_from_rate", [False, True], ids=["model-sigma", "rate-sigma"]
)
@pytest.mark.parametrize("seed", range(12))
def test_temperature_fit_with_zero_rates_is_finite_or_fails(seed, sigma_from_rate):
    dataset = _one_frequency_set_with_zero_rates(seed, sigma_from_rate)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            cmp = fit_temperature_models(dataset)
        except FitFailure:
            return
    # a Gamma0 start near 0 leaves no downhill step: the fit stops after one
    # iteration at its start
    assert cmp.simple.fit.n_iter > 1
    for fit in (cmp.simple, cmp.piecewise):
        p = fit.params
        logged = [v for v in (p.t1, p.beta1, p.t2, p.beta2) if v is not None]
        values = [*p.gamma0.values(), *logged, p.t_star]
        values += [fit.fit.rss, *fit.global_errors.values()]
        assert np.all(np.isfinite([v for v in values if v is not None]))
        assert all(v > 0.0 for v in logged)


def test_temperature_fit_needs_a_positive_rate_per_frequency():
    records = [HeatingRecord(t, 1e6, 1.0 + t / 50.0, 0.1) for t in TEMPS]
    records += [HeatingRecord(t, 2e6, 0.0, 0.1) for t in TEMPS]
    with pytest.raises(UnusableDataError, match="no positive heating rate at 2e"):
        fit_temperature_models(HeatingDataset(tuple(records)))


def test_fit_requires_enough_distinct_temperatures():
    recs = tuple(
        HeatingRecord(t, 1e6, 1.0 + t / 100.0, 0.1) for t in (20.0, 40.0, 60.0)
    )
    with pytest.raises(DomainError):
        fit_temperature_models(HeatingDataset(recs))


# at the minimum of 4 distinct temperatures, with enough records, and one below it
def test_temperature_fit_runs_at_four_distinct_temperatures():
    params = replace(PIECEWISE, gamma0={0.4e6: 3.76, 0.6e6: 1.92})
    temps = (20.0, 60.0, 100.0, 140.0)
    fits = fit_temperature_models(synth_dataset("gamma2", params, temps, FREQS_HZ[:2], 0.05, 1))
    for fit in (fits.simple, fits.piecewise):
        assert np.all(np.isfinite(_fit_numbers(fit)))
    short = synth_dataset("gamma2", params, temps[:3], FREQS_HZ[:2], 0.05, 1)
    with pytest.raises(UnusableDataError, match="^need at least 4 distinct temperatures$"):
        fit_temperature_models(short)


def test_plateau_width_hand_value():
    assert plateau_width(PIECEWISE, 0.1) == pytest.approx(
        102.9 * 0.1 ** (1.0 / 4.14), rel=1e-12
    )
    # tighter tolerance means a narrower plateau
    assert plateau_width(PIECEWISE, 0.01) < plateau_width(PIECEWISE, 0.1)
    with pytest.raises(DomainError):
        plateau_width(SIMPLE, 0.1)
    with pytest.raises(DomainError):
        plateau_width(PIECEWISE, 0.0)


# ---------------------------------------------------------------------------
# surface-noise models


POWER_PARAMS = {"s_e0": 3.7e-15, "beta": 1.9, "t0": 32.0}
ARRH_PARAMS = {"s_e0": 4.7e-15, "s_et": 2.1e-13, "t0": 169.0}
SURF_TEMPS = tuple(np.linspace(8.0, 295.0, 18))


def test_surface_power_round_trip():
    curve = synth_surface("power", POWER_PARAMS, SURF_TEMPS, 0.05, seed=4)
    fits = fit_surface_models(curve)
    power = fits.power
    assert power.p_value > 1e-3  # the generating model is acceptable
    for name, value in POWER_PARAMS.items():
        assert abs(power.params[name] - value) <= 3 * power.errors[name]
    # evaluation matches the parameter dictionary
    assert power(50.0) == pytest.approx(
        power.params["s_e0"]
        * (1.0 + 50.0 / power.params["t0"]) ** power.params["beta"],
        rel=1e-12,
    )


def test_surface_arrhenius_round_trip():
    curve = synth_surface("arrhenius", ARRH_PARAMS, SURF_TEMPS, 0.05, seed=4)
    fits = fit_surface_models(curve)
    arrh = fits.arrhenius
    assert arrh.p_value > 1e-3
    for name, value in ARRH_PARAMS.items():
        assert abs(arrh.params[name] - value) <= 3 * arrh.errors[name]


def test_surface_wrong_model_is_rejected():
    # clean power-law data with small errors is a terrible Arrhenius fit
    curve = synth_surface("power", POWER_PARAMS, SURF_TEMPS, 0.02, seed=8)
    fits = fit_surface_models(curve)
    assert fits.arrhenius.p_value < 1e-6
    assert fits.power.p_value > fits.arrhenius.p_value


@pytest.mark.parametrize("kind, params, name", [
    ("power", {"s_e0": 1e-15, "t0": 20.0}, "beta"),
    ("arrhenius", {"s_e0": 1e-15, "t0": 20.0}, "s_et"),
])
def test_a_missing_surface_parameter_is_a_domain_error(kind, params, name):
    with pytest.raises(DomainError, match=f"^missing parameter {name} "):
        synth_surface(kind, params, [20.0], 0.1, seed=1)


def test_surface_fit_validation():
    short = synth_surface("power", POWER_PARAMS, SURF_TEMPS[:4], 0.05, seed=1)
    with pytest.raises(DomainError):
        fit_surface_models(short)


@pytest.mark.parametrize("temps", [(50.0,) * 6, (50.0,) * 3 + (80.0,) * 3],
                         ids=["one", "two"])
def test_surface_fit_needs_three_distinct_temperatures(temps):
    curve = [(t, 1e-14 * (1.0 + 0.1 * i), 1e-15) for i, t in enumerate(temps)]
    with pytest.raises(UnusableDataError, match="at least 3 distinct temperatures"):
        fit_surface_models(curve)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["power", "arrhenius"])
def test_surface_fit_runs_on_five_points_at_three_distinct_temperatures(kind, seed):
    params = POWER_PARAMS if kind == "power" else ARRH_PARAMS
    curve = synth_surface(kind, params, (20.0, 20.0, 60.0, 60.0, 100.0), 0.05, seed)
    fits = fit_surface_models(curve)
    for fit in (fits.power, fits.arrhenius):
        assert np.all(np.isfinite([*fit.params.values(), *fit.errors.values(), fit.chi2]))


def test_spline_slope_runs_at_four_distinct_temperatures():
    curve = synth_surface("power", POWER_PARAMS, (20.0, 40.0, 60.0, 100.0), 0.05, seed=1)
    t = np.array([20.0, 50.0, 100.0])
    slope = loglog_spline_slope(curve, n_boot=10)
    assert np.all(np.isfinite([slope(t), *slope.band(t)]))
    with pytest.raises(UnusableDataError, match="at least 4 distinct temperatures, got 3"):
        loglog_spline_slope(curve[:3], n_boot=10)


@pytest.mark.parametrize(
    "row, column, value, message",
    [(0, 1, math.inf, "S_E must be finite, got inf"),
     (7, 1, math.nan, "S_E must be finite, got nan"),
     (0, 0, 0.0, "T must be > 0, got 0.0"),
     (0, 0, -5.0, "T must be > 0, got -5.0"),
     (-1, 0, math.inf, "T must be finite, got inf"),
     (7, 2, math.nan, "sigma must be finite, got nan"),
     (7, 2, math.inf, "sigma must be finite, got inf")],
    ids=["inf-s_e-at-lowest-t", "nan-s_e", "zero-t", "negative-t", "inf-t", "nan-sigma",
         "inf-sigma"],
)
def test_surface_fit_rejects_an_unusable_point(row, column, value, message):
    curve = [list(p) for p in synth_surface("power", POWER_PARAMS, SURF_TEMPS, 0.05, seed=1)]
    curve[row][column] = value
    with pytest.raises(UnusableDataError, match=f"^surface-model fit: {message} in point "):
        fit_surface_models(curve)


@pytest.mark.parametrize(
    "row, column, value, message",
    [(5, 1, math.nan, "S_E must be finite, got nan"),
     (-1, 0, math.inf, "T must be finite, got inf"),
     (5, 2, 0.0, "sigma must be > 0, got 0.0"),
     (5, 2, -1e-17, "sigma must be > 0, got -1e-17"),
     (5, 2, math.nan, "sigma must be finite, got nan")],
    ids=["nan-s_e", "inf-t", "zero-sigma", "negative-sigma", "nan-sigma"],
)
def test_spline_slope_rejects_an_unusable_point(row, column, value, message):
    curve = [[t, 2e-15 * t**2.5, 1e-17 * t**2.5] for t in np.geomspace(10.0, 250.0, 15)]
    curve[row][column] = value
    with pytest.raises(UnusableDataError, match=f"^log-log slope: {message} in point "):
        loglog_spline_slope(curve, n_boot=10)


def test_spline_slope_rejects_a_relative_error_out_of_range():
    # each value passes the point check; sigma / S_E underflows to 0
    curve = [[t, 2e-15 * t**2.5, 1e-17 * t**2.5] for t in np.geomspace(10.0, 250.0, 15)]
    curve[5][1:] = [1e300, 1e-300]
    with pytest.raises(UnusableDataError, match="sigma must be finite and > 0 relative to S_E"):
        loglog_spline_slope(curve, n_boot=10)


@pytest.mark.parametrize("n_boot", [MAX_BOOT + 1, 10**15, -1])
def test_spline_slope_refuses_a_bootstrap_count_out_of_bound(n_boot):
    # checked before any point or draw: 10**15 resamples would ask for 64 PiB
    curve = [[t, 2e-15 * t**2.5, 1e-17 * t**2.5] for t in np.geomspace(10.0, 250.0, 9)]
    with pytest.raises(DomainError, match=f"^n_boot must be 0 to {MAX_BOOT}, got {n_boot}$"):
        loglog_spline_slope(curve, n_boot=n_boot)


# the fit starts take the median of the temperatures; signed zeros and the
# smallest subnormals check the sum numpy's mean makes
_MEDIAN_VALUES = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])


@pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_median_matches_numpy_bit_for_bit(parity, data):
    size = 2 * data.draw(st.integers(1, 20)) - parity
    values = np.array(data.draw(st.lists(_MEDIAN_VALUES, min_size=size, max_size=size)))
    assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()


# ---------------------------------------------------------------------------
# fit errors in natural units


# which fit coordinates are logarithms: ln gamma; ln Gamma0 per frequency and
# all temperature-shape parameters but T*; ln s_e0 and ln t0 (power), every
# Arrhenius parameter
_LOGGED = {
    "freq": (True, False),
    "simple": (True,) * 6 + (True, True),
    "piecewise": (True,) * 6 + (True, True, True, True, False),
    "power": (True, False, True),
    "arrhenius": (True, True, True),
}


def _seeded_fit(kind, monkeypatch):
    """The reported errors of a seeded fit of ``kind``, the fit's
    :class:`FitResult` and the index of the first reported coordinate."""
    if kind == "freq":
        ds = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ, 0.1, seed=5)
        fit = fit_freq_power_law([(2 * math.pi * r.f_secular, r.gamma, r.sigma_gamma)
                                  for r in ds.records if r.temperature == 60.0])
        return list(fit.errors()), fit.fit, 0
    if kind in ("simple", "piecewise"):
        ds = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ, 0.1, seed=42)
        fit = getattr(fit_temperature_models(ds), kind)
        # Gamma0 errors are not reported
        return list(fit.global_errors.values()), fit.fit, len(FREQS_HZ)
    results = []  # fit_surface_models fits power, then arrhenius

    def recording(residual, theta0, **kwargs):
        results.append(levenberg_marquardt(residual, theta0, **kwargs))
        return results[-1]

    monkeypatch.setattr("trapnoise.inference.levenberg_marquardt", recording)
    params = POWER_PARAMS if kind == "power" else ARRH_PARAMS
    fits = fit_surface_models(synth_surface(kind, params, SURF_TEMPS, 0.05, seed=4))
    res = results[("power", "arrhenius").index(kind)]
    return list(getattr(fits, kind).errors.values()), res, 0


@pytest.mark.parametrize("kind", sorted(_LOGGED))
def test_fit_errors_match_the_delta_method(kind, monkeypatch):
    errors, res, first = _seeded_fit(kind, monkeypatch)
    # J of the natural map: exp(theta) for a logarithm, 1 otherwise
    jac = np.diag([math.exp(v) if log else 1.0
                   for v, log in zip(res.params, _LOGGED[kind])])
    oracle = np.sqrt(np.diag(jac @ res.covariance @ jac.T))
    np.testing.assert_allclose(errors, oracle[first:], rtol=1e-15, atol=0.0)


def _fit_of(kind):
    if kind == "freq":
        omegas = 2 * math.pi * np.array(FREQS_HZ)
        return fit_freq_power_law([(w, 0.7 * (w / OMEGA0) ** -2.1, 0.05) for w in omegas])
    if kind == "temp":
        return fit_temperature_models(
            synth_dataset("gamma1", SIMPLE, TEMPS, FREQS_HZ[:1], 0.05, seed=1)
        )
    return fit_surface_models(synth_surface("power", POWER_PARAMS, SURF_TEMPS, 0.05, seed=1))


@pytest.mark.parametrize(
    "fault, message",
    [("nan-variance", "no finite error"), ("overflow", "overflowed"),
     ("underflow", "underflowed")],
)
@pytest.mark.parametrize("kind", ["freq", "temp", "surface"])
def test_fit_with_a_non_finite_value_or_error_fails(kind, fault, message, monkeypatch):
    # the first coordinate of every fit is a logarithm
    def corrupted(residual, theta0, **kwargs):
        res = levenberg_marquardt(residual, theta0, **kwargs)
        if fault == "nan-variance":
            res.covariance = res.covariance.copy()
            res.covariance[0, 0] = math.nan
        else:
            res.params = res.params.copy()
            res.params[0] = 800.0 if fault == "overflow" else -800.0
        return res

    monkeypatch.setattr("trapnoise.inference.levenberg_marquardt", corrupted)
    with pytest.raises(FitFailure, match=message):
        _fit_of(kind)


# ---------------------------------------------------------------------------
# spline slope and TAF


def test_spline_slope_on_pure_power_law():
    temps = np.geomspace(10.0, 250.0, 15)
    curve = [(t, 2e-15 * t**2.5, 1e-17 * t**2.5) for t in temps]
    slope = loglog_spline_slope(curve, n_boot=50, seed=3)
    for t in (20.0, 80.0, 200.0):
        assert float(slope(t)) == pytest.approx(2.5, abs=1e-3)
    lo, hi = slope.band(80.0)
    assert lo <= 2.5 <= hi or abs(float(slope(80.0)) - 2.5) < 1e-3


def test_spline_slope_tracks_model_curvature():
    # slope of the piecewise model at 80 K (below T*) has the closed form
    # beta1 * r / (1 + r) with r = (T/T1)^beta1
    temps = np.geomspace(15.0, 200.0, 25)
    gamma = model_gamma2(temps, 0.7, 46.2, 3.39, 102.9, 4.14, 92.5)
    curve = [(t, g, 0.01 * g) for t, g in zip(temps, gamma)]
    slope = loglog_spline_slope(curve, n_boot=0, seed=1)
    r = (80.0 / 46.2) ** 3.39
    expected = 3.39 * r / (1.0 + r)
    assert float(slope(80.0)) == pytest.approx(expected, abs=0.1)


def test_slope_band_is_percentiles_of_one_draw_per_refit():
    # the stacked refits see the resamples a loop of one draw of size n each sees
    temps = np.geomspace(12.0, 220.0, 11)
    s_e = 3e-15 * temps**1.4 * np.exp(np.random.default_rng(8).normal(0.0, 0.05, 11))
    curve = [(t, s, 0.05 * s) for t, s in zip(temps, s_e)]
    slope = loglog_spline_slope(curve, n_boot=60, seed=17)
    x, y, sig_y = np.log(temps), np.log(s_e), np.array([sg / s for _, s, sg in curve])
    fitted = slope.spline(x)
    resid = y - fitted
    rng = np.random.default_rng(17)
    t_q = np.array([12.0, 30.0, 75.0, 150.0, 220.0])
    loop = np.array([
        fit_smoothing_spline(x, fitted + rng.choice(resid, size=x.size), sig_y,
                             lam=slope.spline.lam).derivative(np.log(t_q))
        for _ in range(60)
    ])
    lo, hi = slope.band(t_q)
    np.testing.assert_allclose(lo, np.percentile(loop, 16.0, axis=0), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(hi, np.percentile(loop, 84.0, axis=0), rtol=1e-12, atol=0.0)
    assert np.all(hi - lo > 1e-3)   # a real band, not the interpolating edge


def test_slope_factorizes_and_decomposes_once(monkeypatch):
    # the bootstrap refits reuse the GCV fit's Cholesky factor and SVD
    calls = {"cholesky": 0, "svd": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    temps = np.geomspace(12.0, 220.0, 11)
    curve = [(t, 3e-15 * t**1.4, 1.5e-16 * t**1.4) for t in temps]
    loglog_spline_slope(curve, n_boot=40, seed=2)
    assert calls == {"cholesky": 1, "svd": 1}


def test_taf_alpha_reference_values():
    # slope 1 cancels the frequency correction exactly, for any omega
    assert taf_alpha(1.0, OMEGA0) == -1.0
    assert taf_alpha(1.0, 17.0 * OMEGA0) == -1.0
    # slope 2 at 1 MHz with tau0 = 1e-13 s
    ln_wt = math.log(OMEGA0 * 1e-13)
    assert taf_alpha(2.0, OMEGA0, 1e-13) == pytest.approx(
        -(1.0 - 1.0 / ln_wt), rel=1e-12
    )
    assert taf_alpha(2.0, OMEGA0, 1e-13) == pytest.approx(-1.070, abs=1e-3)
    # flat temperature dependence pushes the exponent above -1
    assert taf_alpha(0.0, OMEGA0, 1e-13) == pytest.approx(-0.930, abs=1e-3)


def test_taf_alpha_warns_near_unity_omega_tau():
    with pytest.warns(IllConditionedWarning):
        taf_alpha(2.0, 0.9e13, 1e-13)
    with pytest.raises(DomainError):
        taf_alpha(2.0, -1.0, 1e-13)


@pytest.mark.parametrize(
    "omega, tau0, message",
    [(1e300, 1e300, "must be finite, got inf"), (1e-300, 1e-300, "must be > 0, got 0.0")],
    ids=["overflow", "underflow"],
)
def test_taf_alpha_rejects_a_product_out_of_range(omega, tau0, message):
    # each factor is in range; omega * tau0 overflows to inf or underflows to 0
    with pytest.raises(DomainError, match=rf"^omega \* tau0 {message}$"):
        taf_alpha(2.0, omega, tau0)


def test_taf_consistency_hand_value():
    measured = [(50.0, -1.0, 0.1), (80.0, -1.1, 0.1)]
    chi2, p = taf_consistency_chi2(measured, lambda t: -1.05)
    assert chi2 == pytest.approx(0.5, rel=1e-12)
    assert p == pytest.approx(math.exp(-0.25), rel=1e-10)
    with pytest.raises(DomainError):
        taf_consistency_chi2(measured[:1], lambda t: -1.05)


@pytest.mark.parametrize(
    "column, value, message",
    [(2, math.nan, "sigma_alpha must be finite, got nan"),
     (1, math.nan, "alpha must be finite, got nan"),
     (0, math.inf, "T must be finite, got inf"),
     (0, 0.0, "T must be > 0, got 0.0"),
     (0, -5.0, "T must be > 0, got -5.0")],
    ids=["sigma-nan", "alpha-nan", "temperature-inf", "temperature-zero",
         "temperature-negative"],
)
def test_taf_consistency_rejects_an_unusable_point(column, value, message):
    measured = [[50.0, -1.0, 0.1], [80.0, -1.1, 0.1]]
    measured[0][column] = value
    with pytest.raises(UnusableDataError, match=f"^TAF consistency: {message} in point "):
        taf_consistency_chi2(measured, lambda t: -1.05)


def test_taf_consistency_rejects_a_chi2_that_overflows():
    # the residual 0.05 / 1e-200 is finite; its square is not
    measured = [(40.0, -1.0, 1e-200), (80.0, -1.1, 0.1)]
    with pytest.raises(DomainError, match="^chi\\^2 must be finite, got inf$") as exc:
        taf_consistency_chi2(measured, lambda t: -1.05)
    assert not isinstance(exc.value, UnusableDataError)


def test_plateau_width_rejects_a_width_that_overflows():
    # 10 ** (1 / 1e-3) overflows a float
    params = replace(PIECEWISE, beta2=1e-3)
    with pytest.raises(DomainError, match="^plateau width must be finite, got inf$"):
        plateau_width(params, 10.0)
    assert plateau_width(params, 0.1) == 0.0  # 0.1 ** 1000 underflows to a width of 0


# ---------------------------------------------------------------------------
# synthetic data generation


def test_synth_dataset_deterministic_and_ordered():
    a = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ, 0.1, seed=7)
    b = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ, 0.1, seed=7)
    assert a == b
    c = synth_dataset("gamma2", PIECEWISE, TEMPS, FREQS_HZ, 0.1, seed=8)
    assert a != c
    # records are frequency-major in the given order
    assert [r.f_secular for r in a.records[: len(TEMPS)]] == [0.4e6] * len(TEMPS)
    assert a.records[0].temperature == TEMPS[0]


def test_synth_dataset_zero_noise_reproduces_model():
    ds = synth_dataset("gamma1", SIMPLE, TEMPS, (1.0e6,), 0.0, seed=0)
    for rec in ds.records:
        assert rec.gamma == pytest.approx(
            float(model_gamma1(rec.temperature, 0.41, 22.1, 1.69)), rel=1e-12
        )
        assert rec.sigma_gamma > 0.0  # floored so records stay valid


def test_synth_dataset_validation():
    with pytest.raises(DomainError):
        synth_dataset("gamma3", SIMPLE, TEMPS, FREQS_HZ, 0.1, seed=0)
    with pytest.raises(DomainError):
        synth_dataset("gamma2", SIMPLE, TEMPS, FREQS_HZ, 0.1, seed=0)
    with pytest.raises(DomainError):
        synth_dataset("gamma1", SIMPLE, TEMPS, FREQS_HZ, -0.1, seed=0)


def test_synth_surface_deterministic():
    a = synth_surface("power", POWER_PARAMS, SURF_TEMPS, 0.05, seed=3)
    b = synth_surface("power", POWER_PARAMS, SURF_TEMPS, 0.05, seed=3)
    assert a == b
    with pytest.raises(DomainError):
        synth_surface("linear", POWER_PARAMS, SURF_TEMPS, 0.05, seed=3)


def test_noise_conversion_survives_synth_round_trip():
    # converting rates to noise densities and back is lossless
    ds = synth_dataset("gamma1", SIMPLE, TEMPS, (1.0e6,), 0.1, seed=2)
    for rec in ds.records:
        s = noise_from_heating_rate(rec.gamma, OMEGA0)
        assert heating_rate_from_noise(s, OMEGA0) == pytest.approx(
            rec.gamma, rel=1e-13
        )


# ---------------------------------------------------------------------------
# one formula per model: evaluation and synthesis agree exactly


_positive = st.floats(0.05, 8.0)
_temps = st.lists(st.floats(1.0, 400.0), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(SURFACE_MODELS)),
    amplitudes=st.tuples(st.floats(1e-17, 1e-11), st.floats(1e-17, 1e-11)),
    beta=_positive,
    t0=st.floats(1.0, 500.0),
    temps=_temps,
)
def test_surface_fit_evaluates_what_synth_surface_draws(
    kind, amplitudes, beta, t0, temps
):
    pool = {"s_e0": amplitudes[0], "s_et": amplitudes[1], "beta": beta, "t0": t0}
    params = {name: pool[name] for name in SURFACE_MODELS[kind].names}
    fit = SurfaceModelFit(kind, params, {}, 0.0, 0.0, 1.0)
    drawn = [s for _, s, _ in synth_surface(kind, params, temps, 0.0, seed=0)]
    assert [float(fit(t)) for t in temps] == drawn
    np.testing.assert_allclose(fit(np.array(temps)), drawn, rtol=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    gamma0=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=3),
    t1=st.floats(1.0, 200.0),
    beta1=_positive,
    t2=st.floats(1.0, 200.0),
    beta2=_positive,
    t_star=st.floats(1.0, 300.0),
    temps=_temps,
    model=st.sampled_from(["gamma1", "gamma2"]),
)
def test_synth_dataset_draws_the_temperature_model(
    gamma0, t1, beta1, t2, beta2, t_star, temps, model
):
    freqs = [0.4e6 * (i + 1) for i in range(len(gamma0))]
    params = TempFitParams(
        dict(zip(freqs, gamma0)), t1, beta1, t2=t2, beta2=beta2, t_star=t_star
    )
    # gamma1 on piecewise parameters ignores the piecewise fields
    truth = params if model == "gamma2" else TempFitParams(params.gamma0, t1, beta1)
    ds = synth_dataset(model, params, temps, freqs, 0.0, seed=0)
    expected = [float(truth(t, f)) for f in freqs for t in temps]
    assert [r.gamma for r in ds.records] == expected
