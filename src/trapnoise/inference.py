"""Inference on ion heating-rate data.

Covers the analysis chain from measured heating rates Gamma_h(omega, T):
frequency power laws Gamma = gamma (omega/omega0)^(alpha-1), global
temperature models (simple versus piecewise power law, ranked by AIC/BIC),
surface-noise offset fits, spline-based log-log slopes, and the
thermally-activated-fluctuator (TAF) prediction linking the temperature
slope to the frequency exponent.

All fits minimise sigma-weighted residuals; quoted RSS and information
criteria use the same weighted residual definition.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import DomainError
from .leastsq import FitFailure, FitResult, levenberg_marquardt
from .smoothing import SmoothingSpline, fit_smoothing_spline

__all__ = [
    "OMEGA0",
    "FitRangeWarning",
    "IllConditionedWarning",
    "UnusableDataError",
    "HeatingRecord",
    "HeatingDataset",
    "FreqPowerLawFit",
    "TempFitParams",
    "TempModelFit",
    "TempModelComparison",
    "ModelScore",
    "SurfaceModel",
    "SURFACE_MODELS",
    "SurfaceModelFit",
    "SurfaceFitParams",
    "SlopeCurve",
    "model_gamma1",
    "model_gamma2",
    "fit_freq_power_law",
    "fit_temperature_models",
    "information_criteria",
    "chi2_sf",
    "plateau_width",
    "fit_surface_models",
    "loglog_spline_slope",
    "taf_alpha",
    "taf_consistency_chi2",
    "synth_dataset",
    "synth_surface",
]

OMEGA0 = 2.0 * math.pi * 1.0e6


class FitRangeWarning(UserWarning):
    """A fitted parameter sits outside the range the data constrains."""


class IllConditionedWarning(UserWarning):
    """A formula is evaluated where it is numerically ill-conditioned."""


class UnusableDataError(DomainError):
    """Data a fit cannot use: too few or repeated points, non-positive values."""


def _exp(x) -> float:
    """``math.exp``, but NaN where it overflows, so a fit rejects the step."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.nan


@dataclass(frozen=True)
class HeatingRecord:
    temperature: float
    f_secular: float
    gamma: float
    sigma_gamma: float

    def __post_init__(self):
        if self.temperature <= 0.0 or self.f_secular <= 0.0:
            raise DomainError("temperature and frequency must be > 0")
        if self.gamma < 0.0:
            raise DomainError(f"heating rate must be >= 0, got {self.gamma}")
        if self.sigma_gamma <= 0.0:
            raise DomainError(f"sigma must be > 0, got {self.sigma_gamma}")


@dataclass(frozen=True)
class HeatingDataset:
    records: tuple[HeatingRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise DomainError("dataset must be non-empty")

    def by_frequency(self) -> dict[float, list[HeatingRecord]]:
        """Records grouped by secular frequency, each group sorted by T."""
        groups: dict[float, list[HeatingRecord]] = {}
        for rec in self.records:
            groups.setdefault(rec.f_secular, []).append(rec)
        return {
            f: sorted(g, key=lambda r: r.temperature)
            for f, g in sorted(groups.items())
        }


# ---------------------------------------------------------------------------
# frequency power law


def _power_law(omega, gamma_coeff, alpha):
    return gamma_coeff * (np.asarray(omega) / OMEGA0) ** (alpha - 1.0)


@dataclass(frozen=True, eq=False)
class FreqPowerLawFit:
    """Gamma(omega) = gamma_coeff * (omega/OMEGA0)^(alpha - 1)."""

    gamma_coeff: float
    alpha: float
    covariance: np.ndarray
    fit: FitResult = field(repr=False, compare=False, default=None)

    def __call__(self, omega):
        return _power_law(omega, self.gamma_coeff, self.alpha)

    def errors(self) -> tuple[float, float]:
        d = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return float(d[0]), float(d[1])


def fit_freq_power_law(points) -> FreqPowerLawFit:
    """Weighted fit of the frequency power law at fixed temperature."""
    pts = [(float(w), float(g), float(s)) for w, g, s in points]
    if len(pts) < 3:
        raise UnusableDataError(f"need at least 3 points, got {len(pts)}")
    omegas = np.array([p[0] for p in pts])
    if np.unique(omegas).size != omegas.size:
        raise UnusableDataError("frequencies must be distinct")
    gammas = np.array([p[1] for p in pts])
    sigmas = np.array([p[2] for p in pts])
    if np.any(gammas <= 0.0) or np.any(sigmas <= 0.0):
        raise UnusableDataError("gamma and sigma must be > 0 for the power-law fit")

    # log-log regression seeds the nonlinear fit
    lx = np.log(omegas / OMEGA0)
    slope, intercept = np.polyfit(lx, np.log(gammas), 1)
    theta0 = np.array([intercept, slope + 1.0])

    def residual(theta):
        model = _power_law(omegas, np.exp(theta[0]), theta[1])
        return (gammas - model) / sigmas

    res = levenberg_marquardt(residual, theta0)
    ln_g, alpha = res.params
    # delta method: var(gamma) = gamma^2 var(ln gamma)
    jac_t = np.array([[math.exp(ln_g), 0.0], [0.0, 1.0]])
    cov = jac_t @ res.covariance @ jac_t.T
    return FreqPowerLawFit(
        gamma_coeff=float(math.exp(ln_g)),
        alpha=float(alpha),
        covariance=cov,
        fit=res,
    )


# ---------------------------------------------------------------------------
# temperature models


def model_gamma1(t, gamma0, t1, beta1):
    """Simple power law Gamma0 [1 + (T/T1)^beta1]."""
    t = np.asarray(t, dtype=float)
    return gamma0 * (1.0 + (t / t1) ** beta1)


def model_gamma2(t, gamma0, t1, beta1, t2, beta2, t_star):
    """Piecewise power law: simple below T*, second rise above it.

    Continuous at T* because the upper branch equals Gamma1(T*) there.
    """
    t = np.asarray(t, dtype=float)
    # During optimization trial parameters may turn unphysical (T* <= 0,
    # runaway exponents); let NaN/inf propagate silently so the step is
    # simply rejected.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        below = model_gamma1(t, gamma0, t1, beta1)
        at_star = gamma0 * (1.0 + (t_star / t1) ** beta1)
        dt = np.clip(t - t_star, 0.0, None)
        above = at_star * (1.0 + (dt / t2) ** beta2)
        return np.where(t < t_star, below, above)


@dataclass(frozen=True)
class TempFitParams:
    gamma0: dict[float, float]  # per secular frequency (Hz)
    t1: float
    beta1: float
    t2: float | None = None
    beta2: float | None = None
    t_star: float | None = None

    @property
    def piecewise(self) -> bool:
        return self.t_star is not None

    def __call__(self, t, f_secular: float):
        g0 = self.gamma0[f_secular]
        if self.piecewise:
            return model_gamma2(
                t, g0, self.t1, self.beta1, self.t2, self.beta2, self.t_star
            )
        return model_gamma1(t, g0, self.t1, self.beta1)


@dataclass(frozen=True)
class ModelScore:
    rss: float
    n_data: int
    n_params: int
    aic: float
    bic: float
    perfect: bool = False


def information_criteria(rss: float, n_data: int, n_params: int) -> ModelScore:
    """AIC = N ln(RSS/N) + 2M and BIC = N ln(RSS/N) + M ln N."""
    if n_data <= n_params:
        raise DomainError(f"need n_data > n_params, got {n_data} <= {n_params}")
    if rss < 0.0:
        raise DomainError(f"rss must be >= 0, got {rss}")
    if rss == 0.0:
        return ModelScore(0.0, n_data, n_params, float("-inf"), float("-inf"), True)
    base = n_data * math.log(rss / n_data)
    return ModelScore(
        rss=rss,
        n_data=n_data,
        n_params=n_params,
        aic=base + 2.0 * n_params,
        bic=base + n_params * math.log(n_data),
    )


def chi2_sf(x: float, dof: int) -> float:
    """P(chi^2 > x) for a chi^2 distribution with integer dof >= 1.

    With h = x/2, dof = 2m + 2a and a = 0 or 1/2, the closed form is
    erfc(sqrt h) [odd dof only] + e^-h sum_{j<m} h^(j+a) / Gamma(j+a+1).
    The terms are positive and built from their ratios h/(j+a), so nothing
    cancels.  Below x = 1400 the sum runs up from j = 0 and is scaled by
    e^-h; above, e^-h nears underflow (at x = 1490), so the sum runs outward
    from its largest term, which is combined with e^-h in log space.
    Against 50-digit values the relative error is below 1e-13 for x <= 1e3
    and below 5e-13 above, for dof <= 300; a true value below 1e-300 comes
    out as some value in [0, 1e-290).  The result is clamped to 1, which the
    log-space scale overshoots by up to 5e-11 for dof in the thousands.
    NaN gives NaN.
    """
    if not (float(dof).is_integer() and dof >= 1):
        raise DomainError(f"dof must be an integer >= 1, got {dof}")
    x = float(x)
    if math.isnan(x):
        return x
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h, m, a = 0.5 * x, int(dof) // 2, 0.5 * (int(dof) % 2)
    tail = math.erfc(math.sqrt(h)) if a else 0.0
    if m == 0:
        return tail
    if h < 700.0:
        top = 0
        scale = math.exp(-h) * (2.0 * math.sqrt(h / math.pi) if a else 1.0)
    else:
        top = min(m - 1, math.floor(h - a))
        scale = math.exp((top + a) * math.log(h) - math.lgamma(top + a + 1.0) - h)
    total = term = 1.0
    for j in range(top, 0, -1):
        term *= (j + a) / h
        total += term
    term = 1.0
    for j in range(top + 1, m):
        term *= h / (j + a)
        total += term
    return min(tail + scale * total, 1.0)


@dataclass(frozen=True, eq=False)
class TempModelFit:
    params: TempFitParams
    score: ModelScore
    fit: FitResult
    global_errors: dict[str, float]


@dataclass(frozen=True, eq=False)
class TempModelComparison:
    simple: TempModelFit
    piecewise: TempModelFit

    @property
    def delta_aic(self) -> float:
        return self.piecewise.score.aic - self.simple.score.aic


def _flatten(groups):
    freqs = list(groups)
    temps = np.array([r.temperature for f in freqs for r in groups[f]])
    gammas = np.array([r.gamma for f in freqs for r in groups[f]])
    sigmas = np.array([r.sigma_gamma for f in freqs for r in groups[f]])
    owner = np.concatenate(
        [np.full(len(groups[f]), i) for i, f in enumerate(freqs)]
    )
    return freqs, temps, gammas, sigmas, owner


_SHAPE_NAMES = ("t1", "beta1", "t2", "beta2", "t_star")


def _shape(theta) -> tuple:
    """Shape parameters from fit coordinates: logarithms for all but T*."""
    return tuple(v if n == "t_star" else _exp(v) for n, v in zip(_SHAPE_NAMES, theta))


def _temp_model_fit(starts, freqs, temps, gammas, sigmas, owner) -> TempModelFit:
    """Best fit over ``starts`` (ln Gamma0 per frequency, then 2 or 5 shape
    coordinates); failed starts are skipped unless there is only one."""
    k = len(freqs)

    def residual(theta):
        # trial steps may overflow; NaN/inf residuals just lose the step
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            g0 = np.exp(theta[:k])[owner]
            shape = _shape(theta[k:])
            model = model_gamma2 if len(shape) == 5 else model_gamma1
            return (gammas - model(temps, g0, *shape)) / sigmas

    best = None
    for theta0 in starts:
        try:
            res = levenberg_marquardt(residual, theta0)
            shape = _shape(res.params[k:])
            # all but T* are fitted as logarithms: 0 is exp() underflow
            if not all(
                math.isfinite(v) and (v != 0.0 or n == "t_star")
                for n, v in zip(_SHAPE_NAMES, shape)
            ):
                raise FitFailure(
                    "a shape parameter overflowed or underflowed",
                    res.params, res.rss, res.n_iter,
                )
            errors = {
                n: err if n == "t_star" else v * err
                for n, v, err in zip(_SHAPE_NAMES, shape, res.errors()[k:])
            }
            if not np.all(np.isfinite(list(errors.values()))):
                raise FitFailure(
                    "a shape parameter has no finite error",
                    res.params, res.rss, res.n_iter,
                )
        except (FitFailure, np.linalg.LinAlgError):
            if len(starts) == 1:
                raise
            continue
        if best is None or res.rss < best[0].rss:
            best = res, shape, errors
    if best is None:
        raise FitFailure(
            "piecewise temperature fit failed from all starts", None, math.inf, 0
        )

    res, shape, errors = best
    params = TempFitParams(
        gamma0={f: float(math.exp(res.params[i])) for i, f in enumerate(freqs)},
        **{n: float(v) for n, v in zip(_SHAPE_NAMES, shape)},
    )
    score = information_criteria(res.rss, temps.size, res.params.size)
    return TempModelFit(params, score, res, errors)


def fit_temperature_models(dataset: HeatingDataset) -> TempModelComparison:
    """Global fits of both temperature models with shared shape parameters.

    Gamma0 is free per frequency set and starts at the set's smallest
    positive rate; (T1, beta1) and, for the piecewise model, (T2, beta2, T*)
    are shared across sets.  Both models are scored on the same weighted
    residuals.  The piecewise fit starts from the simple optimum with T*
    spread over the data, jittered with a fixed seed.  A fit whose shape
    parameters leave the float range, or whose errors are not finite,
    raises FitFailure.
    """
    groups = dataset.by_frequency()
    temps_all = [r.temperature for recs in groups.values() for r in recs]
    if len(set(temps_all)) < 4:
        raise UnusableDataError("need at least 4 distinct temperatures")
    n_params = len(groups) + len(_SHAPE_NAMES)
    if len(temps_all) <= n_params:
        raise UnusableDataError(
            f"need more than {n_params} records for the piecewise model, "
            f"got {len(temps_all)}"
        )
    data = _flatten(groups)
    freqs, temps, gammas, _, owner = data

    g0 = []
    for i, f in enumerate(freqs):
        rates = gammas[(owner == i) & (gammas > 0.0)]
        if rates.size == 0:
            raise UnusableDataError(f"no positive heating rate at {f:g} Hz")
        g0.append(rates.min())
    start = np.concatenate([np.log(g0), [math.log(np.median(temps)), math.log(2.0)]])
    simple = _temp_model_fit([start], *data)

    n = simple.fit.params.size
    t_lo, t_hi = temps.min(), temps.max()
    span = t_hi - t_lo
    rng = np.random.default_rng(1849)
    starts = []
    for s in range(8):
        t_star0 = t_lo + span * (0.35 + 0.45 * s / 7.0)
        start = np.concatenate(
            [simple.fit.params, [math.log(0.5 * span), math.log(3.0), t_star0]]
        )
        if s > 0:
            start[:n] += rng.normal(0.0, 0.05, n)
            start[n : n + 2] += rng.normal(0.0, 0.3, 2)
        starts.append(start)
    piecewise = _temp_model_fit(starts, *data)
    t_star = piecewise.params.t_star
    if not t_lo <= t_star <= t_hi:
        warnings.warn(
            f"T* = {t_star:.1f} K lies outside the data range "
            f"[{t_lo:.1f}, {t_hi:.1f}] K",
            FitRangeWarning,
            stacklevel=2,
        )
    return TempModelComparison(simple=simple, piecewise=piecewise)


def plateau_width(params: TempFitParams, tolerance_frac: float) -> float:
    """Width over which the upper branch rises by at most tolerance_frac."""
    if not params.piecewise:
        raise DomainError("plateau width requires the piecewise model")
    if tolerance_frac <= 0.0:
        raise DomainError(f"tolerance must be > 0, got {tolerance_frac}")
    return params.t2 * tolerance_frac ** (1.0 / params.beta2)


# ---------------------------------------------------------------------------
# surface-noise offset models


@dataclass(frozen=True)
class SurfaceModel:
    """S_E(T) = formula(T, *params) with the parameters in ``names`` order;
    those flagged in ``logged`` are fitted as logarithms."""

    formula: Callable
    names: tuple[str, ...]
    logged: tuple[bool, ...]

    def __call__(self, t, params: dict[str, float]):
        return self.formula(t, *(params[name] for name in self.names))


SURFACE_MODELS = {
    "power": SurfaceModel(  # S_E0 (1 + T/T0)^beta
        lambda t, s_e0, beta, t0: s_e0 * (1.0 + t / t0) ** beta,
        ("s_e0", "beta", "t0"),
        (True, False, True),
    ),
    "arrhenius": SurfaceModel(  # S_E0 + S_ET exp(-T0/T)
        lambda t, s_e0, s_et, t0: s_e0 + s_et * np.exp(-t0 / t),
        ("s_e0", "s_et", "t0"),
        (True, True, True),
    ),
}


@dataclass(frozen=True)
class SurfaceModelFit:
    kind: str
    params: dict[str, float]
    errors: dict[str, float]
    chi2: float
    chi2_red: float
    p_value: float

    def __call__(self, t):
        return SURFACE_MODELS[self.kind](np.asarray(t, dtype=float), self.params)


@dataclass(frozen=True)
class SurfaceFitParams:
    power: SurfaceModelFit
    arrhenius: SurfaceModelFit


def _surface_fit(kind, temps, s_e, sigmas) -> SurfaceModelFit:
    model = SURFACE_MODELS[kind]
    if kind == "power":
        slope0 = (math.log(s_e[-1] / s_e[0])) / math.log(
            (1.0 + temps[-1] / np.median(temps)) / (1.0 + temps[0] / np.median(temps))
        )
        theta0 = [math.log(s_e.min()), max(slope0, 0.5), math.log(np.median(temps))]
    else:
        theta0 = [
            math.log(max(s_e.min(), 1e-300)),
            math.log(max(s_e.max() - 0.9 * s_e.min(), 1e-300))
            + (temps.max() - temps.min()) / temps.max(),
            math.log(temps.max()),
        ]

    def unpack(theta):
        values = (_exp(v) if log else v for v, log in zip(theta, model.logged))
        return dict(zip(model.names, values))

    def residual(theta):
        return (s_e - model(temps, unpack(theta))) / sigmas

    res = levenberg_marquardt(residual, theta0)
    params = unpack(res.params)
    # delta method: d p / d theta is p for a logarithm, 1 otherwise
    scale = [p if log else 1.0 for p, log in zip(params.values(), model.logged)]
    cov = res.covariance * np.outer(scale, scale)
    errors = {n: float(np.sqrt(max(cov[i, i], 0.0))) for i, n in enumerate(model.names)}
    dof = temps.size - len(model.names)
    return SurfaceModelFit(
        kind=kind,
        params=params,
        errors=errors,
        chi2=res.rss,
        chi2_red=res.rss / dof,
        p_value=chi2_sf(res.rss, dof),
    )


def fit_surface_models(curve) -> SurfaceFitParams:
    """Fit both surface-noise models S_E(T) and score each against chi^2."""
    pts = sorted((float(t), float(s), float(sg)) for t, s, sg in curve)
    if len(pts) < 5:
        raise UnusableDataError(f"need at least 5 points, got {len(pts)}")
    temps = np.array([p[0] for p in pts])
    s_e = np.array([p[1] for p in pts])
    sigmas = np.array([p[2] for p in pts])
    if np.any(s_e <= 0.0) or np.any(sigmas <= 0.0):
        raise UnusableDataError("S_E and sigma must be > 0")
    return SurfaceFitParams(
        power=_surface_fit("power", temps, s_e, sigmas),
        arrhenius=_surface_fit("arrhenius", temps, s_e, sigmas),
    )


# ---------------------------------------------------------------------------
# spline slope and TAF


@dataclass(frozen=True, eq=False)
class SlopeCurve:
    """d ln S_E / d ln T with a residual-bootstrap confidence band.

    ``spline`` is the GCV fit.  ``boot`` is its refit to every bootstrap
    resample at once, a spline whose knot values and f'' stack the refits.
    """

    spline: SmoothingSpline
    boot: SmoothingSpline

    def __call__(self, t):
        return self.spline.derivative(np.log(t))

    def band(self, t):
        """The 16th and 84th percentile slopes of the bootstrap refits."""
        if not len(self.boot.values):
            val = self(t)
            return val, val
        samples = self.boot.derivative(np.log(t))
        return (
            np.percentile(samples, 16.0, axis=0),
            np.percentile(samples, 84.0, axis=0),
        )


def loglog_spline_slope(curve, n_boot: int = 200, seed: int = 7041) -> SlopeCurve:
    """Smoothing-spline slope of ln S_E versus ln T.

    The smoothing parameter comes from GCV; the band is a residual bootstrap
    of ``n_boot`` resamples, refit together at the selected smoothing with
    the factorisation and SVD of the GCV fit.
    """
    pts = sorted((float(t), float(s), float(sg)) for t, s, sg in curve)
    t = np.array([p[0] for p in pts])
    n_distinct = np.unique(t).size
    if n_distinct < 4:
        raise UnusableDataError(
            f"need at least 4 distinct temperatures, got {n_distinct}"
        )
    if n_distinct != t.size:
        raise UnusableDataError("temperatures must be distinct")
    s = np.array([p[1] for p in pts])
    sg = np.array([p[2] for p in pts])
    if np.any(t <= 0.0) or np.any(s <= 0.0):
        raise UnusableDataError("T and S_E must be > 0 for log-log analysis")
    x = np.log(t)
    y = np.log(s)
    sig_y = sg / s

    spline = fit_smoothing_spline(x, y, sig_y)
    fitted = spline(x)
    resid = y - fitted

    # row b draws the same indices as the b-th of n_boot draws of size n
    y_star = fitted + np.random.default_rng(seed).choice(resid, size=(n_boot, resid.size))
    return SlopeCurve(spline=spline, boot=spline.refit(y_star))


def taf_alpha(slope: float, omega: float, tau0: float = 1e-13) -> float:
    """Frequency exponent predicted from the temperature slope.

    The thermally-activated-fluctuator relation gives the exponent in the
    S propto omega^(-alpha_DH) convention; the returned value is -alpha_DH
    so it compares directly with the measured alpha of the convention
    Gamma propto omega^(alpha-1), i.e. S_E propto omega^alpha, where
    roughly-1/f field noise appears as alpha near -1.
    """
    if omega <= 0.0 or tau0 <= 0.0:
        raise DomainError("omega and tau0 must be > 0")
    ln_wt = math.log(omega * tau0)
    if abs(ln_wt) < 1.0:
        warnings.warn(
            f"|ln(omega tau0)| = {abs(ln_wt):.3f} < 1: prediction is "
            "ill-conditioned near omega tau0 = 1",
            IllConditionedWarning,
            stacklevel=2,
        )
    alpha_dh = 1.0 - (slope - 1.0) / ln_wt
    return -alpha_dh


def taf_consistency_chi2(measured, predicted) -> tuple[float, float]:
    """chi^2 of measured exponents against a prediction callable(T)."""
    pts = list(measured)
    if len(pts) < 2:
        raise UnusableDataError(f"need at least 2 points, got {len(pts)}")
    chi2 = 0.0
    for alpha, sigma_alpha, temp in pts:
        if sigma_alpha <= 0.0:
            raise UnusableDataError("sigma_alpha must be > 0")
        chi2 += ((alpha - float(predicted(temp))) / sigma_alpha) ** 2
    return chi2, chi2_sf(chi2, len(pts))


# ---------------------------------------------------------------------------
# synthetic data


def synth_dataset(
    model: str,
    params: TempFitParams,
    temps,
    freqs,
    noise_frac: float,
    seed: int,
) -> HeatingDataset:
    """Heating-rate records from a temperature model plus relative noise.

    ``model`` is "gamma1" or "gamma2"; sigma is noise_frac times the model
    value (floored at a tiny relative value so records stay valid when
    noise_frac = 0).  Deterministic for fixed seed.
    """
    if model not in ("gamma1", "gamma2"):
        raise DomainError(f"unknown model {model!r}")
    if model == "gamma2" and not params.piecewise:
        raise DomainError("gamma2 requires piecewise parameters")
    if noise_frac < 0.0:
        raise DomainError(f"noise_frac must be >= 0, got {noise_frac}")
    if model == "gamma1":
        params = replace(params, t2=None, beta2=None, t_star=None)
    rng = np.random.default_rng(seed)
    records = []
    for f in freqs:
        for t in temps:
            value = float(params(t, f))
            noisy = value * (1.0 + noise_frac * rng.standard_normal())
            records.append(
                HeatingRecord(
                    temperature=float(t),
                    f_secular=float(f),
                    gamma=max(noisy, 0.0),
                    sigma_gamma=max(noise_frac, 1e-12) * value,
                )
            )
    return HeatingDataset(tuple(records))


def synth_surface(
    kind: str, params: dict[str, float], temps, noise_frac: float, seed: int
):
    """(T, S_E, sigma) tuples from a surface-noise model plus relative noise."""
    if kind not in SURFACE_MODELS:
        raise DomainError(f"unknown surface model {kind!r}")
    if noise_frac < 0.0:
        raise DomainError(f"noise_frac must be >= 0, got {noise_frac}")
    rng = np.random.default_rng(seed)
    out = []
    for t in temps:
        value = float(SURFACE_MODELS[kind](t, params))
        noisy = value * (1.0 + noise_frac * rng.standard_normal())
        out.append((float(t), max(noisy, 1e-300), max(noise_frac, 1e-12) * value))
    return out
