"""Inference on ion heating-rate data.

Covers the analysis chain from measured heating rates Gamma_h(omega, T):
frequency power laws Gamma = gamma (omega/omega0)^(alpha-1), global
temperature models (simple versus piecewise power law, ranked by AIC/BIC),
surface-noise offset fits, spline-based log-log slopes, and the
thermally-activated-fluctuator (TAF) prediction linking the temperature
slope to the frequency exponent.

Each fitted formula is one :class:`Model` row (``TEMP_MODELS``,
``SURFACE_MODELS``, ``_POWER_LAW``), and every fit goes through ``_fit``,
which builds the row's sigma-weighted residuals, minimises them from each
start and keeps the lowest RSS; quoted RSS and information criteria use the
same residuals.  ``_natural_fit`` is the one place where
fit coordinates, some of them logarithms, become reported values and
errors; a value or error out of float range raises FitFailure.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import (
    DomainError,
    UnusableDataError,
    heating_rate_from_noise,
    noise_from_heating_rate,
    omega_from_hz,
    pow_or_inf,
    require_above,
)
from .leastsq import FitFailure, FitResult, levenberg_marquardt
from .smoothing import SmoothingSpline, fit_smoothing_spline

__all__ = [
    "OMEGA0",
    "MAX_BOOT",
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
    "Model",
    "TEMP_MODELS",
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

OMEGA0 = omega_from_hz(1.0e6)
# the most bootstrap resamples loglog_spline_slope draws: its refit holds
# several n_boot x points float arrays, 7.2 MB each at 9 points
MAX_BOOT = 100_000


class FitRangeWarning(UserWarning):
    """A fitted parameter sits outside the range the data constrains."""


class IllConditionedWarning(UserWarning):
    """A formula is evaluated where it is numerically ill-conditioned."""


def _exp(x) -> float:
    """``math.exp``, but NaN where it overflows, so a fit rejects the step."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.nan


def _checked_points(points, what: str, names: str):
    """The x, y and sigma float columns of an analysis's (x, y, sigma) points
    sorted by x, each value finite and > 0, or UnusableDataError names the
    analysis ``what``, the column (of the space-separated ``names``) and the point."""
    pts = [(float(x), float(y), float(sigma)) for x, y, sigma in points]
    for point in pts:
        try:
            for name, value in zip(names.split(), point):
                require_above(value, name)
        except DomainError as exc:
            raise UnusableDataError(f"{what}: {exc} in point {point}") from None
    pts.sort()
    return tuple(np.array([p[i] for p in pts]) for i in range(3))


def _median(values) -> float:
    """``np.median`` of finite floats, bit for bit, without the import of
    ``numpy.ma`` that ``np.median`` makes on its first call."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    middle = ordered[mid : mid + 1] if ordered.size % 2 else ordered[mid - 1 : mid + 1]
    # numpy takes the mean of the middle, a sum that starts at +0.0
    return sum(middle.tolist(), 0.0) / middle.size


def _natural(theta, logged) -> tuple:
    """Fit coordinates as natural values: ``_exp`` of those flagged in
    ``logged``, the rest as given."""
    # numpy iterators are slow to run out, so the tuple leads the zip
    return tuple(_exp(v) if log else v for log, v in zip(logged, theta))


def _natural_fit(res: FitResult, logged) -> tuple[tuple, tuple]:
    """The natural values of a fit's parameters and their errors.

    By the delta method the error of exp(theta) is exp(theta) times the
    error of theta.  A logarithm that overflows or underflows, or an error
    that is not finite, raises :class:`FitFailure`.
    """
    values = tuple(map(float, _natural(res.params, logged)))
    raw = res.errors().tolist()  # floats: an overflowing error is inf, not a warning
    errors = tuple(e * v if log else e for e, v, log in zip(raw, values, logged))
    state = res.params, res.rss, res.n_iter
    # a logged value of 0 is an exp() underflow
    if not all(math.isfinite(v) and (v or not log) for v, log in zip(values, logged)):
        raise FitFailure("a parameter overflowed or underflowed", *state)
    if not all(map(math.isfinite, errors)):
        raise FitFailure("a parameter has no finite error", *state)
    return values, errors


def _fit(model, x, y, sigma, starts, owner=None) -> tuple[FitResult, tuple, tuple]:
    """The lowest-RSS least-squares fit of ``model`` at ``x`` to ``y`` with
    errors ``sigma`` over the start vectors ``starts``, and its natural values
    and errors by ``_natural_fit``.  If ``owner`` gives each point's group,
    the first parameter, a logarithm, takes one value per group, first in
    theta and in the values.  Of several starts, one that fails is skipped,
    and FitFailure is raised if all fail; a lone start's failure propagates."""
    k = len(starts[0]) - len(model.names) + 1  # values of the first parameter
    rest = model.logged[1:]

    def residual(theta):
        # trial steps may overflow; NaN/inf residuals just lose the step
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            if owner is None:
                params = _natural(theta, model.logged)
            else:  # np.exp and _exp may differ in the last bit; each fit keeps its own
                params = np.exp(theta[:k])[owner], *_natural(theta[k:], rest)
            return (y - model.formula(x, *params)) / sigma

    best = None
    for theta0 in starts:
        try:
            res = levenberg_marquardt(residual, theta0)
            fit = res, *_natural_fit(res, model.logged[:1] * k + rest)
        except (FitFailure, np.linalg.LinAlgError):
            if len(starts) == 1:
                raise
            continue
        if best is None or res.rss < best[0].rss:
            best = fit
    if best is None:
        raise FitFailure("fit failed from all starts", None, math.inf, 0)
    return best


@dataclass(frozen=True)
class Model:
    """y(x) = formula(x, *params) with the parameters in ``names`` order;
    those flagged in ``logged`` are fitted as logarithms.  Given values must
    be finite, > 0 if ``positive`` names them and >= 0 if ``nonnegative`` does."""

    formula: Callable
    names: tuple[str, ...]
    logged: tuple[bool, ...]
    positive: tuple[str, ...] = ()
    nonnegative: tuple[str, ...] = ()

    def __call__(self, t, params: dict[str, float]):
        return self.formula(t, *(params[name] for name in self.names))

    def require(self, name: str, value: float, what: str = "") -> None:
        """Raise DomainError unless ``value`` is in ``name``'s domain; ``what`` names it."""
        lo = 0.0 if name in self.positive + self.nonnegative else -math.inf
        require_above(value, what or name, lo, or_equal=name in self.nonnegative)

    def check(self, params: dict[str, float]) -> dict[str, float]:
        """``params``, if it gives each of ``names`` in the model's domain.
        The fit calls the bare ``formula``: its trial steps may leave it."""
        for name in self.names:
            if name not in params:
                raise DomainError(f"missing parameter {name} (of {', '.join(self.names)})")
            self.require(name, params[name])
        return params


@dataclass(frozen=True)
class HeatingRecord:
    temperature: float
    f_secular: float
    gamma: float
    sigma_gamma: float

    def __post_init__(self):
        require_above(self.temperature, "temperature")
        require_above(self.f_secular, "frequency")
        require_above(self.gamma, "heating rate", or_equal=True)
        require_above(self.sigma_gamma, "sigma")


@dataclass(frozen=True)
class HeatingDataset:
    records: tuple[HeatingRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise DomainError("dataset must be non-empty")

    @classmethod
    def from_noise_curve(cls, rows, f_hz: float) -> HeatingDataset:
        """Records at secular frequency ``f_hz`` from (T, S_E, sigma_S) tuples."""
        omega = omega_from_hz(f_hz)
        return cls(tuple(
            HeatingRecord(t, f_hz, heating_rate_from_noise(s, omega),
                          heating_rate_from_noise(sigma, omega))
            for t, s, sigma in rows
        ))

    def noise_curve(self, what: str) -> tuple[float, list[tuple[float, float, float]]]:
        """The secular frequency (Hz) and the (T, S_E, sigma_S) tuples of a
        single-frequency dataset, in record order; ``what`` names the analysis
        in the :class:`UnusableDataError` raised for several frequencies."""
        freqs = sorted({r.f_secular for r in self.records})
        if len(freqs) != 1:
            raise UnusableDataError(
                f"{what} needs a single-frequency dataset, got frequencies {freqs}"
            )
        omega = omega_from_hz(freqs[0])
        return freqs[0], [
            (r.temperature, noise_from_heating_rate(r.gamma, omega),
             noise_from_heating_rate(r.sigma_gamma, omega))
            for r in self.records
        ]

    def frequency_curves(self) -> dict[float, list[tuple[float, float, float]]]:
        """The (omega, Gamma, sigma_Gamma) points of each temperature, omega in
        rad/s: temperatures ascending, each one's points in record order."""
        curves: dict[float, list] = {}
        for r in sorted(self.records, key=lambda r: r.temperature):
            curves.setdefault(r.temperature, []).append(
                (omega_from_hz(r.f_secular), r.gamma, r.sigma_gamma)
            )
        return curves


# ---------------------------------------------------------------------------
# frequency power law


_POWER_LAW = Model(  # Gamma(omega)
    lambda omega, gamma, alpha: gamma * (np.asarray(omega) / OMEGA0) ** (alpha - 1.0),
    ("gamma_coeff", "alpha"),
    (True, False),
)


@dataclass(frozen=True, eq=False)
class FreqPowerLawFit:
    """Gamma(omega) = gamma_coeff * (omega/OMEGA0)^(alpha - 1)."""

    gamma_coeff: float
    alpha: float
    fit: FitResult = field(repr=False, compare=False)

    def __call__(self, omega):
        return _POWER_LAW.formula(omega, self.gamma_coeff, self.alpha)

    def errors(self) -> tuple[float, float]:
        return _natural_fit(self.fit, _POWER_LAW.logged)[1]


def fit_freq_power_law(points) -> FreqPowerLawFit:
    """Weighted fit of the frequency power law at fixed temperature."""
    omegas, gammas, sigmas = _checked_points(points, "power-law fit", "omega gamma sigma")
    if omegas.size < 3:
        raise UnusableDataError(f"need at least 3 points, got {omegas.size}")
    if len(set(omegas.tolist())) != omegas.size:
        raise UnusableDataError("frequencies must be distinct")

    # log-log regression seeds the nonlinear fit
    slope, intercept = np.polyfit(np.log(omegas / OMEGA0), np.log(gammas), 1)
    # one group: the coefficient takes np.exp, as each Gamma0 does
    res, values, _ = _fit(
        _POWER_LAW, omegas, gammas, sigmas, [np.array([intercept, slope + 1.0])],
        np.zeros(omegas.size, dtype=int),
    )
    return FreqPowerLawFit(**dict(zip(_POWER_LAW.names, values)), fit=res)


# ---------------------------------------------------------------------------
# temperature models


def model_gamma1(t, gamma0, t1, beta1):
    """Simple power law Gamma0 [1 + (T/T1)^beta1]."""
    t = np.asarray(t, dtype=float)
    return gamma0 * (1.0 + (t / t1) ** beta1)


def model_gamma2(t, gamma0, t1, beta1, t2, beta2, t_star):
    """Piecewise power law: simple below T*, second rise above it.

    Continuous at T* because the upper branch equals Gamma1(T*) there, as
    (0/t2)^beta2 = 0 for beta2 > 0 (0 would double it, and beta2 < 0 give inf).
    """
    t = np.asarray(t, dtype=float)
    # np.where evaluates both branches: the unused one may overflow or divide by 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        below = model_gamma1(t, gamma0, t1, beta1)
        at_star = gamma0 * (1.0 + (t_star / t1) ** beta1)
        dt = np.clip(t - t_star, 0.0, None)
        above = at_star * (1.0 + (dt / t2) ** beta2)
        return np.where(t < t_star, below, above)


TEMP_MODELS = {  # Gamma(T), with Gamma0 fitted per secular frequency
    "gamma1": Model(
        model_gamma1,
        ("gamma0", "t1", "beta1"),
        (True, True, True),
        positive=("gamma0", "t1"),
    ),
    "gamma2": Model(
        # looks the module global up at each call, so a wrapper put in its place counts calls
        lambda t, *params: model_gamma2(t, *params),
        ("gamma0", "t1", "beta1", "t2", "beta2", "t_star"),
        (True, True, True, True, True, False),
        positive=("gamma0", "t1", "t2", "beta2", "t_star"),
    ),
}


@dataclass(frozen=True)
class TempFitParams:
    """Gamma1's parameters, and Gamma2's if ``t2``, ``beta2`` and ``t_star``
    (all or none) are given, in the domain of their row; frequencies > 0."""

    gamma0: dict[float, float]  # per secular frequency (Hz)
    t1: float
    beta1: float
    t2: float | None = None
    beta2: float | None = None
    t_star: float | None = None

    def __post_init__(self):
        if len({v is None for v in (self.t2, self.beta2, self.t_star)}) > 1:
            raise DomainError("t2, beta2 and t_star must be given together")
        model = self.model
        for name in model.names[1:]:
            model.require(name, getattr(self, name))
        for f_hz, g0 in self.gamma0.items():
            require_above(f_hz, "gamma0 frequency")
            model.require("gamma0", g0, f"gamma0 at {f_hz:g} Hz")

    @property
    def piecewise(self) -> bool:
        return self.t_star is not None

    @property
    def model(self) -> Model:  # its row of TEMP_MODELS
        return TEMP_MODELS["gamma2" if self.piecewise else "gamma1"]

    def __call__(self, t, f_secular: float):
        if f_secular not in self.gamma0:
            raise DomainError(f"no gamma0 at {f_secular} Hz, only at {sorted(self.gamma0)}")
        return self.model(t, {**vars(self), "gamma0": self.gamma0[f_secular]})


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
    require_above(rss, "rss", or_equal=True)
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


def fit_temperature_models(dataset: HeatingDataset) -> TempModelComparison:
    """Global fits of both temperature models with shared shape parameters.

    Gamma0 is free per frequency set and starts at the set's smallest
    positive rate; (T1, beta1) and, for the piecewise model, (T2, beta2, T*)
    are shared across sets.  Both models are scored on the same weighted
    residuals.  The piecewise fit starts from the simple optimum with T*
    spread over the data, jittered with a fixed seed.  A fit whose
    parameters leave the float range, or whose errors are not finite,
    raises FitFailure.
    """
    # stable, so records tied in (f, T) keep their file order
    records = sorted(dataset.records, key=lambda r: (r.f_secular, r.temperature))
    if len({r.temperature for r in records}) < 4:
        raise UnusableDataError("need at least 4 distinct temperatures")
    freqs = sorted({r.f_secular for r in records})
    k = len(freqs)
    n_params = k + len(TEMP_MODELS["gamma2"].names) - 1
    if len(records) <= n_params:
        raise UnusableDataError(
            f"need more than {n_params} records for the piecewise model, "
            f"got {len(records)}"
        )
    temps = np.array([r.temperature for r in records])
    gammas = np.array([r.gamma for r in records])
    sigmas = np.array([r.sigma_gamma for r in records])
    owner = np.array([freqs.index(r.f_secular) for r in records])
    g0 = []
    for i, f in enumerate(freqs):
        rates = gammas[(owner == i) & (gammas > 0.0)]
        if rates.size == 0:
            raise UnusableDataError(f"no positive heating rate at {f:g} Hz")
        g0.append(rates.min())

    def model_fit(model, starts) -> TempModelFit:
        res, values, errors = _fit(model, temps, gammas, sigmas, starts, owner)
        shape = dict(zip(model.names[1:], values[k:]))
        params = TempFitParams(dict(zip(freqs, values)), **shape)
        score = information_criteria(res.rss, temps.size, res.params.size)
        return TempModelFit(params, score, res, dict(zip(model.names[1:], errors[k:])))

    start = np.concatenate([np.log(g0), [math.log(_median(temps)), math.log(2.0)]])
    simple = model_fit(TEMP_MODELS["gamma1"], [start])

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
    piecewise = model_fit(TEMP_MODELS["gamma2"], starts)
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
    require_above(tolerance_frac, "tolerance")
    width = params.t2 * pow_or_inf(tolerance_frac, 1.0 / params.beta2)
    require_above(width, "plateau width", or_equal=True)
    return width


# ---------------------------------------------------------------------------
# surface-noise offset models


SURFACE_MODELS = {  # S_E(T)
    "power": Model(  # S_E0 (1 + T/T0)^beta; a float T may overflow it
        lambda t, s_e0, beta, t0: s_e0 * pow_or_inf(1.0 + t / t0, beta),
        ("s_e0", "beta", "t0"),
        (True, False, True),
        positive=("s_e0", "t0"),
    ),
    "arrhenius": Model(  # S_E0 + S_ET exp(-T0/T)
        lambda t, s_e0, s_et, t0: s_e0 + s_et * np.exp(-t0 / t),
        ("s_e0", "s_et", "t0"),
        (True, True, True),
        positive=("s_et", "t0"),
        nonnegative=("s_e0",),  # a constant offset may vanish
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


def fit_surface_models(curve) -> SurfaceFitParams:
    """Fit both surface-noise models S_E(T) and score each against chi^2."""
    temps, s_e, sigmas = _checked_points(curve, "surface-model fit", "T S_E sigma")
    if temps.size < 5:
        raise UnusableDataError(f"need at least 5 points, got {temps.size}")
    n_temps = len(set(temps.tolist()))
    if n_temps < 3:  # one per parameter
        raise UnusableDataError(f"need at least 3 distinct temperatures, got {n_temps}")
    t_mid = _median(temps)
    slope0 = (math.log(s_e[-1] / s_e[0])) / math.log(
        (1.0 + temps[-1] / t_mid) / (1.0 + temps[0] / t_mid)
    )
    starts = {
        "power": [math.log(s_e.min()), max(slope0, 0.5), math.log(t_mid)],
        "arrhenius": [
            math.log(max(s_e.min(), 1e-300)),
            math.log(max(s_e.max() - 0.9 * s_e.min(), 1e-300))
            + (temps.max() - temps.min()) / temps.max(),
            math.log(temps.max()),
        ],
    }
    fits = {}
    for kind, theta0 in starts.items():
        model = SURFACE_MODELS[kind]
        res, values, errors = _fit(model, temps, s_e, sigmas, [theta0])
        dof = temps.size - len(model.names)
        fits[kind] = SurfaceModelFit(
            kind, dict(zip(model.names, values)), dict(zip(model.names, errors)),
            res.rss, res.rss / dof, chi2_sf(res.rss, dof),
        )
    return SurfaceFitParams(**fits)


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
    the factorisation and SVD of the GCV fit; ``n_boot`` is 0 to
    :data:`MAX_BOOT`.
    """
    if not 0 <= n_boot <= MAX_BOOT:
        raise DomainError(f"n_boot must be 0 to {MAX_BOOT}, got {n_boot}")
    t, s, sg = _checked_points(curve, "log-log slope", "T S_E sigma")
    n_distinct = len(set(t.tolist()))
    if n_distinct < 4:
        raise UnusableDataError(
            f"need at least 4 distinct temperatures, got {n_distinct}"
        )
    if n_distinct != t.size:
        raise UnusableDataError("temperatures must be distinct")
    x = np.log(t)
    y = np.log(s)
    sig_y = sg / s
    if not np.all((sig_y > 0.0) & np.isfinite(sig_y)):
        raise UnusableDataError("sigma must be finite and > 0 relative to S_E")

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
    require_above(omega, "omega")
    require_above(tau0, "tau0")
    # each factor may be in range while the product overflows or underflows
    omega_tau0 = omega * tau0
    require_above(omega_tau0, "omega * tau0")
    ln_wt = math.log(omega_tau0)
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
    """chi^2 of measured (T, alpha, sigma_alpha) exponents against a
    prediction callable(T); alpha may take any finite value."""
    pts = [(float(t), float(alpha), float(sigma)) for t, alpha, sigma in measured]
    if len(pts) < 2:
        raise UnusableDataError(f"need at least 2 points, got {len(pts)}")
    chi2 = 0.0
    for point in pts:
        temp, alpha, sigma_alpha = point
        try:
            require_above(temp, "T")
            require_above(alpha, "alpha", -math.inf)
            require_above(sigma_alpha, "sigma_alpha")
        except DomainError as exc:
            raise UnusableDataError(f"TAF consistency: {exc} in point {point}") from None
        chi2 += pow_or_inf((alpha - float(predicted(temp))) / sigma_alpha, 2)
    require_above(chi2, "chi^2", or_equal=True)
    return chi2, chi2_sf(chi2, len(pts))


# ---------------------------------------------------------------------------
# synthetic data


def _noisy(value: float, noise_frac: float, rng) -> tuple[float, float]:
    """value (1 + noise_frac z) for one standard-normal draw z, and its sigma,
    noise_frac * value floored so that it stays > 0 at noise_frac = 0."""
    noisy = value * (1.0 + noise_frac * rng.standard_normal())
    return noisy, max(noise_frac, 1e-12) * value


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
    value.  Deterministic for fixed seed.
    """
    if model not in TEMP_MODELS:
        raise DomainError(f"unknown model {model!r}")
    if model == "gamma2" and not params.piecewise:
        raise DomainError("gamma2 requires piecewise parameters")
    require_above(noise_frac, "noise_frac", or_equal=True)
    if model == "gamma1":
        params = replace(params, t2=None, beta2=None, t_star=None)
    rng = np.random.default_rng(seed)
    records = []
    # a rate that overflows is inf, which HeatingRecord rejects
    with np.errstate(over="ignore"):
        for f in freqs:
            for t in temps:
                noisy, sigma = _noisy(float(params(t, f)), noise_frac, rng)
                records.append(HeatingRecord(float(t), float(f), max(noisy, 0.0), sigma))
    return HeatingDataset(tuple(records))


def synth_surface(
    kind: str, params: dict[str, float], temps, noise_frac: float, seed: int
):
    """(T, S_E, sigma) tuples from a surface-noise model plus relative noise."""
    if kind not in SURFACE_MODELS:
        raise DomainError(f"unknown surface model {kind!r}")
    params = SURFACE_MODELS[kind].check(params)
    require_above(noise_frac, "noise_frac", or_equal=True)
    rng = np.random.default_rng(seed)
    out = []
    for t in temps:
        noisy, sigma = _noisy(float(SURFACE_MODELS[kind](t, params)), noise_frac, rng)
        out.append((float(t), max(noisy, 1e-300), sigma))
    return out
