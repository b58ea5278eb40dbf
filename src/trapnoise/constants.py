"""Physical constants (CODATA 2018) and heating-rate / field-noise conversion.

All angular frequencies in this package are in rad/s. File formats and the
CLI accept ordinary frequencies in Hz and convert at the boundary.

Electric-field noise spectral densities are single-sided throughout,
in V^2 m^-2 Hz^-1.

:func:`require_above` is the one domain check of a physical argument: it
raises :class:`DomainError`, naming the argument, on NaN, on +-inf and on a
value at or below its bound.  :func:`pow_or_inf` gives a float power that
overflows as inf, for that check to reject.

Every error the library raises on purpose is a :class:`TrapnoiseError`,
whose ``exit_code`` and ``label`` the command line returns and prints.  All
but ``layers.NoSuperconductorError`` are defined here, so the command line
catches them without loading the modules that raise them; each of those
modules re-exports its own under the same name.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants, CODATA 2018 exact/recommended values."""

    kB: float = 1.380649e-23        # J/K (exact)
    hbar: float = 1.054571817e-34   # J*s (exact, from h = 6.62607015e-34)
    eps0: float = 8.8541878128e-12  # F/m
    mu0: float = 1.25663706212e-6   # H/m
    c: float = 299792458.0          # m/s (exact)
    q_e: float = 1.602176634e-19    # C (exact)
    # 40Ca mass: 39.9625909 u; electron-mass deficit of the ion neglected
    # (relative effect < 1e-5).
    m_Ca40: float = 39.9625909 * 1.66053906660e-27  # kg

    def fingerprint(self) -> str:
        """Stable hash of the constant set, for output provenance."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


CONSTANTS = PhysicalConstants()


class TrapnoiseError(Exception):
    """A failure the library raises on purpose; the command line prints
    ``label: message`` and exits with ``exit_code``."""

    exit_code = 4
    label = "numerical error"


class ConfigFileError(TrapnoiseError, ValueError):
    """A configuration file is missing, malformed, or inconsistent."""

    exit_code = 2
    label = "config error"


class DataFileError(TrapnoiseError, ValueError):
    """A dataset file is malformed; the message carries the line number."""

    exit_code = 3
    label = "data error"


class DomainError(TrapnoiseError, ValueError):
    """Input outside the physical domain of an operation."""


class UnusableDataError(DomainError):
    """Data a fit cannot use: too few or repeated points, non-positive values."""

    exit_code = 3
    label = "data error"


class TemperatureRangeError(TrapnoiseError, ValueError):
    """Temperature outside the tabulated range (plus one grid step)."""


class DegenerateInterfaceError(TrapnoiseError, ZeroDivisionError):
    """A Fresnel denominator vanished exactly for some (eps_a, eps_b, u)."""


class QuadratureFailure(TrapnoiseError, RuntimeError):
    """Adaptive integration did not reach tolerance within the budget."""

    def __init__(self, message: str, value, error: float, evaluations: int):
        super().__init__(message)
        self.value = value
        self.error = error
        self.evaluations = evaluations


class FitFailure(TrapnoiseError, RuntimeError):
    """No convergence; carries the best point found for diagnostics."""

    def __init__(self, message: str, params, rss: float, n_iter: int):
        super().__init__(message)
        self.params = params
        self.rss = rss
        self.n_iter = n_iter


class PatchBudgetError(TrapnoiseError, RuntimeError):
    """More tiles would be summed directly than the patch budget allows.

    Exact mode sums every tile of a region, so coarsen patch_size or drop
    exact mode; the hybrid mode sums directly only the core around the ion
    and the region's partial last column and row.
    """


def require_above(value: float, what: str, lo: float = 0.0, *, or_equal: bool = False):
    """Raise :class:`DomainError` unless ``value`` is finite and > ``lo``
    (>= ``lo`` if ``or_equal``); ``what`` names the argument.  An int too
    large for a float counts as not finite."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"{what} must be finite, got {value}")
    if not (value >= lo if or_equal else value > lo):
        raise DomainError(f"{what} must be {'>=' if or_equal else '>'} {lo:g}, got {value}")


def pow_or_inf(base: float, exponent: float) -> float:
    """``base ** exponent`` of a base > 0 or an even power, but inf where a
    float power would raise OverflowError, so that :func:`require_above`
    on the result rejects it by name."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def heating_rate_from_noise(s_e: float, omega: float) -> float:
    """Motional heating rate (phonons/s) of a trapped 40Ca+ ion, from the
    single-sided electric-field noise density ``s_e`` (V^2 m^-2 Hz^-1) at the
    secular frequency ``omega`` (rad/s).

    Gamma = q^2 * S_E / (4 m hbar omega).
    """
    require_above(omega, "omega")
    require_above(s_e, "noise density", or_equal=True)
    # a tiny omega underflows the denominator to 0
    denominator = 4.0 * CONSTANTS.m_Ca40 * CONSTANTS.hbar * omega
    require_above(denominator, "4 m hbar omega")
    return CONSTANTS.q_e**2 * s_e / denominator


def noise_from_heating_rate(gamma: float, omega: float) -> float:
    """Electric-field noise density (V^2 m^-2 Hz^-1) equivalent to a 40Ca+
    heating rate ``gamma`` (phonons/s); exact algebraic inverse of
    :func:`heating_rate_from_noise`.
    """
    require_above(omega, "omega")
    require_above(gamma, "heating rate", or_equal=True)
    return gamma * 4.0 * CONSTANTS.m_Ca40 * CONSTANTS.hbar * omega / CONSTANTS.q_e**2


def omega_from_hz(f_hz: float) -> float:
    """Ordinary frequency (Hz) to angular frequency (rad/s)."""
    return 2.0 * math.pi * f_hz
