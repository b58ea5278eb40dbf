"""Material models: complex relative permittivity eps(omega, T) and
resistivity / sheet-resistance helpers for trap electrode stacks.

Supported material kinds:

* vacuum
* conductor        -- metallic, conductivity-dominated: eps = i sigma(T)/(omega eps0)
* two-fluid superconductor -- below Tc a superfluid term -1/(k lambda(T))^2 plus a
  normal-carrier conductivity term; at or above Tc a normal metal backed by a
  resistivity table
* lossy dielectric -- eps = eps_r (1 + i tan_delta)

Resistivity tables interpolate log-linearly in rho vs T.  Lookups are allowed
to extrapolate by at most one grid step beyond either end of the table;
anything further raises :class:`TemperatureRangeError`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .constants import (
    CONSTANTS,
    DomainError,
    TemperatureRangeError,
    omega_from_hz,
    pow_or_inf,
    require_above,
)


@dataclass(frozen=True)
class ResistivityTable:
    """Tabulated DC resistivity rho(T), log-linearly interpolated."""

    temperatures: tuple[float, ...]  # K, strictly increasing
    resistivities: tuple[float, ...]  # Ohm*m, > 0
    label: str = ""

    def __post_init__(self):
        t, r = self.temperatures, self.resistivities
        if len(t) != len(r) or len(t) < 2:
            raise DomainError("table needs >= 2 (T, rho) pairs of equal length")
        for temp, rho in zip(t, r):
            require_above(temp, f"temperature in table {self.label!r}", -math.inf)
            require_above(rho, f"resistivity in table {self.label!r}")
        if not all(b > a for a, b in zip(t, t[1:])):
            raise DomainError(f"temperatures must be strictly increasing: {self.label}")

    @classmethod
    def from_pairs(cls, pairs, label: str = "") -> "ResistivityTable":
        pairs = sorted(pairs)
        return cls(
            temperatures=tuple(p[0] for p in pairs),
            resistivities=tuple(p[1] for p in pairs),
            label=label,
        )

    def lookup(self, temperature: float) -> float:
        """Interpolated rho(T) in Ohm*m.

        Within the table: piecewise-linear in (T, ln rho).  Outside: the end
        segment is continued for at most one grid step, beyond which a
        :class:`TemperatureRangeError` is raised.
        """
        t, r = self.temperatures, self.resistivities
        lo_margin = t[1] - t[0]
        hi_margin = t[-1] - t[-2]
        if not t[0] - lo_margin <= temperature <= t[-1] + hi_margin:  # or NaN
            raise TemperatureRangeError(
                f"T = {temperature} K outside table '{self.label}' "
                f"range [{t[0]}, {t[-1]}] K (one-step margin exceeded)"
            )
        i = min(max(bisect_right(t, temperature) - 1, 0), len(t) - 2)
        frac = (temperature - t[i]) / (t[i + 1] - t[i])
        log_rho = (1.0 - frac) * math.log(r[i]) + frac * math.log(r[i + 1])
        return math.exp(log_rho)


def _conduction(sigma: float, omega: float) -> float:
    """Im eps = sigma / (omega eps0) of the conductivity ``sigma`` (S/m)."""
    return sigma / (omega * CONSTANTS.eps0)


@dataclass(frozen=True)
class Vacuum:
    name: str = "vacuum"

    def permittivity(self, omega: float, temperature: float) -> complex:
        return complex(1.0, 0.0)


@dataclass(frozen=True)
class LossyDielectric:
    eps_r: float
    tan_delta: float
    name: str = "dielectric"

    def __post_init__(self):
        require_above(self.eps_r, "eps_r", 1.0, or_equal=True)
        require_above(self.tan_delta, "tan_delta", or_equal=True)

    def permittivity(self, omega: float, temperature: float) -> complex:
        return self.eps_r * complex(1.0, self.tan_delta)


@dataclass(frozen=True)
class Conductor:
    rho: ResistivityTable
    name: str = "conductor"

    def conductivity(self, temperature: float) -> float:
        return 1.0 / self.rho.lookup(temperature)

    def permittivity(self, omega: float, temperature: float) -> complex:
        require_above(omega, "omega")
        return complex(0.0, _conduction(self.conductivity(temperature), omega))


@dataclass(frozen=True)
class SCSheetSpec:
    """Superconducting-state residual sheet resistance model.

    The film datasheet quotes rs_ref at omega_ref; BCS-like losses scale as
    omega^2, but measured films bottom out at a residual floor at low
    frequency, so the model is rs_ref*(omega/omega_ref)^2 + rs_residual.
    """

    rs_ref: float = 0.11e-3        # Ohm/sq
    omega_ref: float = omega_from_hz(10.9e9)  # rad/s
    rs_residual: float = 1.0e-7    # Ohm/sq, measured floor at tens of MHz

    def __post_init__(self):
        require_above(self.rs_ref, "reference sheet resistance", or_equal=True)
        require_above(self.omega_ref, "reference omega")
        require_above(self.rs_residual, "residual sheet resistance", or_equal=True)
        # an ideal sheet written as -0.0 is +0.0, so no budget prints -0.0
        for name in ("rs_ref", "rs_residual"):
            object.__setattr__(self, name, getattr(self, name) + 0.0)

    def sheet_resistance(self, omega: float) -> float:
        if self.rs_ref == 0.0:  # an ideal sheet keeps its floor at any omega
            return self.rs_residual
        rs = self.rs_ref * pow_or_inf(omega / self.omega_ref, 2) + self.rs_residual
        require_above(rs, "superconducting sheet resistance", or_equal=True)
        return rs


@dataclass(frozen=True)
class TwoFluidSC:
    """Two-fluid superconductor with d-wave penetration-depth scaling."""

    lambda0: float                 # m, zero-temperature London depth
    Tc: float                      # K
    sigma_n: float                 # S/m, normal conductivity just above Tc
    rho_normal: ResistivityTable   # used for T >= Tc
    sc_sheet: SCSheetSpec = field(default_factory=SCSheetSpec)
    name: str = "superconductor"

    def __post_init__(self):
        require_above(self.lambda0, "lambda0")
        require_above(self.Tc, "Tc")
        require_above(self.sigma_n, "sigma_n")

    def permittivity(self, omega: float, temperature: float) -> complex:
        require_above(omega, "omega")
        if temperature >= self.Tc:
            sigma = 1.0 / self.rho_normal.lookup(temperature)
            return complex(0.0, _conduction(sigma, omega))
        lam = london_depth(self.lambda0, self.Tc, temperature)
        k = omega / CONSTANTS.c
        sigma_normal_carriers = self.sigma_n * temperature / self.Tc
        k_lam2 = pow_or_inf(k * lam, 2)
        if not 0.0 < k_lam2 < math.inf:
            raise DomainError(f"{self.name}: (k lambda)^2 is {k_lam2:g} at omega = {omega}")
        return complex(1.0 - 1.0 / k_lam2, _conduction(sigma_normal_carriers, omega))


MaterialModel = Vacuum | Conductor | TwoFluidSC | LossyDielectric


@dataclass(frozen=True)
class FilmSheet:
    """A thin conductor or superconductor film with its sheet resistance at (omega, T)."""

    material: Conductor | TwoFluidSC
    thickness: float  # m

    def __post_init__(self):
        require_above(self.thickness, "thickness")
        if not isinstance(mat := self.material, (Conductor, TwoFluidSC)):
            raise DomainError(f"film material {getattr(mat, 'name', mat)!r} "
                              "must be a conductor or a superconductor")

    def sheet_resistance(self, omega: float, temperature: float) -> float:
        """Sheet resistance (Ohm/sq) at (omega, T).

        Conductors and normal-state superconductors: rho(T)/thickness.
        Superconducting films below Tc return the configured residual AC sheet
        resistance, which depends on omega rather than on thickness.
        """
        mat = self.material
        if isinstance(mat, Conductor):
            return mat.rho.lookup(temperature) / self.thickness
        if temperature >= mat.Tc:
            return mat.rho_normal.lookup(temperature) / self.thickness
        return mat.sc_sheet.sheet_resistance(omega)


def london_depth(lambda0: float, Tc: float, temperature: float) -> float:
    """London penetration depth lambda(T) = lambda0 / sqrt(1 - T/Tc)."""
    if not 0.0 < temperature < Tc:
        raise DomainError(
            f"T = {temperature} K outside superconducting range (0, {Tc}) K"
        )
    return lambda0 / math.sqrt(1.0 - temperature / Tc)


def permittivity(model: MaterialModel, omega: float, temperature: float) -> complex:
    """Complex relative permittivity of ``model`` at (omega, T)."""
    require_above(omega, "omega")
    require_above(temperature, "temperature")
    return model.permittivity(omega, temperature)


def parallel_sheet(a: float, b: float) -> float:
    """Parallel combination a*b/(a+b) of sheet resistances: 0 shorts, +inf is open."""
    if not (a >= 0.0 and b >= 0.0):
        raise DomainError(f"sheet resistances must be >= 0, got {a}, {b}")
    if a == 0.0 or b == 0.0:
        return 0.0
    if math.isinf(a):
        return b
    if math.isinf(b):
        return a
    return a * b / (a + b)


def ybco_normal_default(
    sigma_n: float = 1.81e6, Tc: float = 89.0, t_max: float = 320.0
) -> ResistivityTable:
    """Constant-slope normal-state resistivity for YBCO above Tc, tabulated at
    24 points from Tc to t_max.

    Anchored at rho(Tc) = 1/sigma_n and extrapolated linearly through the
    origin, the usual approximation when no measured 4-wire data is supplied.
    """
    rho_c = 1.0 / sigma_n
    temps = [Tc + i * (t_max - Tc) / 23 for i in range(24)]
    return ResistivityTable(
        temperatures=tuple(temps),
        resistivities=tuple(rho_c * t / Tc for t in temps),
        label="ybco-normal-default",
    )
