"""Physical noise estimates seen by a trapped ion.

Two independent routes to the electric-field noise density S_E (V^2 m^-2 Hz^-1,
single-sided, at angular frequency omega):

* fluctuation-dissipation: blackbody noise times the surface response
  factor (1 + g_parallel) of the layered chip;
* Johnson noise of the drive circuitry: 4 kB T R_eff / D^2 summed over
  electrodes, with R_eff = R_filter + R_lead + R_elec.
  Each part computes its own resistance, omega before T, and
  ``ElectrodeModel.resistances(omega, temperature)`` returns the three terms.

The Johnson budget is scalar :mod:`math`: importing this module loads only
:mod:`~trapnoise.constants` and :mod:`~trapnoise.materials`, and no numpy.
:mod:`~trapnoise.layers`, and numpy with it, loads when :func:`fdt_noise`
first calls :func:`greens_parallel`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING

from .constants import (
    CONSTANTS,
    DomainError,
    heating_rate_from_noise,
    pow_or_inf,
    require_above,
)
from .materials import Conductor, FilmSheet, parallel_sheet

if TYPE_CHECKING:
    from .layers import GreensResult, LayerStack

__all__ = [
    "RegimeWarning",
    "FdtResult",
    "FilterCapacitor",
    "FilterNetwork",
    "RectTrace",
    "WireBond",
    "LeadModel",
    "ElectrodeModel",
    "ElectrodeNoise",
    "NoiseBudget",
    "blackbody_noise",
    "fdt_noise",
    "skin_depth",
    "jnn_budget",
]


class RegimeWarning(UserWarning):
    """A formula is being used outside its stated validity regime."""


def blackbody_noise(omega: float, temperature: float) -> float:
    """Classical blackbody field noise 2 kB T omega^2 / (3 pi eps0 c^3).

    Valid for hbar*omega << kB*T; warns above a 1% ratio.
    """
    require_above(omega, "omega")
    require_above(temperature, "temperature", or_equal=True)
    s_bb = (
        2.0 * CONSTANTS.kB * temperature * pow_or_inf(omega, 2)
        / (3.0 * math.pi * CONSTANTS.eps0 * CONSTANTS.c**3)
    )
    require_above(s_bb, "blackbody noise", or_equal=True)
    if temperature > 0.0:
        ratio = CONSTANTS.hbar * omega / (CONSTANTS.kB * temperature)
        if ratio > 0.01:
            warnings.warn(
                f"hbar*omega/kB*T = {ratio:.3g} > 0.01; classical blackbody "
                "formula loses validity",
                RegimeWarning,
                stacklevel=2,
            )
    return s_bb


@dataclass(frozen=True)
class FdtResult:
    """Field noise at the ion with the surface-response diagnostics."""

    s_e: float
    s_blackbody: float
    greens: GreensResult


def greens_parallel(
    stack: LayerStack,
    omega: float,
    temperature: float,
    distance: float,
    rel_tol: float = 1e-6,
) -> GreensResult:
    """:func:`trapnoise.layers.greens_parallel`, imported on the first call;
    :func:`fdt_noise` calls it by this module's name."""
    from . import layers

    return layers.greens_parallel(stack, omega, temperature, distance, rel_tol)


def fdt_noise(
    stack: LayerStack,
    omega: float,
    temperature: float,
    distance: float,
    rel_tol: float = 1e-6,
) -> FdtResult:
    """S_E = S_bb * (1 + g_parallel) above the given layer stack; ``rel_tol``
    is the relative tolerance of the g_parallel quadrature."""
    s_bb = blackbody_noise(omega, temperature)
    res = greens_parallel(stack, omega, temperature, distance, rel_tol)
    factor = 1.0 + res.g_parallel
    if factor < 0.0:
        # tiny negative excursions within the quadrature error are noise
        if -factor <= 10.0 * max(res.error, 1e-15):
            factor = 0.0
        else:
            raise DomainError(
                f"unphysical negative noise factor 1+g = {factor:.3e} "
                f"(quadrature error {res.error:.3e})"
            )
    return FdtResult(s_e=s_bb * factor, s_blackbody=s_bb, greens=res)


# ---------------------------------------------------------------------------
# Johnson noise of filters, leads, and patterned electrodes


@dataclass(frozen=True)
class FilterCapacitor:
    capacitance: float
    esr: float = 0.0

    def __post_init__(self):
        require_above(self.capacitance, "capacitance")
        require_above(self.esr, "ESR", or_equal=True)


@dataclass(frozen=True)
class FilterNetwork:
    """First-order RC low-pass: series R shunted by lossy capacitors."""

    series_r: float
    capacitors: tuple[FilterCapacitor, ...] = ()

    def __post_init__(self):
        require_above(self.series_r, "series R")

    def resistance(self, omega: float) -> float:
        """Re Z of the filter as seen from the electrode."""
        require_above(omega, "omega")
        admittance = 1.0 / complex(self.series_r)
        for cap in self.capacitors:
            admittance += 1.0 / (cap.esr + 1.0 / (1j * omega * cap.capacitance))
        return (1.0 / admittance).real


def skin_depth(rho: float, omega: float) -> float:
    require_above(rho, "rho")
    require_above(omega, "omega")
    return math.sqrt(2.0 * rho / (omega * CONSTANTS.mu0))


def _require_conductor(material, what: str) -> None:
    if not isinstance(material, Conductor):  # a lead's resistance reads material.rho
        raise DomainError(f"{what} material {getattr(material, 'name', material)!r} "
                          "must be a conductor with a resistivity table")


@dataclass(frozen=True)
class RectTrace:
    """Rectangular conductor trace; current crowds into a skin-depth shell."""

    width: float
    thickness: float
    length: float
    material: Conductor

    def __post_init__(self):
        require_above(self.width, "trace width")
        require_above(self.thickness, "trace thickness")
        require_above(self.length, "trace length")
        _require_conductor(self.material, "trace")

    def resistance(self, omega: float, temperature: float) -> float:
        rho = self.material.rho.lookup(temperature)
        delta = skin_depth(rho, omega)
        core_w = max(self.width - 2.0 * delta, 0.0)
        core_t = max(self.thickness - 2.0 * delta, 0.0)
        area = self.width * self.thickness - core_w * core_t
        require_above(area, "trace skin-depth shell area")  # 0 once delta << width
        return rho * self.length / area


@dataclass(frozen=True)
class WireBond:
    """One round bond wire; its electrode counts the parallel bonds."""

    diameter: float
    length: float
    material: Conductor

    def __post_init__(self):
        require_above(self.diameter, "bond diameter")
        require_above(self.length, "bond length")
        _require_conductor(self.material, "bond")

    def resistance(self, omega: float, temperature: float) -> float:
        rho = self.material.rho.lookup(temperature)
        delta = skin_depth(rho, omega)
        r = 0.5 * self.diameter
        area = math.pi * (r**2 - max(r - delta, 0.0) ** 2)
        require_above(area, "bond skin-depth shell area")  # 0 once delta << radius
        return rho * self.length / area


@dataclass(frozen=True)
class LeadModel:
    """Series path from filter board to chip: trace, bond wire, contacts.

    ``ElectrodeModel.resistances`` divides one bond's wire and contact
    resistance by the electrode's ``bonds`` and adds the trace.
    """

    pcb_trace: RectTrace | None = None
    wire_bond: WireBond | None = None
    contact_r_per_bond: float = 0.0

    def __post_init__(self):
        require_above(self.contact_r_per_bond, "contact resistance", or_equal=True)


@dataclass(frozen=True)
class ElectrodeModel:
    """One DC electrode: film stack, lead, filter, coupling D and parallel
    bonds; ``resistances(omega, temperature)`` gives its budget line."""

    name: str
    characteristic_distance: float
    strip_length: float
    strip_width: float
    films: tuple[FilmSheet, ...] = ()
    lead: LeadModel = field(default_factory=LeadModel)
    filter: FilterNetwork | None = None
    bonds: int = 1

    def __post_init__(self):
        require_above(self.characteristic_distance, "characteristic distance")
        require_above(self.strip_length, "strip length")
        require_above(self.strip_width, "strip width")
        require_above(self.bonds, "bonds", 1, or_equal=True)
        if self.bonds > 1 and self.lead.wire_bond is None:
            raise DomainError("bonds > 1 requires a lead with a bond wire")

    def resistances(self, omega: float, temperature: float) -> tuple[float, float, float]:
        """(R_filter, R_lead, R_elec) in ohm: the filter's Re Z (0 without a
        filter); the lead's trace plus one bond's wire and contact resistance
        over ``bonds``; the strip resistance R_sq * l/w of the parallel film
        sheets (0 if bare)."""
        r_filter = self.filter.resistance(omega) if self.filter is not None else 0.0
        lead = self.lead
        r_lead = 0.0
        if lead.pcb_trace is not None:
            r_lead += lead.pcb_trace.resistance(omega, temperature)
        per_bond = lead.contact_r_per_bond
        if lead.wire_bond is not None:
            per_bond += lead.wire_bond.resistance(omega, temperature)
        r_lead += per_bond / self.bonds
        if not self.films:
            return r_filter, r_lead, 0.0
        r_sq = reduce(parallel_sheet, (f.sheet_resistance(omega, temperature)
                                       for f in self.films))
        return r_filter, r_lead, r_sq * self.strip_length / self.strip_width


@dataclass(frozen=True)
class ElectrodeNoise:
    """One electrode's line of a Johnson budget: resistances in ohm, its
    coupling distance D in m, S_E in V^2 m^-2 Hz^-1 and the heating rate
    Gamma it drives in phonons/s."""

    r_filter: float
    r_lead: float
    r_elec: float
    r_eff: float
    distance: float
    s_e: float
    gamma: float


@dataclass(frozen=True)
class NoiseBudget:
    """Each electrode's line in inventory order, the total S_E and the
    total's heating rate Gamma (phonons/s)."""

    electrodes: dict[str, ElectrodeNoise]
    total: float
    gamma: float


def _electrode_noise(
    e: ElectrodeModel, omega: float, temperature: float
) -> ElectrodeNoise:
    r_filter, r_lead, r_elec = e.resistances(omega, temperature)
    # this summation order fixes the last digit of the CLI's R_eff column
    r_eff = r_filter + r_lead + r_elec
    d = e.characteristic_distance
    s_e = 4.0 * CONSTANTS.kB * temperature * r_eff / d**2
    gamma = heating_rate_from_noise(s_e, omega)
    return ElectrodeNoise(r_filter, r_lead, r_elec, r_eff, d, s_e, gamma)


def jnn_budget(
    electrodes: list[ElectrodeModel] | tuple[ElectrodeModel, ...],
    omega: float,
    temperature: float,
) -> NoiseBudget:
    """S_E = 4 kB T sum_i R_eff,i / D_i^2 over the electrode inventory, and
    the heating rates at secular frequency ``omega`` it drives.

    The budget keeps each electrode's resistance split next to its S_E, in
    inventory order; electrode names must be unique.
    """
    if not electrodes:
        raise DomainError("electrode list must be non-empty")
    require_above(temperature, "temperature", or_equal=True)
    per: dict[str, ElectrodeNoise] = {}
    for e in electrodes:
        if e.name in per:
            raise DomainError(f"duplicate electrode name {e.name!r}")
        per[e.name] = _electrode_noise(e, omega, temperature)
    total = sum(n.s_e for n in per.values())
    return NoiseBudget(per, total, heating_rate_from_noise(total, omega))
