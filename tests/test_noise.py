"""Blackbody/FDT field noise and the Johnson-noise budget machinery."""

import math
import warnings

import numpy as np
import pytest

from trapnoise.constants import CONSTANTS, DomainError, heating_rate_from_noise
from trapnoise import noise
from trapnoise.layers import GreensResult, Layer, LayerStack, greens_parallel
from trapnoise.materials import (
    Conductor,
    FilmSheet,
    ResistivityTable,
    TwoFluidSC,
    Vacuum,
    parallel_sheet,
    ybco_normal_default,
)
from trapnoise.noise import (
    ElectrodeModel,
    FilterCapacitor,
    FilterNetwork,
    LeadModel,
    RectTrace,
    RegimeWarning,
    WireBond,
    blackbody_noise,
    fdt_noise,
    jnn_budget,
    skin_depth,
)

OMEGA_1MHZ = 2.0 * math.pi * 1.0e6

GOLD = ResistivityTable.from_pairs(
    [(4, 2.20e-10), (10, 2.26e-10), (20, 3.5e-10), (40, 1.41e-9),
     (60, 3.08e-9), (80, 4.81e-9), (100, 6.50e-9), (150, 1.061e-8),
     (200, 1.462e-8), (250, 1.866e-8), (273, 2.051e-8), (300, 2.271e-8)],
    label="au",
)
COPPER = ResistivityTable.from_pairs(
    [(4, 2.00e-11), (10, 2.02e-11), (20, 2.80e-11), (40, 2.39e-10),
     (60, 9.71e-10), (80, 2.15e-9), (100, 3.48e-9), (150, 6.99e-9),
     (200, 1.046e-8), (250, 1.386e-8), (273, 1.543e-8), (300, 1.725e-8)],
    label="cu",
)
ALUMINIUM = ResistivityTable.from_pairs(
    [(4, 9.90e-9), (10, 9.92e-9), (20, 1.000e-8), (40, 1.02e-8),
     (60, 1.10e-8), (80, 1.25e-8), (100, 1.44e-8), (150, 2.00e-8),
     (200, 2.59e-8), (250, 3.16e-8), (300, 3.73e-8)],
    label="al",
)


# ---------------------------------------------------------------------------
# blackbody and FDT


def test_blackbody_hand_value():
    # 2 kB T omega^2 / (3 pi eps0 c^3) at 300 K, 2pi x 1 MHz
    expected = (
        2.0 * CONSTANTS.kB * 300.0 * OMEGA_1MHZ**2
        / (3.0 * math.pi * CONSTANTS.eps0 * CONSTANTS.c**3)
    )
    assert blackbody_noise(OMEGA_1MHZ, 300.0) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(4.85e-23, rel=0.01)


def test_blackbody_scalings():
    base = blackbody_noise(OMEGA_1MHZ, 100.0)
    assert blackbody_noise(OMEGA_1MHZ, 200.0) == pytest.approx(2 * base, rel=1e-12)
    assert blackbody_noise(2 * OMEGA_1MHZ, 100.0) == pytest.approx(
        4 * base, rel=1e-12
    )


def test_blackbody_warns_outside_classical_regime():
    # hbar omega ~ kB T at THz frequencies and kelvin temperatures
    with pytest.warns(RegimeWarning):
        blackbody_noise(2 * math.pi * 1e12, 4.0)


def test_blackbody_domain():
    with pytest.raises(DomainError):
        blackbody_noise(0.0, 300.0)
    with pytest.raises(DomainError):
        blackbody_noise(OMEGA_1MHZ, -1.0)
    assert blackbody_noise(OMEGA_1MHZ, 0.0) == 0.0


def test_blackbody_rejects_an_overflowing_omega_squared_before_warning():
    # omega^2 overflows at 2 pi x 1e160 Hz; hbar omega >> kB T would warn too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^blackbody noise must be finite, got inf$"):
            blackbody_noise(2 * math.pi * 1e160, 40.0)


def test_fdt_above_vacuum_equals_blackbody():
    stack = LayerStack((Layer(Vacuum()),), name="empty")
    res = fdt_noise(stack, OMEGA_1MHZ, 300.0, 225e-6)
    assert res.s_e == res.s_blackbody
    assert res.greens.g_parallel == 0.0


def test_fdt_combines_blackbody_and_surface_response():
    stack = LayerStack((Layer(Conductor(GOLD, name="au")),), name="gold")
    res = fdt_noise(stack, OMEGA_1MHZ, 300.0, 225e-6)
    greens = greens_parallel(stack, OMEGA_1MHZ, 300.0, 225e-6)
    s_bb = blackbody_noise(OMEGA_1MHZ, 300.0)
    assert res.s_blackbody == pytest.approx(s_bb, rel=1e-15)
    assert res.s_e == pytest.approx(s_bb * (1.0 + greens.g_parallel), rel=1e-6)
    # a warm conductor close by adds far more noise than free space
    assert res.s_e > 100.0 * s_bb


def _stub_greens(monkeypatch, g_parallel, error):
    """Replace ``noise.greens_parallel``, the name fdt_noise calls and the
    benchmark's tracer wraps, by a stub that records each call."""
    calls = []

    def stub(*args):
        calls.append(args)
        return GreensResult(g_parallel, error, 15, g_parallel, 0.0)

    monkeypatch.setattr(noise, "greens_parallel", stub)
    return calls


def test_fdt_calls_greens_parallel_through_the_noise_module(monkeypatch):
    stack = LayerStack((Layer(Vacuum()),), name="empty")
    calls = _stub_greens(monkeypatch, 0.5, 1e-9)
    res = fdt_noise(stack, OMEGA_1MHZ, 300.0, 225e-6, rel_tol=1e-4)
    assert calls == [(stack, OMEGA_1MHZ, 300.0, 225e-6, 1e-4)]
    assert res.greens.g_parallel == 0.5
    assert res.s_e == res.s_blackbody * 1.5


def test_fdt_clamps_a_negative_factor_within_ten_errors_to_zero(monkeypatch):
    # 1 + g = -1e-12 lies within 10 x error = 1e-11 of 0
    stack = LayerStack((Layer(Vacuum()),), name="empty")
    _stub_greens(monkeypatch, -1.0 - 1e-12, 1e-12)
    res = fdt_noise(stack, OMEGA_1MHZ, 300.0, 225e-6)
    assert res.s_e == 0.0
    assert res.s_blackbody > 0.0


def test_fdt_refuses_a_negative_factor_beyond_ten_errors(monkeypatch):
    stack = LayerStack((Layer(Vacuum()),), name="empty")
    _stub_greens(monkeypatch, -1.0 - 1e-6, 1e-9)
    with pytest.raises(DomainError, match=r"^unphysical negative noise factor 1\+g = "
                                          r"-1\.000e-06 \(quadrature error 1\.000e-09\)$"):
        fdt_noise(stack, OMEGA_1MHZ, 300.0, 225e-6)


# ---------------------------------------------------------------------------
# filter network


def trap_filter() -> FilterNetwork:
    return FilterNetwork(
        series_r=100.0,
        capacitors=(
            FilterCapacitor(330e-9, esr=24e-3),
            FilterCapacitor(470e-12, esr=1.3),
        ),
    )


def test_filter_effective_resistance_against_direct_admittance():
    omega = OMEGA_1MHZ
    y = 1.0 / 100.0
    y += 1.0 / (24e-3 + 1.0 / (1j * omega * 330e-9))
    y += 1.0 / (1.3 + 1.0 / (1j * omega * 470e-12))
    expected = (1.0 / y).real
    assert trap_filter().resistance(omega) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(26.25e-3, rel=1e-3)


def test_filter_without_capacitors_is_plain_resistor():
    net = FilterNetwork(series_r=47.0)
    assert net.resistance(OMEGA_1MHZ) == pytest.approx(47.0)


def test_filter_low_frequency_limit_is_series_r():
    # capacitors open up as omega -> 0
    assert trap_filter().resistance(1e-2) == pytest.approx(100.0, rel=1e-6)


def test_filter_validation():
    with pytest.raises(DomainError):
        FilterNetwork(series_r=0.0)
    with pytest.raises(DomainError):
        FilterCapacitor(-1e-9)
    with pytest.raises(DomainError):
        FilterCapacitor(1e-9, esr=-0.1)
    with pytest.raises(DomainError):
        trap_filter().resistance(0.0)


# ---------------------------------------------------------------------------
# skin effect, traces, bonds, leads


def test_skin_depth_hand_value():
    # sqrt(2 rho / (omega mu0)) for gold at 300 K and 1 MHz is ~76 um
    delta = skin_depth(2.271e-8, OMEGA_1MHZ)
    assert delta == pytest.approx(
        math.sqrt(2 * 2.271e-8 / (OMEGA_1MHZ * CONSTANTS.mu0)), rel=1e-12
    )
    assert delta == pytest.approx(75.8e-6, rel=1e-2)
    with pytest.raises(DomainError):
        skin_depth(-1e-8, OMEGA_1MHZ)


def test_trace_resistance_dc_limit():
    # skin depth far larger than the cross-section: R = rho L / (w t)
    trace = RectTrace(10e-6, 300e-9, 5.18e-3, Conductor(ALUMINIUM, name="al"))
    expected = 1.000e-8 * 5.18e-3 / (10e-6 * 300e-9)
    assert trace.resistance(OMEGA_1MHZ, 20.0) == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(17.27, rel=1e-3)


def test_trace_resistance_skin_limited():
    # fat copper trace at 150 K: current flows in a skin-depth shell
    trace = RectTrace(300e-6, 100e-6, 1e-2, Conductor(COPPER, name="cu"))
    rho = 6.99e-9
    delta = skin_depth(rho, OMEGA_1MHZ)
    assert 2 * delta < 100e-6  # genuinely shell-limited
    shell = 300e-6 * 100e-6 - (300e-6 - 2 * delta) * (100e-6 - 2 * delta)
    assert trace.resistance(OMEGA_1MHZ, 150.0) == pytest.approx(
        rho * 1e-2 / shell, rel=1e-12
    )
    # and it exceeds the DC value
    assert trace.resistance(OMEGA_1MHZ, 150.0) > rho * 1e-2 / (300e-6 * 100e-6)


@pytest.mark.parametrize(
    "part, what",
    [(RectTrace(300e-6, 100e-6, 1e-2, Conductor(COPPER, name="cu")), "trace"),
     (WireBond(25e-6, 1e-2, Conductor(GOLD, name="au")), "bond")],
    ids=["trace", "bond"],
)
def test_a_skin_depth_shell_that_rounds_to_zero_area_is_a_domain_error(part, what):
    # at 1e200 rad/s the skin depth is ~1e-101 m: the shell's area is 0
    with pytest.raises(DomainError, match=f"^{what} skin-depth shell area must be > 0, got 0.0$"):
        part.resistance(1e200, 40.0)


def test_bond_resistance_limits():
    bond = WireBond(25e-6, 1e-2, Conductor(GOLD, name="au"))
    rho = GOLD.lookup(40.0)
    delta = skin_depth(rho, OMEGA_1MHZ)
    r = 12.5e-6
    if delta >= r:
        area = math.pi * r**2
    else:
        area = math.pi * (r**2 - (r - delta) ** 2)
    assert bond.resistance(OMEGA_1MHZ, 40.0) == pytest.approx(
        rho * 1e-2 / area, rel=1e-12
    )


def lead_r(lead, temperature, bonds=1):
    """R_lead of a bare strip electrode on ``lead`` at 1 MHz."""
    e = ElectrodeModel("E", 5.10e-3, 5.0e-3, 25e-6, lead=lead, bonds=bonds)
    return e.resistances(OMEGA_1MHZ, temperature)[1]


def test_lead_resistance_divides_bond_and_contact_by_bonds():
    trace = RectTrace(300e-6, 100e-6, 1e-2, Conductor(COPPER, name="cu"))
    lead = LeadModel(
        pcb_trace=trace,
        wire_bond=WireBond(25e-6, 1e-2, Conductor(GOLD, name="au")),
        contact_r_per_bond=75e-3,
    )
    r_trace = trace.resistance(OMEGA_1MHZ, 40.0)
    r1 = lead_r(lead, 40.0)
    r2 = lead_r(lead, 40.0, bonds=2)
    assert r2 - r_trace == pytest.approx(0.5 * (r1 - r_trace), rel=1e-12)


def test_electrode_bonds_divide_its_lead_and_need_a_bond_wire():
    lead = LeadModel(wire_bond=WireBond(25e-6, 1e-2, Conductor(GOLD, name="au")),
                     contact_r_per_bond=75e-3)
    double = ElectrodeModel("E", 5.10e-3, 5.0e-3, 25e-6, lead=lead, bonds=2)
    n = jnn_budget([double], OMEGA_1MHZ, 40.0).electrodes["E"]
    assert n.r_lead == (75e-3 + lead.wire_bond.resistance(OMEGA_1MHZ, 40.0)) / 2
    with pytest.raises(DomainError, match="^bonds > 1 requires a lead with a bond wire$"):
        ElectrodeModel("E", 5.10e-3, 5.0e-3, 25e-6, lead=LeadModel(), bonds=2)
    with pytest.raises(DomainError, match="^bonds must be >= 1, got 0$"):
        ElectrodeModel("E", 5.10e-3, 5.0e-3, 25e-6, lead=lead, bonds=0)


def test_lead_resistance_contact_only():
    lead = LeadModel(contact_r_per_bond=0.1)
    assert lead_r(lead, 40.0) == pytest.approx(0.1)
    assert lead_r(LeadModel(), 40.0) == 0.0


# ---------------------------------------------------------------------------
# electrodes and the budget


def ybco() -> TwoFluidSC:
    return TwoFluidSC(
        lambda0=150e-9, Tc=89.0, sigma_n=1.81e6,
        rho_normal=ybco_normal_default(), name="ybco",
    )


def strip_electrode(films=(), filter_net=None, name="E") -> ElectrodeModel:
    return ElectrodeModel(
        name=name,
        characteristic_distance=5.10e-3,
        strip_length=5.0e-3,
        strip_width=25e-6,
        films=films,
        filter=filter_net,
    )


def test_electrode_resistance_bare_strip_is_zero():
    assert strip_electrode().resistances(OMEGA_1MHZ, 40.0)[2] == 0.0


def test_electrode_resistance_parallel_films():
    films = (
        FilmSheet(Conductor(GOLD, name="au"), 200e-9),
        FilmSheet(ybco(), 300e-9),
    )
    e = strip_electrode(films=films)
    r_sq = parallel_sheet(
        films[0].sheet_resistance(OMEGA_1MHZ, 40.0),
        films[1].sheet_resistance(OMEGA_1MHZ, 40.0),
    )
    expected = r_sq * 5.0e-3 / 25e-6
    assert e.resistances(OMEGA_1MHZ, 40.0)[2] == pytest.approx(expected, rel=1e-12)
    # below Tc the superconductor shorts the strip to the ~1e-7 Ohm/sq floor
    assert r_sq == pytest.approx(1e-7, rel=0.01)


def test_jnn_budget_single_resistor_hand_value():
    # one electrode whose only dissipation is a filter: S = 4 kB T R / D^2
    e = strip_electrode(filter_net=FilterNetwork(series_r=50.0))
    budget = jnn_budget([e], OMEGA_1MHZ, 40.0)
    r_eff = e.filter.resistance(OMEGA_1MHZ)
    expected = 4.0 * CONSTANTS.kB * 40.0 * r_eff / 5.10e-3**2
    assert budget.total == pytest.approx(expected, rel=1e-12)
    assert budget.electrodes["E"].s_e == pytest.approx(expected, rel=1e-12)


def test_jnn_budget_linear_in_temperature_for_fixed_resistance():
    e = strip_electrode(filter_net=FilterNetwork(series_r=50.0))
    b1 = jnn_budget([e], OMEGA_1MHZ, 40.0)
    b2 = jnn_budget([e], OMEGA_1MHZ, 80.0)
    assert b2.total == pytest.approx(2.0 * b1.total, rel=1e-12)


def test_jnn_budget_sums_electrodes_and_reports_fractions():
    e1 = strip_electrode(filter_net=FilterNetwork(series_r=50.0), name="A")
    e2 = ElectrodeModel(
        name="B",
        characteristic_distance=10.2e-3,  # double distance: quarter noise
        strip_length=5.0e-3,
        strip_width=25e-6,
        filter=FilterNetwork(series_r=50.0),
    )
    budget = jnn_budget([e1, e2], OMEGA_1MHZ, 40.0)
    s_a, s_b = budget.electrodes["A"].s_e, budget.electrodes["B"].s_e
    assert budget.total == pytest.approx(s_a + s_b, rel=1e-15)
    assert s_a / budget.total == pytest.approx(0.8, rel=1e-12)
    assert s_b / budget.total == pytest.approx(0.2, rel=1e-12)


def test_jnn_budget_carries_distances_and_heating_rates():
    electrodes = [
        strip_electrode(filter_net=FilterNetwork(series_r=50.0), name="A"),
        ElectrodeModel("B", 10.2e-3, 5.0e-3, 25e-6, filter=FilterNetwork(80.0)),
    ]
    for temperature in (0.0, 40.0):
        budget = jnn_budget(electrodes, OMEGA_1MHZ, temperature)
        assert list(budget.electrodes) == ["A", "B"]
        for e in electrodes:
            n = budget.electrodes[e.name]
            assert n.distance == e.characteristic_distance
            assert n.gamma == heating_rate_from_noise(n.s_e, OMEGA_1MHZ)
        assert budget.gamma == heating_rate_from_noise(budget.total, OMEGA_1MHZ)
    assert budget.gamma > 0.0


def test_jnn_budget_validation():
    with pytest.raises(DomainError):
        jnn_budget([], OMEGA_1MHZ, 40.0)
    e = strip_electrode()
    with pytest.raises(DomainError):
        jnn_budget([e], OMEGA_1MHZ, -4.0)
    # keyed by name, a second "E" would silently replace the first
    with pytest.raises(DomainError, match="duplicate"):
        jnn_budget([e, strip_electrode(filter_net=FilterNetwork(50.0))],
                   OMEGA_1MHZ, 40.0)


def test_jnn_budget_resistance_split():
    e = ElectrodeModel(
        name="E",
        characteristic_distance=5.10e-3,
        strip_length=5.0e-3,
        strip_width=25e-6,
        films=(FilmSheet(Conductor(GOLD, name="au"), 200e-9),),
        lead=LeadModel(
            pcb_trace=RectTrace(100e-6, 35e-6, 0.1, Conductor(COPPER, "cu"))
        ),
        filter=FilterNetwork(50.0, (FilterCapacitor(1e-9, 0.1),)),
    )
    for temperature in (20.0, 80.0, 200.0):
        n = jnn_budget([e], OMEGA_1MHZ, temperature).electrodes["E"]
        assert n.r_filter == e.filter.resistance(OMEGA_1MHZ)
        assert n.r_lead == e.lead.pcb_trace.resistance(OMEGA_1MHZ, temperature)
        assert n.r_elec == (e.films[0].sheet_resistance(OMEGA_1MHZ, temperature)
                            * 5.0e-3 / 25e-6)
        r_eff = n.r_eff
        assert n.r_filter + n.r_lead + n.r_elec == r_eff == n.r_eff
        assert n.s_e == pytest.approx(
            4.0 * CONSTANTS.kB * temperature * r_eff / 5.10e-3**2, rel=1e-15
        )


def test_aluminium_lead_benchmark():
    # thin-film meander lead at 20 K: R ~ 17.3 Ohm, S_E ~ 7.33e-16 per lead,
    # and ~0.21 phonons/s for an ion coupled to two such leads at 1 MHz
    lead = LeadModel(
        pcb_trace=RectTrace(10e-6, 300e-9, 5.18e-3, Conductor(ALUMINIUM, "al"))
    )
    electrodes = [
        ElectrodeModel(
            name=name,
            characteristic_distance=5.10e-3,
            strip_length=5.0e-3,
            strip_width=25e-6,
            lead=lead,
        )
        for name in ("C1", "C2")
    ]
    r = lead_r(lead, 20.0)
    assert r == pytest.approx(17.3, rel=0.01)
    budget = jnn_budget(electrodes, OMEGA_1MHZ, 20.0)
    per_lead = budget.electrodes["C1"].s_e
    assert per_lead == pytest.approx(7.33e-16, rel=0.01)
    gamma = heating_rate_from_noise(budget.total, OMEGA_1MHZ)
    assert gamma == pytest.approx(0.21, rel=0.05)
