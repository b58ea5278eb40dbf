"""Material permittivities, resistivity tables, and sheet resistances."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from trapnoise.constants import CONSTANTS, DomainError
from trapnoise.materials import (
    Conductor,
    FilmSheet,
    LossyDielectric,
    ResistivityTable,
    SCSheetSpec,
    TemperatureRangeError,
    TwoFluidSC,
    Vacuum,
    london_depth,
    parallel_sheet,
    permittivity,
    ybco_normal_default,
)

GOLD_PAIRS = [
    (4, 2.20e-10), (10, 2.26e-10), (20, 3.5e-10), (40, 1.41e-9),
    (60, 3.08e-9), (80, 4.81e-9), (100, 6.50e-9), (150, 1.061e-8),
    (200, 1.462e-8), (250, 1.866e-8), (273, 2.051e-8), (300, 2.271e-8),
]


def gold_table() -> ResistivityTable:
    return ResistivityTable.from_pairs(GOLD_PAIRS, label="au")


# ---------------------------------------------------------------------------
# resistivity tables


def test_table_hits_knots_exactly():
    tab = gold_table()
    for t, rho in GOLD_PAIRS:
        assert tab.lookup(t) == pytest.approx(rho, rel=1e-12)


def test_table_interpolates_log_linearly():
    tab = gold_table()
    # midpoint of the (100 K, 150 K) segment in (T, ln rho)
    expected = math.exp(0.5 * (math.log(6.50e-9) + math.log(1.061e-8)))
    assert tab.lookup(125.0) == pytest.approx(expected, rel=1e-12)


def test_table_extrapolates_one_grid_step_then_raises():
    tab = gold_table()
    # first step is 6 K wide, last is 27 K wide
    assert tab.lookup(-1.0) > 0.0        # 4 - 6 < -1 allowed
    assert tab.lookup(326.0) > 0.0       # 300 + 27 > 326 allowed
    with pytest.raises(TemperatureRangeError):
        tab.lookup(-3.0)
    with pytest.raises(TemperatureRangeError):
        tab.lookup(328.0)
    with pytest.raises(TemperatureRangeError):
        tab.lookup(math.nan)


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 327.0) | st.sampled_from([t for t, _ in GOLD_PAIRS]))
def test_table_lookup_interpolates_on_the_last_knot_at_or_below_t(temperature):
    t, r = zip(*GOLD_PAIRS)
    below = [j for j in range(len(t)) if t[j] <= temperature]
    i = min(max(below, default=0), len(t) - 2)  # end segments extend outward
    frac = (temperature - t[i]) / (t[i + 1] - t[i])
    log_rho = (1.0 - frac) * math.log(r[i]) + frac * math.log(r[i + 1])
    assert gold_table().lookup(temperature) == math.exp(log_rho)


def test_table_extrapolation_continues_end_segment():
    tab = gold_table()
    # extrapolated value continues the last segment's log-linear slope
    slope = (math.log(2.271e-8) - math.log(2.051e-8)) / (300.0 - 273.0)
    expected = math.exp(math.log(2.271e-8) + slope * 10.0)
    assert tab.lookup(310.0) == pytest.approx(expected, rel=1e-12)


def test_table_rejects_bad_construction():
    with pytest.raises(ValueError):
        ResistivityTable(temperatures=(10.0,), resistivities=(1e-9,))
    with pytest.raises(ValueError):
        ResistivityTable(temperatures=(10.0, 10.0), resistivities=(1e-9, 2e-9))
    with pytest.raises(ValueError):
        ResistivityTable(temperatures=(10.0, 20.0), resistivities=(1e-9, -1.0))


def test_from_pairs_sorts():
    tab = ResistivityTable.from_pairs([(300, 3e-8), (4, 2e-10), (100, 7e-9)])
    assert tab.temperatures == (4, 100, 300)


# ---------------------------------------------------------------------------
# permittivities


def test_vacuum_permittivity_is_unity():
    assert permittivity(Vacuum(), 2 * math.pi * 1e6, 300.0) == 1.0 + 0.0j


def test_lossy_dielectric():
    eps = permittivity(LossyDielectric(10.0, 1e-4), 1e7, 4.0)
    assert eps == pytest.approx(10.0 + 1e-3j)
    with pytest.raises(ValueError):
        LossyDielectric(0.5, 1e-4)
    with pytest.raises(ValueError):
        LossyDielectric(10.0, -1e-4)


def test_conductor_permittivity_matches_sigma_over_omega_eps0():
    omega = 2 * math.pi * 1e6
    gold = Conductor(gold_table(), name="au")
    eps = permittivity(gold, omega, 300.0)
    sigma = 1.0 / 2.271e-8
    assert eps.real == 0.0
    assert eps.imag == pytest.approx(sigma / (omega * CONSTANTS.eps0), rel=1e-12)


def test_london_depth_value_and_domain():
    # lambda0 / sqrt(1 - T/Tc) at T = 40 K, Tc = 89 K, lambda0 = 230 nm
    lam = london_depth(230e-9, 89.0, 40.0)
    assert lam == pytest.approx(230e-9 / math.sqrt(1.0 - 40.0 / 89.0), rel=1e-14)
    assert lam > 230e-9
    with pytest.raises(DomainError):
        london_depth(230e-9, 89.0, 89.0)
    with pytest.raises(DomainError):
        london_depth(230e-9, 89.0, -1.0)


def ybco(lambda0=150e-9) -> TwoFluidSC:
    return TwoFluidSC(
        lambda0=lambda0,
        Tc=89.0,
        sigma_n=1.81e6,
        rho_normal=ybco_normal_default(),
        name="ybco",
    )


def test_two_fluid_below_tc_terms():
    omega = 2 * math.pi * 1e6
    mat = ybco()
    temperature = 44.5
    eps = permittivity(mat, omega, temperature)
    k = omega / CONSTANTS.c
    lam = london_depth(150e-9, 89.0, temperature)
    assert eps.real == pytest.approx(1.0 - 1.0 / (k * lam) ** 2, rel=1e-12)
    sigma_n_eff = 1.81e6 * temperature / 89.0
    assert eps.imag == pytest.approx(
        sigma_n_eff / (omega * CONSTANTS.eps0), rel=1e-12
    )
    # the superfluid term dominates massively at MHz frequencies
    assert -eps.real > 1e3 * eps.imag


def test_two_fluid_names_itself_where_k_lambda_squared_underflows():
    # (k lambda)^2 is 0 at 1e-150 Hz; at 1e-140 Hz it is subnormal and its
    # reciprocal overflows, a Re eps of -inf the reflection kernel rejects
    with pytest.raises(DomainError, match="^ybco: .k lambda.\\^2 is 0 at omega = "):
        permittivity(ybco(), 2 * math.pi * 1e-150, 20.0)
    assert permittivity(ybco(), 2 * math.pi * 1e-140, 20.0).real == -math.inf


def test_two_fluid_names_itself_where_k_lambda_squared_overflows():
    # k lambda is 2e286 at 1 MHz with lambda0 = 1e291 m: its square overflows
    with pytest.raises(DomainError, match="^ybco: .k lambda.\\^2 is inf at omega = "):
        permittivity(ybco(lambda0=1e291), 2 * math.pi * 1e6, 20.0)


def test_two_fluid_at_and_above_tc_is_normal_metal():
    omega = 2 * math.pi * 1e6
    mat = ybco()
    eps_tc = permittivity(mat, omega, 89.0)
    assert eps_tc.real == 0.0
    assert eps_tc.imag == pytest.approx(
        1.81e6 / (omega * CONSTANTS.eps0), rel=1e-9
    )
    # default normal-state table is linear through the origin: rho ~ T
    # (log-linear interpolation between the ~10 K knots costs a few 1e-4)
    eps_hot = permittivity(mat, omega, 178.0)
    assert eps_hot.imag == pytest.approx(eps_tc.imag / 2.0, rel=1e-3)


def test_two_fluid_real_part_diverges_toward_tc():
    omega = 2 * math.pi * 1e6
    mat = ybco()
    eps_low = permittivity(mat, omega, 10.0)
    eps_high = permittivity(mat, omega, 85.0)
    # lambda grows toward Tc, so the -1/(k lambda)^2 magnitude shrinks
    assert -eps_low.real > -eps_high.real > 0.0


@st.composite
def _material_and_temperature(draw):
    kind = draw(st.sampled_from(["vacuum", "dielectric", "conductor", "sc-below", "sc-above"]))
    if kind == "vacuum":
        return Vacuum(), draw(st.floats(1e-3, 400.0))
    if kind == "dielectric":
        tan_delta = draw(st.just(0.0) | st.floats(0.0, 1e3))
        return LossyDielectric(draw(st.floats(1.0, 1e6)), tan_delta), draw(st.floats(1e-3, 400.0))
    if kind == "conductor":
        temps = sorted(draw(st.lists(st.floats(1.0, 400.0), min_size=2, max_size=12, unique=True)))
        rhos = draw(st.lists(st.floats(1e-12, 1e2), min_size=len(temps), max_size=len(temps)))
        return Conductor(ResistivityTable(tuple(temps), tuple(rhos))), draw(
            st.floats(temps[0], temps[-1]))
    tc = draw(st.floats(1.0, 150.0))
    sigma_n = draw(st.floats(1e4, 1e8))
    sc = TwoFluidSC(draw(st.floats(1e-8, 1e-6)), tc, sigma_n, ybco_normal_default(sigma_n, tc))
    if kind == "sc-below":
        return sc, tc * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return sc, draw(st.floats(tc, 320.0))


@settings(max_examples=300, deadline=None)
@given(material_and_t=_material_and_temperature(), log_f=st.floats(0.0, 12.0))
@example(material_and_t=(LossyDielectric(4.0, 0.0), 300.0), log_f=6.0)
def test_every_material_kind_is_passive(material_and_t, log_f):
    # stack_reflection takes the principal root of eps - u^2, which decays
    # only if Im eps is +0.0 or more, so tan delta = 0 must not give -0.0.
    # At 1 Hz - 1 THz the loss stays finite; toward omega = 0 it overflows,
    # which the kernel's entry check rejects
    material, temperature = material_and_t
    eps = permittivity(material, 2.0 * math.pi * 10.0**log_f, temperature)
    assert math.isfinite(eps.imag)
    assert math.copysign(1.0, eps.imag) == 1.0


def test_permittivity_rejects_bad_domain():
    with pytest.raises(DomainError):
        permittivity(Vacuum(), -1.0, 300.0)
    with pytest.raises(DomainError):
        permittivity(Vacuum(), 1e6, 0.0)


# ---------------------------------------------------------------------------
# sheet resistances


def test_conductor_sheet_resistance_is_rho_over_t():
    film = FilmSheet(Conductor(gold_table()), 200e-9)
    assert film.sheet_resistance(2 * math.pi * 1e6, 300.0) == pytest.approx(
        2.271e-8 / 200e-9, rel=1e-12
    )


def test_superconducting_sheet_uses_residual_model():
    film = FilmSheet(ybco(), 300e-9)
    omega = 2 * math.pi * 1e6
    spec = SCSheetSpec()
    expected = spec.rs_ref * (omega / spec.omega_ref) ** 2 + spec.rs_residual
    assert film.sheet_resistance(omega, 40.0) == pytest.approx(expected, rel=1e-12)
    # the residual floor dominates at MHz: the omega^2 term is ~1e-11 Ohm/sq
    assert film.sheet_resistance(omega, 40.0) == pytest.approx(1e-7, rel=1e-3)
    # thickness-independent below Tc
    thick = FilmSheet(ybco(), 900e-9)
    assert thick.sheet_resistance(omega, 40.0) == film.sheet_resistance(omega, 40.0)


def test_superconducting_sheet_folds_negative_zero():
    # an ideal sheet written as -0 is +0, as is its sheet resistance
    spec = SCSheetSpec(rs_ref=-0.0, rs_residual=-0.0)
    for value in (spec.rs_ref, spec.rs_residual, spec.sheet_resistance(1e6)):
        assert math.copysign(1.0, value) == 1.0


def test_superconducting_sheet_that_overflows_is_a_domain_error():
    # (omega / omega_ref)^2 leaves the float range near omega = 1e165 rad/s
    with pytest.raises(DomainError, match="^superconducting sheet resistance must be "
                                          "finite, got inf$"):
        SCSheetSpec().sheet_resistance(1e200)
    # and rs_ref times a finite square may overflow too
    with pytest.raises(DomainError, match="^superconducting sheet resistance"):
        SCSheetSpec(rs_ref=1e300).sheet_resistance(1e160)


@pytest.mark.parametrize("omega", [1e6, 1e200, 1.7976931348623157e308])
def test_ideal_superconducting_sheet_keeps_its_floor_at_any_omega(omega):
    # rs_ref = 0 times an overflowing square would be 0 * inf = NaN
    assert SCSheetSpec(rs_ref=0.0, rs_residual=2e-7).sheet_resistance(omega) == 2e-7


@settings(max_examples=200, deadline=None)
@given(omega=st.floats(1e-300, 1e160))
def test_superconducting_sheet_in_range_keeps_its_arithmetic(omega):
    spec = SCSheetSpec()
    expected = spec.rs_ref * (omega / spec.omega_ref) ** 2 + spec.rs_residual
    assert spec.sheet_resistance(omega) == expected


def test_superconducting_sheet_above_tc_is_normal():
    film = FilmSheet(ybco(), 300e-9)
    rho_tc = 1.0 / 1.81e6
    assert film.sheet_resistance(2 * math.pi * 1e6, 89.0) == pytest.approx(
        rho_tc / 300e-9, rel=1e-9
    )


def test_sheet_resistance_rejects_dielectric():
    # a film without a sheet resistance fails when it is built, not when used
    for material, name in ((LossyDielectric(10.0, 1e-6, "sapphire"), "sapphire"),
                           (Vacuum(), "vacuum")):
        with pytest.raises(DomainError) as err:
            FilmSheet(material, 1e-6)
        assert str(err.value) == (f"film material {name!r} must be a conductor "
                                  "or a superconductor")


def test_parallel_sheet():
    assert parallel_sheet(2.0, 2.0) == pytest.approx(1.0)
    assert parallel_sheet(1e-7, 1e9) == pytest.approx(1e-7, rel=1e-9)
    assert parallel_sheet(math.inf, 3.0) == 3.0
    with pytest.raises(DomainError):
        parallel_sheet(-1.0, 2.0)
    with pytest.raises(DomainError):
        parallel_sheet(math.nan, 2.0)


def test_parallel_sheet_zero_is_a_short_and_inf_an_open_circuit():
    # an ideal superconducting sheet (both residual terms 0) shorts its partner
    assert parallel_sheet(0.0, 2.0) == 0.0
    assert parallel_sheet(2.0, 0.0) == 0.0
    assert parallel_sheet(0.0, math.inf) == parallel_sheet(math.inf, 0.0) == 0.0
    assert parallel_sheet(math.inf, math.inf) == math.inf
    assert math.copysign(1.0, parallel_sheet(-0.0, 2.0)) == 1.0  # no "-0.0" in a CSV
    # a film of subnormal thickness is an open circuit
    au = FilmSheet(Conductor(gold_table(), "au"), 5e-324)
    assert au.sheet_resistance(1e6, 300.0) == math.inf
    assert parallel_sheet(au.sheet_resistance(1e6, 300.0), 3.0) == 3.0
    # two positive sheets keep the bits of a*b/(a+b)
    for a, b in ((2.0, 3.0), (1e-7, 1.4e-3), (0.1, 0.7)):
        assert parallel_sheet(a, b) == a * b / (a + b)


def test_ybco_normal_default_anchors_at_tc():
    tab = ybco_normal_default(sigma_n=1.81e6, Tc=89.0)
    assert tab.lookup(89.0) == pytest.approx(1.0 / 1.81e6, rel=1e-9)
    # linear through the origin: rho(2 Tc) = 2 rho(Tc), up to the small
    # log-linear interpolation error between knots
    assert tab.lookup(178.0) == pytest.approx(2.0 / 1.81e6, rel=1e-3)
    assert tab.temperatures[0] == 89.0
    assert tab.temperatures[-1] == 320.0


def test_film_sheet_requires_positive_thickness():
    with pytest.raises(ValueError):
        FilmSheet(Conductor(gold_table()), 0.0)
