"""The one domain check of physical arguments: every site that routes an
argument through ``require_above`` rejects NaN and +-inf by name."""

import math
from dataclasses import replace

import pytest

from trapnoise.constants import (
    DomainError,
    heating_rate_from_noise,
    noise_from_heating_rate,
    require_above,
)
from trapnoise.inference import (
    SURFACE_MODELS,
    HeatingDataset,
    HeatingRecord,
    TempFitParams,
    information_criteria,
    plateau_width,
    synth_dataset,
    synth_surface,
    taf_alpha,
)
from trapnoise.layers import Layer, LayerStack, greens_parallel
from trapnoise.materials import (
    Conductor,
    FilmSheet,
    LossyDielectric,
    ResistivityTable,
    SCSheetSpec,
    TwoFluidSC,
    Vacuum,
    permittivity,
)
from trapnoise.noise import (
    ElectrodeModel,
    FilterCapacitor,
    FilterNetwork,
    LeadModel,
    RectTrace,
    WireBond,
    blackbody_noise,
    jnn_budget,
    skin_depth,
)
from trapnoise.patches import PatchScene, PlaneRegion, ZetaResult, region_noise_integral

TABLE = ResistivityTable((10.0, 300.0), (1e-10, 2e-8), "gold")
GOLD = Conductor(TABLE)
PIECEWISE = TempFitParams({1e6: 1.0}, 20.0, 1.0, t2=100.0, beta2=3.0, t_star=60.0)
SCENE = PatchScene((), 50e-6)
REGION = PlaneRegion((-1e-4, 1e-4, -1e-4, 1e-4))


def _ybco(lambda0=150e-9, tc=89.0, sigma_n=1.8e6):
    return TwoFluidSC(lambda0, tc, sigma_n, TABLE)


def _surface(kind, name):
    """synth_surface of ``kind`` with parameter ``name`` set to the value."""
    params = {"s_e0": 1e-15, "beta": 2.0, "s_et": 1e-13, "t0": 20.0}
    names = SURFACE_MODELS[kind].names
    return lambda v: synth_surface(
        kind, {n: v if n == name else params[n] for n in names}, [20.0], 0.1, 1
    )


# (argument name in the message, call with the value under test)
SITES = {
    "heating_rate_from_noise.omega": ("omega", lambda v: heating_rate_from_noise(1e-15, v)),
    "heating_rate_from_noise.s_e": ("noise density", lambda v: heating_rate_from_noise(v, 1e6)),
    "noise_from_heating_rate.omega": ("omega", lambda v: noise_from_heating_rate(1.0, v)),
    "noise_from_heating_rate.gamma": ("heating rate", lambda v: noise_from_heating_rate(v, 1e6)),
    "ResistivityTable.resistivities": (
        "resistivity in table 'gold'",
        lambda v: ResistivityTable((10.0, 20.0), (1e-9, v), "gold"),
    ),
    "ResistivityTable.temperatures": (
        "temperature in table 'gold'",
        lambda v: ResistivityTable((10.0, v), (1e-9, 2e-9), "gold"),
    ),
    "LossyDielectric.eps_r": ("eps_r", lambda v: LossyDielectric(v, 0.0)),
    "LossyDielectric.tan_delta": ("tan_delta", lambda v: LossyDielectric(9.4, v)),
    "Conductor.permittivity.omega": ("omega", lambda v: GOLD.permittivity(v, 20.0)),
    "TwoFluidSC.lambda0": ("lambda0", lambda v: _ybco(lambda0=v)),
    "TwoFluidSC.Tc": ("Tc", lambda v: _ybco(tc=v)),
    "TwoFluidSC.sigma_n": ("sigma_n", lambda v: _ybco(sigma_n=v)),
    "SCSheetSpec.rs_ref": ("reference sheet resistance", lambda v: SCSheetSpec(rs_ref=v)),
    "SCSheetSpec.omega_ref": ("reference omega", lambda v: SCSheetSpec(omega_ref=v)),
    "SCSheetSpec.rs_residual": (
        "residual sheet resistance",
        lambda v: SCSheetSpec(rs_residual=v),
    ),
    "TwoFluidSC.permittivity.omega": ("omega", lambda v: _ybco().permittivity(v, 20.0)),
    "FilmSheet.thickness": ("thickness", lambda v: FilmSheet(GOLD, v)),
    "permittivity.omega": ("omega", lambda v: permittivity(Vacuum(), v, 10.0)),
    "permittivity.temperature": ("temperature", lambda v: permittivity(Vacuum(), 1e6, v)),
    "Layer.thickness": ("layer thickness", lambda v: Layer(GOLD, v)),
    "greens_parallel.distance": (
        "ion height",
        lambda v: greens_parallel(LayerStack((Layer(GOLD),)), 1e6, 20.0, v),
    ),
    "blackbody_noise.omega": ("omega", lambda v: blackbody_noise(v, 20.0)),
    "blackbody_noise.temperature": ("temperature", lambda v: blackbody_noise(1e6, v)),
    "FilterCapacitor.capacitance": ("capacitance", lambda v: FilterCapacitor(v)),
    "FilterCapacitor.esr": ("ESR", lambda v: FilterCapacitor(1e-9, v)),
    "FilterNetwork.series_r": ("series R", lambda v: FilterNetwork(v)),
    "FilterNetwork.resistance.omega": ("omega", lambda v: FilterNetwork(1e3).resistance(v)),
    "skin_depth.rho": ("rho", lambda v: skin_depth(v, 1e6)),
    "skin_depth.omega": ("omega", lambda v: skin_depth(1e-8, v)),
    "RectTrace.width": ("trace width", lambda v: RectTrace(v, 1e-5, 1e-2, GOLD)),
    "RectTrace.thickness": ("trace thickness", lambda v: RectTrace(1e-4, v, 1e-2, GOLD)),
    "RectTrace.length": ("trace length", lambda v: RectTrace(1e-4, 1e-5, v, GOLD)),
    "WireBond.diameter": ("bond diameter", lambda v: WireBond(v, 1e-3, GOLD)),
    "WireBond.length": ("bond length", lambda v: WireBond(25e-6, v, GOLD)),
    "LeadModel.contact_r_per_bond": ("contact resistance", lambda v: LeadModel(None, None, v)),
    "ElectrodeModel.characteristic_distance": (
        "characteristic distance",
        lambda v: ElectrodeModel("E", v, 1e-3, 1e-4),
    ),
    "ElectrodeModel.strip_length": (
        "strip length",
        lambda v: ElectrodeModel("E", 1e-4, v, 1e-4),
    ),
    "ElectrodeModel.bonds": (
        "bonds",
        lambda v: ElectrodeModel("E", 1e-4, 1e-3, 1e-4, bonds=v),
    ),
    "ElectrodeModel.strip_width": (
        "strip width",
        lambda v: ElectrodeModel("E", 1e-4, 1e-3, v),
    ),
    "jnn_budget.temperature": (
        "temperature",
        lambda v: jnn_budget([ElectrodeModel("E", 1e-4, 1e-3, 1e-4)], 1e6, v),
    ),
    "PlaneRegion.rect": ("region rect", lambda v: PlaneRegion((v, 1e-4, -1e-4, 1e-4))),
    "PlaneRegion.weight": ("region weight", lambda v: PlaneRegion((0.0, 1.0, 0.0, 1.0), v)),
    "PatchScene.ion_height": ("ion height", lambda v: PatchScene((), v)),
    "region_noise_integral.patch_size": (
        "patch_size",
        lambda v: region_noise_integral(REGION, SCENE, v),
    ),
    "ZetaResult.at.f_ratio": (
        "f_ratio",
        lambda v: ZetaResult(0.5, 1.0, {}, 1.0, 1.0).at(v),
    ),
    "HeatingRecord.temperature": ("temperature", lambda v: HeatingRecord(v, 1e6, 1.0, 0.1)),
    "HeatingRecord.f_secular": ("frequency", lambda v: HeatingRecord(20.0, v, 1.0, 0.1)),
    "HeatingRecord.gamma": ("heating rate", lambda v: HeatingRecord(20.0, 1e6, v, 0.1)),
    "HeatingRecord.sigma_gamma": ("sigma", lambda v: HeatingRecord(20.0, 1e6, 1.0, v)),
    "information_criteria.rss": ("rss", lambda v: information_criteria(v, 5, 2)),
    "plateau_width.tolerance_frac": ("tolerance", lambda v: plateau_width(PIECEWISE, v)),
    "taf_alpha.omega": ("omega", lambda v: taf_alpha(1.5, v)),
    "taf_alpha.tau0": ("tau0", lambda v: taf_alpha(1.5, 1e6, v)),
    "synth_dataset.noise_frac": (
        "noise_frac",
        lambda v: synth_dataset("gamma2", PIECEWISE, [20.0], [1e6], v, 1),
    ),
    "synth_surface.noise_frac": (
        "noise_frac",
        lambda v: synth_surface("power", {"s_e0": 1e-15, "beta": 2.0, "t0": 20.0}, [20.0], v, 1),
    ),
    "TempFitParams.t1": ("t1", lambda v: TempFitParams({1e6: 1.0}, v, 1.0)),
    "TempFitParams.beta1": ("beta1", lambda v: TempFitParams({1e6: 1.0}, 20.0, v)),
    "TempFitParams.t2": ("t2", lambda v: replace(PIECEWISE, t2=v)),
    "TempFitParams.beta2": ("beta2", lambda v: replace(PIECEWISE, beta2=v)),
    "TempFitParams.t_star": ("t_star", lambda v: replace(PIECEWISE, t_star=v)),
    "TempFitParams.gamma0.frequency": (
        "gamma0 frequency",
        lambda v: TempFitParams({v: 1.0}, 20.0, 1.0),
    ),
    "TempFitParams.gamma0": ("gamma0 at 1e+06 Hz", lambda v: TempFitParams({1e6: v}, 20.0, 1.0)),
    **{
        f"synth_surface.{kind}.{name}": (name, _surface(kind, name))
        for kind, model in SURFACE_MODELS.items()
        for name in model.names
    },
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_finite_argument_raises_a_domain_error_naming_it(site, value):
    what, call = SITES[site]
    with pytest.raises(DomainError) as err:
        call(value)
    assert str(err.value) == f"{what} must be finite, got {value}"


def test_non_finite_heating_records_are_rejected():
    with pytest.raises(DomainError, match="^temperature must be finite, got nan$"):
        HeatingRecord(math.nan, math.nan, math.nan, math.nan)
    with pytest.raises(DomainError, match="^noise density must be finite, got nan$"):
        HeatingDataset.from_noise_curve([(20.0, math.nan, math.inf)], 1e6)


def test_require_above_bounds_and_messages():
    require_above(1e-300, "x")
    require_above(0.0, "x", or_equal=True)
    require_above(-0.0, "x", or_equal=True)
    require_above(1, "multiplicity", 1, or_equal=True)
    for value, lo, or_equal, message in (
        (0.0, 0.0, False, "x must be > 0, got 0.0"),
        (-2.5, 0.0, True, "x must be >= 0, got -2.5"),
        (0.5, 1.0, True, "x must be >= 1, got 0.5"),
        (0, 1, True, "x must be >= 1, got 0"),
        (10**400, 1, True, f"x must be finite, got {10**400}"),  # past float range
    ):
        with pytest.raises(DomainError) as err:
            require_above(value, "x", lo, or_equal=or_equal)
        assert str(err.value) == message


_YBCO = _ybco()

# direct library calls that the config loaders rejected before the checks
# moved into the types they build
_REJECTED = {
    "arrhenius-negative-s_et": (
        "^s_et must be > 0, got -2.0$",
        lambda: synth_surface("arrhenius", {"s_e0": 1.0, "s_et": -2.0, "t0": 30.0},
                              [10, 20, 50], 0.1, 1),
    ),
    "power-negative-t0": (
        "^t0 must be > 0, got -30.0$",
        lambda: synth_surface("power", {"s_e0": 1.0, "beta": 2.0, "t0": -30.0},
                              [10, 20, 50], 0.1, 1),
    ),
    "negative-t1": (
        "^t1 must be > 0, got -5.0$",
        lambda: TempFitParams({1e6: 1.0}, t1=-5.0, beta1=1.0),
    ),
    "t_star-without-t2": (
        "^t2, beta2 and t_star must be given together$",
        lambda: TempFitParams({1e6: 1.0}, 20.0, 1.0, t_star=30.0),
    ),
    "trace-on-a-superconductor": (
        "^trace material 'superconductor' must be a conductor",
        lambda: RectTrace(1e-4, 1e-5, 1e-2, _YBCO),
    ),
    "bond-on-a-superconductor": (
        "^bond material 'superconductor' must be a conductor",
        lambda: WireBond(25e-6, 1e-3, _YBCO),
    ),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_parameter_types_reject_what_the_config_loaders_rejected(case):
    message, call = _REJECTED[case]
    with pytest.raises(DomainError, match=message):
        call()


# the domains of the fitted parameters, written out here rather than read
# from the model rows: exponents but beta2 may be 0 or negative, temperature
# scales and Gamma0 may not
@pytest.mark.parametrize("beta", [0.0, -1.5])
def test_exponents_may_be_zero_or_negative(beta):
    assert TempFitParams({1e6: 1.0}, 20.0, beta).beta1 == beta
    assert replace(PIECEWISE, beta1=beta).beta1 == beta
    params = {"s_e0": 1e-15, "beta": beta, "t0": 20.0}
    assert math.isfinite(synth_surface("power", params, [20.0], 0.1, 1)[0][1])


@pytest.mark.parametrize("beta2", [0.0, -1.5])
def test_second_rise_exponent_must_be_positive(beta2):
    # at beta2 <= 0 Gamma2 jumps at T* (to twice Gamma1 at 0, to inf below),
    # and plateau_width would divide by it
    with pytest.raises(DomainError) as err:
        TempFitParams({1e6: 1.0}, 20.0, 1.0, t2=100.0, beta2=beta2, t_star=60.0)
    assert str(err.value) == f"beta2 must be > 0, got {beta2}"
    with pytest.raises(DomainError, match="^beta2 must be > 0"):
        replace(PIECEWISE, beta2=beta2)


_AT_ZERO = {
    "t1": ("t1", lambda: TempFitParams({1e6: 1.0}, 0.0, 1.0)),
    "t2": ("t2", lambda: replace(PIECEWISE, t2=0.0)),
    "t_star": ("t_star", lambda: replace(PIECEWISE, t_star=0.0)),
    "gamma0": ("gamma0 at 1e+06 Hz", lambda: TempFitParams({1e6: 0.0}, 20.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(_AT_ZERO))
def test_temperature_scales_and_gamma0_must_be_positive(name):
    what, call = _AT_ZERO[name]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == f"{what} must be > 0, got 0.0"
