"""Release acceptance gate.

Each test checks one numbered release criterion end to end, at its stated
tolerance, and prints the measured value next to the target.  Run with
``pytest -v tests/test_acceptance.py`` for one pass/fail line per criterion.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from trapnoise.cli import main
from trapnoise.configio import (
    load_circuit,
    load_materials,
    load_scene,
    packaged_config,
)
from trapnoise.constants import (
    CONSTANTS,
    heating_rate_from_noise,
    noise_from_heating_rate,
)
from trapnoise.inference import (
    TempFitParams,
    fit_temperature_models,
    plateau_width,
    synth_dataset,
    taf_alpha,
)
from trapnoise.layers import Layer, LayerStack, stack_reflection
from trapnoise.materials import Conductor, ResistivityTable
from trapnoise.noise import (
    blackbody_noise,
    fdt_noise,
    jnn_budget,
)
from trapnoise.patches import region_noise_integral, zeta, zeta_inverse

from fresnel_oracles import fresnel_four_layer, fresnel_interface, fresnel_three_layer

OMEGA = 2 * math.pi * 1e6

TABLE_PIECEWISE = TempFitParams(
    gamma0={0.4e6: 3.76, 0.6e6: 1.92, 0.8e6: 1.18, 1.0e6: 0.70,
            1.4e6: 0.38, 1.8e6: 0.29},
    t1=46.2, beta1=3.39, t2=102.9, beta2=4.14, t_star=92.5,
)


@pytest.fixture(scope="module")
def materials():
    return load_materials(packaged_config("materials", "default"))


def test_criterion_01_filter_resistance(materials):
    electrodes = load_circuit(packaged_config("circuits", "ybco-trap"), materials)
    r = electrodes[0].filter.resistance(OMEGA)
    print(f"[1] R_filter(1 MHz) = {r * 1e3:.4f} mOhm  (target 26.25 +- 0.1%)")
    assert r == pytest.approx(26.25e-3, rel=1e-3)


def test_criterion_02_aluminium_lead_benchmark(materials):
    electrodes = load_circuit(
        packaged_config("circuits", "al-lead-benchmark"), materials
    )
    assert len(electrodes) == 2
    r = electrodes[0].resistances(OMEGA, 20.0)[1]
    budget = jnn_budget(electrodes, OMEGA, 20.0)
    per_lead = [n.s_e for n in budget.electrodes.values()]
    gamma = heating_rate_from_noise(budget.total, OMEGA)
    print(
        f"[2] R = {r:.4f} Ohm (target 17.3 +- 1%); "
        f"S_E = {per_lead[0]:.4e} (target 7.33e-16 +- 1%); "
        f"Gamma = {gamma:.4f} (target 0.21 +- 5%)"
    )
    assert r == pytest.approx(17.3, rel=0.01)
    for s_e in per_lead:
        assert s_e == pytest.approx(7.33e-16, rel=0.01)
    assert gamma == pytest.approx(0.21, rel=0.05)


def test_criterion_03_heating_rate_conversion_anchor():
    s_e = noise_from_heating_rate(1.0, OMEGA)
    print(f"[3] S_E(1 phonon/s, 1 MHz, Ca+) = {s_e:.4e}  (target 6.9e-15 +- 2%)")
    assert s_e == pytest.approx(6.9e-15, rel=0.02)
    # and the conversion inverts exactly
    assert heating_rate_from_noise(s_e, OMEGA) == pytest.approx(1.0, rel=1e-12)


def test_criterion_04_patch_noise_fractions():
    scene = load_scene(packaged_config("scenes", "ybco-chip"))
    patch = 1e-6

    z1 = zeta(scene, 1.0, patch).zeta
    f_half = zeta_inverse(scene, 0.5, patch)
    print(f"[4] zeta(f=1) = {z1:.4f} (target 0.939 +- 0.02); "
          f"f(zeta=0.5) = {f_half:.4f} (target 0.06 +- 0.02)")
    assert z1 == pytest.approx(0.939, abs=0.02)
    assert f_half == pytest.approx(0.06, abs=0.02)

    # patch-size convergence: per-area noise integral of the target region
    # drifts < 0.5% between 0.5 um and 2 um patches
    target = scene.region("ybco")
    per_area = [
        region_noise_integral(target, scene, a) / a**2 for a in (0.5e-6, 2e-6)
    ]
    drift = abs(per_area[0] - per_area[1]) / per_area[1]
    print(f"[4] patch-size drift (0.5 um vs 2 um) = {drift * 100:.3f}%  (< 0.5%)")
    assert drift < 5e-3

    # full-plane height scaling: noise ~ height^-4
    from trapnoise.patches import PatchScene, PlaneRegion

    plane = PlaneRegion((-50e-3, 50e-3, -50e-3, 50e-3), name="plane")
    heights = np.geomspace(100e-6, 400e-6, 4)
    totals = []
    for h in heights:
        scene_h = PatchScene((plane,), ion_height=h)
        totals.append(region_noise_integral(plane, scene_h, 2e-6))
    slope = np.polyfit(np.log(heights), np.log(totals), 1)[0]
    print(f"[4] full-plane height exponent = {slope:.4f}  (target -4 +- 0.05)")
    assert slope == pytest.approx(-4.0, abs=0.05)


def test_criterion_05_superconducting_noise_drop(materials):
    ybco = materials["ybco"]
    sapphire = materials["sapphire"]
    tc = ybco.Tc
    for lambda0 in (80e-9, 635e-9):
        stack = LayerStack(
            (Layer(replace(ybco, lambda0=lambda0), 300e-9), Layer(sapphire)),
            name=f"sapphire-ybco-{lambda0 * 1e9:.0f}nm",
        )
        s_cold = fdt_noise(stack, OMEGA, 0.5 * tc, 225e-6).s_e
        s_warm = fdt_noise(stack, OMEGA, 1.05 * tc, 225e-6).s_e
        drop = s_warm / s_cold
        print(
            f"[5] lambda0 = {lambda0 * 1e9:.0f} nm: "
            f"S(0.5 Tc)/S(1.05 Tc) = {1.0 / drop:.3e}  (need <= 1e-3)"
        )
        assert s_cold <= 1e-3 * s_warm


def quasi_static_noise(rho, distance):
    """Field noise above a uniform metal half-space at 300 K, 1 MHz."""
    table = ResistivityTable.from_pairs(
        ((200.0, rho), (400.0, rho)), label="metal"
    )
    stack = LayerStack((Layer(Conductor(table, name="metal")),), name="half-space")
    s = fdt_noise(stack, OMEGA, 300.0, distance)
    return s.s_e


def test_criterion_06_near_field_scaling_exponents():
    rho_gold = 2.271e-8

    distances = np.geomspace(2e-6, 20e-6, 5)
    s_d = [quasi_static_noise(rho_gold, d) for d in distances]
    d_slope = np.polyfit(np.log(distances), np.log(s_d), 1)[0]

    factors = np.geomspace(0.5, 2.0, 5)
    s_sigma = [quasi_static_noise(rho_gold * f, 10e-6) for f in factors]
    # conductivity is 1/rho, so ln sigma = -ln(factor) + const
    sigma_slope = np.polyfit(-np.log(factors), np.log(s_sigma), 1)[0]

    print(f"[6] d-exponent = {d_slope:.4f} (target -3 +- 0.1); "
          f"sigma-exponent = {sigma_slope:.4f} (target -1 +- 0.05)")
    assert d_slope == pytest.approx(-3.0, abs=0.1)
    assert sigma_slope == pytest.approx(-1.0, abs=0.05)


def test_criterion_07_model_selection_round_trip():
    temps = (15.0, 40.0, 60.0, 80.0, 90.0, 100.0, 120.0, 160.0, 200.0)
    freqs = tuple(TABLE_PIECEWISE.gamma0)

    prefer_piecewise = 0
    for seed in range(100):
        dataset = synth_dataset(
            "gamma2", TABLE_PIECEWISE, temps, freqs, 0.1, seed=seed
        )
        cmp = fit_temperature_models(dataset)
        if cmp.delta_aic < 0.0:
            prefer_piecewise += 1
    print(f"[7] AIC prefers the piecewise model in {prefer_piecewise}/100 trials "
          f"(need >= 95)")
    assert prefer_piecewise >= 95

    # a representative seeded trial recovers every global parameter within 2 sigma
    dataset = synth_dataset("gamma2", TABLE_PIECEWISE, temps, freqs, 0.1, seed=42)
    fit = fit_temperature_models(dataset).piecewise
    truth = {"t1": 46.2, "beta1": 3.39, "t2": 102.9, "beta2": 4.14, "t_star": 92.5}
    pulls = {
        name: abs(getattr(fit.params, name) - value) / fit.global_errors[name]
        for name, value in truth.items()
    }
    print("[7] seed-42 parameter pulls: "
          + ", ".join(f"{k} {v:.2f} sigma" for k, v in pulls.items())
          + "  (all <= 2)")
    assert all(pull <= 2.0 for pull in pulls.values())


def test_criterion_08_plateau_width():
    width = plateau_width(TABLE_PIECEWISE, 0.1)
    print(f"[8] plateau width = {width:.4f} K  (target 59.0 +- 1)")
    assert width == pytest.approx(59.0, abs=1.0)


def test_criterion_09_fluctuator_exponent_predictions():
    a1 = taf_alpha(1.0, OMEGA, 1e-13)
    a2 = taf_alpha(2.0, OMEGA, 1e-13)

    # temperature slope of the piecewise model at 80 K (below T*):
    # d ln Gamma / d ln T = beta1 * x / (1 + x) with x = (T/T1)^beta1
    x = (80.0 / TABLE_PIECEWISE.t1) ** TABLE_PIECEWISE.beta1
    slope_80 = TABLE_PIECEWISE.beta1 * x / (1.0 + x)
    a80 = taf_alpha(slope_80, OMEGA, 1e-13)

    print(f"[9] alpha(slope=1) = {a1} (target -1 exactly); "
          f"alpha(slope=2) = {a2:.5f} (target -1.070 +- 0.001); "
          f"alpha(80 K slope {slope_80:.3f}) = {a80:.4f} (in [-1.18, -1.10])")
    assert a1 == -1.0
    assert a2 == pytest.approx(-1.070, abs=1e-3)
    assert -1.18 <= a80 <= -1.10


def test_criterion_10_reflection_recursion_equivalence():
    rng = np.random.default_rng(424242)
    c = CONSTANTS.c
    worst = 0.0
    for _ in range(1000):
        n_layers = rng.integers(3, 5)
        eps = rng.uniform(-100.0, 100.0, n_layers) + 1j * rng.uniform(
            0.0, 100.0, n_layers
        )
        eps[0] = 1.0
        thicknesses = 10.0 ** rng.uniform(-8.0, -5.0, n_layers - 2)
        u = rng.uniform(0.0, 3.0)
        k = 2 * math.pi * 10.0 ** rng.uniform(5.0, 9.0) / c
        for pol in (0, 1):
            recursed = stack_reflection(tuple(eps), tuple(thicknesses), u, k)[pol]
            if n_layers == 3:
                explicit = fresnel_three_layer(
                    eps[0], eps[1], eps[2], thicknesses[0], u, k
                )[pol]
            else:
                explicit = fresnel_four_layer(
                    eps[0], eps[1], eps[2], eps[3],
                    thicknesses[0], thicknesses[1], u, k,
                )[pol]
            err = abs(recursed - explicit) / max(abs(explicit), 1e-15)
            worst = max(worst, err)
    print(f"[10] worst recursion-vs-explicit relative error = {worst:.3e} "
          f"(need <= 1e-12)")
    assert worst <= 1e-12

    # degenerate-layer identities to 1e-10
    eps_a, eps_b, eps_c = 1.0, -30.0 + 4.0j, 8.0 + 0.5j
    k = 2 * math.pi * 1e8 / c
    worst_deg = 0.0
    for u in (0.0, 0.6, 1.7):
        direct = fresnel_interface(eps_a, eps_c, u)
        collapsed = fresnel_three_layer(eps_a, eps_b, eps_c, 0.0, u, k)
        matched = fresnel_three_layer(eps_a, eps_b, eps_b, 1e-6, u, k)
        top = fresnel_interface(eps_a, eps_b, u)
        for pol in (0, 1):
            worst_deg = max(worst_deg, abs(collapsed[pol] - direct[pol]))
            worst_deg = max(worst_deg, abs(matched[pol] - top[pol]))
    print(f"[10] worst degenerate-identity error = {worst_deg:.3e} (need <= 1e-10)")
    assert worst_deg <= 1e-10


def test_criterion_11_deterministic_cli_output(tmp_path):
    # a seeded stochastic command and a deterministic sweep command both
    # reproduce byte-for-byte
    runs = {}
    for label, argv in {
        "synth": ["synth", "--model", "gamma2", "--seed", "11"],
        "zeta": [
            "zeta",
            "--config",
            str(packaged_config("scenes", "ybco-chip")),
            "--f-ratios",
            "0:1:5",
        ],
    }.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{label}-{attempt}.csv"
            rc = main(argv + ["--out", str(out)])
            assert rc == 0
            outputs.append(out.read_bytes())
        runs[label] = outputs[0] == outputs[1]
    print(f"[11] byte-identical reruns: {runs}")
    assert all(runs.values())
