"""Fresnel oracles, the N-layer recursion, and the surface response integral."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trapnoise.configio import load_materials, load_stack, packaged_config
from trapnoise.constants import CONSTANTS, DomainError
from trapnoise.layers import (
    DegenerateInterfaceError,
    Layer,
    LayerStack,
    NoSuperconductorError,
    fresnel_stack,
    greens_parallel,
    stack_reflection,
)
from trapnoise.materials import Conductor, ResistivityTable, TwoFluidSC, Vacuum
from trapnoise.quadrature import _CHUNK, QuadratureFailure, adaptive_gk

from fresnel_oracles import (
    branch_sqrt,
    fresnel_four_layer,
    fresnel_interface,
    fresnel_three_layer,
    reference_admittance_reflection,
    reference_stack_reflection,
)

OMEGA_1MHZ = 2.0 * math.pi * 1.0e6
K_1MHZ = OMEGA_1MHZ / CONSTANTS.c

GOLD = ResistivityTable.from_pairs(
    [(4, 2.20e-10), (10, 2.26e-10), (20, 3.5e-10), (40, 1.41e-9),
     (60, 3.08e-9), (80, 4.81e-9), (100, 6.50e-9), (150, 1.061e-8),
     (200, 1.462e-8), (250, 1.866e-8), (273, 2.051e-8), (300, 2.271e-8)],
    label="au",
)


# ---------------------------------------------------------------------------
# the oracles' branch choice and single interfaces


def test_branch_sqrt_positive_real():
    assert branch_sqrt(4.0) == pytest.approx(2.0)
    assert branch_sqrt(0.0) == 0.0


def test_branch_sqrt_negative_real_goes_up():
    assert branch_sqrt(-4.0) == pytest.approx(2.0j)
    assert branch_sqrt(complex(-1.0, 0.0)) == pytest.approx(1.0j)


def test_branch_sqrt_imaginary_part_never_negative():
    rng = np.random.default_rng(7)
    z = rng.uniform(-10, 10, 500) + 1j * rng.uniform(-10, 10, 500)
    w = branch_sqrt(z)
    assert np.all(w.imag >= 0.0)
    np.testing.assert_allclose(w * w, z, rtol=1e-12, atol=1e-12)


def test_interface_normal_incidence_matches_index_form():
    # eps_a = 1, eps_b = 4: rs = (n1-n2)/(n1+n2), rp = +1/3 at u = 0
    rs, rp = fresnel_interface(1.0 + 0.0j, 4.0 + 0.0j, 0.0)
    assert rs == pytest.approx(-1.0 / 3.0)
    assert rp == pytest.approx(1.0 / 3.0)


def test_interface_antisymmetry():
    rs_ab, rp_ab = fresnel_interface(2.0 + 0.5j, 7.0 + 3.0j, 0.8)
    rs_ba, rp_ba = fresnel_interface(7.0 + 3.0j, 2.0 + 0.5j, 0.8)
    assert rs_ab == pytest.approx(-rs_ba, rel=1e-14)
    assert rp_ab == pytest.approx(-rp_ba, rel=1e-14)


def test_interface_identical_media_reflect_nothing():
    rs, rp = fresnel_interface(3.0 + 1.0j, 3.0 + 1.0j, 0.5)
    assert rs == 0.0
    assert rp == 0.0


def test_interface_total_internal_reflection_is_unimodular():
    # lossless media, wave evanescent in the lower medium only
    rs, rp = fresnel_interface(1.0 + 0.0j, 0.5 + 0.0j, 0.9)
    assert abs(rs) == pytest.approx(1.0, rel=1e-12)
    assert abs(rp) == pytest.approx(1.0, rel=1e-12)


def test_interface_degenerate_denominator_raises():
    # eps_a = eps_b = u^2 makes both W factors vanish
    with pytest.raises(DegenerateInterfaceError):
        fresnel_interface(0.25 + 0.0j, 0.25 + 0.0j, 0.5)


def test_interface_passive_media_keep_reflection_bounded():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ea = complex(rng.uniform(1.0, 50.0), rng.uniform(0.0, 50.0))
        eb = complex(rng.uniform(1.0, 50.0), rng.uniform(0.0, 50.0))
        u = rng.uniform(0.0, 0.999)
        rs, rp = fresnel_interface(ea, eb, u)
        assert abs(rs) <= 1.0 + 1e-12
        assert abs(rp) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# explicit three/four-layer forms vs the general recursion


def test_recursion_reduces_to_single_interface():
    rs, rp = stack_reflection((1.0 + 0.0j, 5.0 + 2.0j), (), 0.7, K_1MHZ)
    rs_ref, rp_ref = fresnel_interface(1.0 + 0.0j, 5.0 + 2.0j, 0.7)
    assert rs == pytest.approx(rs_ref, rel=1e-14)
    assert rp == pytest.approx(rp_ref, rel=1e-14)


def test_recursion_matches_explicit_forms_on_randomized_stacks():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        eps = rng.uniform(-100, 100, 4) + 1j * rng.uniform(0.0, 100.0, 4)
        t = 10.0 ** rng.uniform(-8, -5, 2)
        u = rng.uniform(0.0, 3.0)
        k = 2.0 * np.pi * 10.0 ** rng.uniform(5, 9) / CONSTANTS.c

        r3 = fresnel_three_layer(eps[0], eps[1], eps[2], t[0], u, k)
        s3 = stack_reflection(tuple(eps[:3]), (t[0],), u, k)
        r4 = fresnel_four_layer(*eps, t[0], t[1], u, k)
        s4 = stack_reflection(tuple(eps), tuple(t), u, k)
        for a, b in zip((*r3, *r4), (*s3, *s4)):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-15))
    assert worst <= 1e-12


def test_lossless_layer_at_its_own_wavevector():
    # u^2 = eps zeroes the layer's W, where the recursion alone gives 0/0
    k, d = 2.0 * math.pi * 1e5 / CONSTANTS.c, 1e-3
    rs, rp = stack_reflection((1.0 + 0.0j, 4.0 + 0.0j, 1.0 + 0.0j), (d,), 2.0, k)
    # the W -> 0 limit of the three-layer form with vacuum W = i sqrt(3)
    a = math.sqrt(3.0) * k * d
    assert rs == pytest.approx(a / (2.0 + a), rel=1e-12)
    assert rp == pytest.approx(2.0 * a / (1.0 + 2.0 * a), rel=1e-12)
    # between lossy media it joins the explicit form on either side
    eps = (1.0 + 0.0j, 4.0 + 0.0j, 9.0 + 2.0j, -30.0 + 5.0j)
    exact = stack_reflection(eps, (1e-4, 1e-6), np.array([2.0]), k)
    for u in (2.0 * (1.0 - 1e-9), 2.0 * (1.0 + 1e-9)):
        near = fresnel_four_layer(*eps, 1e-4, 1e-6, u, k)
        for r_near, r_exact in zip(near, exact):
            assert r_near == pytest.approx(r_exact[0], rel=1e-6)


def test_zero_thickness_middle_layer_vanishes():
    ea, eb, ec = 1.0 + 0.0j, -30.0 + 8.0j, 11.0 + 0.3j
    for u in (0.0, 0.6, 1.7):
        rs, rp = fresnel_three_layer(ea, eb, ec, 0.0, u, K_1MHZ)
        rs_ref, rp_ref = fresnel_interface(ea, ec, u)
        assert abs(rs - rs_ref) <= 1e-10
        assert abs(rp - rp_ref) <= 1e-10


def test_matching_lower_media_collapse_to_one_interface():
    ea, eb = 1.0 + 0.0j, 4.0 + 1.0j
    rs, rp = fresnel_three_layer(ea, eb, eb, 3e-7, 0.5, K_1MHZ)
    rs_ref, rp_ref = fresnel_interface(ea, eb, 0.5)
    assert abs(rs - rs_ref) <= 1e-10
    assert abs(rp - rp_ref) <= 1e-10


def test_matching_upper_media_leave_only_phased_lower_interface():
    ea, ec = 2.0 + 0.1j, 9.0 + 4.0j
    t_b, u = 2e-7, 0.4
    rs, rp = fresnel_three_layer(ea, ea, ec, t_b, u, K_1MHZ)
    rs_bc, rp_bc = fresnel_interface(ea, ec, u)
    w = branch_sqrt(ea - u**2)
    ph = np.exp(2j * K_1MHZ * t_b * w)
    assert abs(rs - rs_bc * ph) <= 1e-10
    assert abs(rp - rp_bc * ph) <= 1e-10


def test_four_layer_degenerates_to_three_layer():
    ea, eb, ec, ed = 1.0 + 0.0j, -20.0 + 5.0j, 8.0 + 2.0j, 3.0 + 0.5j
    t_b, t_c, u = 3e-7, 5e-7, 1.3
    # eps_c == eps_d removes the bottom interface
    rs, rp = fresnel_four_layer(ea, eb, ec, ec, t_b, t_c, u, K_1MHZ)
    rs_ref, rp_ref = fresnel_three_layer(ea, eb, ec, t_b, u, K_1MHZ)
    assert abs(rs - rs_ref) <= 1e-10
    assert abs(rp - rp_ref) <= 1e-10
    # zero-thickness c layer leaves a | b | d
    rs, rp = fresnel_four_layer(ea, eb, ec, ed, t_b, 0.0, u, K_1MHZ)
    rs_ref, rp_ref = fresnel_three_layer(ea, eb, ed, t_b, u, K_1MHZ)
    assert abs(rs - rs_ref) <= 1e-10
    assert abs(rp - rp_ref) <= 1e-10


def test_thick_absorbing_layer_hides_the_bottom():
    # an opaque middle layer makes the stack look like a half-space of it;
    # at 100 GHz a 5 mm absorber attenuates the round trip by ~e^-160
    k = 2.0 * math.pi * 1.0e11 / CONSTANTS.c
    ea, eb = 1.0 + 0.0j, -50.0 + 40.0j
    for ec in (2.0 + 0.0j, -500.0 + 100.0j):
        rs, rp = fresnel_three_layer(ea, eb, ec, 5e-3, 1.5, k)
        rs_ref, rp_ref = fresnel_interface(ea, eb, 1.5)
        assert rs == pytest.approx(rs_ref, abs=1e-10)
        assert rp == pytest.approx(rp_ref, abs=1e-10)


# the permittivities each material kind can produce at 0.1 MHz - 1 GHz; not
# arbitrary complex eps, since a lossless eps-near-zero layer, which no kind
# produces, breaks the |R| <= 1 bound by cancellation in the recursion
_MEDIUM_EPS = st.one_of(
    st.just(1.0 + 0.0j),  # vacuum
    st.builds(  # lossy dielectric
        lambda eps_r, tan_delta: eps_r * complex(1.0, tan_delta),
        st.floats(1.0, 100.0),
        st.floats(0.0, 1.0),
    ),
    st.builds(lambda x: complex(0.0, 10.0**x), st.floats(3.0, 16.0)),  # conductor
    st.builds(  # superconductor
        lambda a, b: complex(-(10.0**a), 10.0**b),
        st.floats(4.0, 14.0),
        st.floats(0.0, 12.0),
    ),
)


@settings(max_examples=500, deadline=None)
@given(
    media=st.lists(
        st.tuples(_MEDIUM_EPS, st.floats(-9.0, -3.0)), min_size=1, max_size=4
    ),
    log_f=st.floats(5.0, 9.0),
    u_prop=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4),
    log_excess=st.lists(st.floats(-6.0, 7.0), min_size=1, max_size=4),
)
def test_passive_stack_reflection_is_bounded(media, log_f, u_prop, log_excess):
    # |R| <= 1 for propagating waves and Im R >= 0 for evanescent ones:
    # a passive stack cannot return more energy than it receives
    eps_media = (1.0 + 0.0j, *(eps for eps, _ in media))
    thicknesses = tuple(10.0**log_t for _, log_t in media[:-1])
    k = 2.0 * math.pi * 10.0**log_f / CONSTANTS.c
    for r in stack_reflection(eps_media, thicknesses, np.array(u_prop), k):
        assert np.all(np.abs(r) <= 1.0 + 1e-12)
    u_evan = 1.0 + 10.0 ** np.array(log_excess)
    for r in stack_reflection(eps_media, thicknesses, u_evan, k):
        assert np.all(r.imag >= -1e-12 * np.maximum(1.0, np.abs(r)))


@pytest.mark.xfail(
    strict=True,
    reason="Im R < 0 where W of a nearly lossless layer and of the bulk vanish "
    "together; ROADMAP item 1 (the admittance kernel) is the fix",
)
def test_evanescent_reflection_stays_passive_where_two_media_have_w_zero():
    # u^2 = 4 is eps of the top layer, whose 9.5e-34 loss keeps it off the
    # lossless W = 0 fallback, and of the bulk; Im Rs is -2.4e-6 today
    k = 2.0 * math.pi * 1e5 / CONSTANTS.c
    eps_media = (1.0 + 0.0j, 4.0 + 9.5e-34j, 5.0 + 0.0j, 4.0 + 0.0j)
    for r in stack_reflection(eps_media, (1e-3, 1e-3), np.array([2.0]), k):
        assert np.all(r.imag >= -1e-12 * np.maximum(1.0, np.abs(r)))


@pytest.mark.xfail(
    strict=True,
    reason="|Rp| > 1 at grazing incidence over a lossless layer on a "
    "superconductor; ROADMAP item 1 (the admittance kernel) is the fix",
)
def test_grazing_reflection_stays_passive_over_a_superconductor():
    # one of the property test's rare draws: |Rp| - 1 is 3.4e-12 here, where
    # a 50-digit oracle and the admittance form both keep |Rp| <= 1
    k = 2.0 * math.pi * 1e5 / CONSTANTS.c
    eps_media = (1.0 + 0.0j, 49.0 + 0.0j, -1e14 + 1.0j)
    for r in stack_reflection(eps_media, (1e-4,), np.array([0.9999999999999999]), k):
        assert np.all(np.abs(r) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# the entry check on eps


@pytest.mark.parametrize("im", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("medium", [0, 1, 2])
def test_stack_reflection_rejects_a_medium_that_is_not_passive(im, medium):
    eps_media = [1.0 + 0.0j, 4.0 + 1.0j, -30.0 + 5.0j]
    eps_media[medium] = complex(eps_media[medium].real, im)
    with pytest.raises(DomainError, match=f"^Im eps of medium {medium} must be"):
        stack_reflection(eps_media, (1e-6,), np.array([0.5, 2.0]), K_1MHZ)


@pytest.mark.parametrize("re", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("medium", [0, 1, 2])
def test_stack_reflection_rejects_a_non_finite_real_part(re, medium):
    eps_media = [1.0 + 0.0j, 4.0 + 1.0j, -30.0 + 5.0j]
    eps_media[medium] = complex(re, eps_media[medium].imag)
    with pytest.raises(DomainError, match=f"^Re eps of medium {medium} must be finite"):
        stack_reflection(eps_media, (1e-6,), np.array([0.5, 2.0]), K_1MHZ)


@pytest.mark.parametrize("re", [math.nan, -math.inf])
def test_stack_reflection_rejects_a_lossy_bulk_with_non_finite_real_part(re):
    with pytest.raises(DomainError, match="^Re eps of medium 1 must be finite"):
        stack_reflection([1, complex(re, 1)], (), [0.5], K_1MHZ)


# lossless media of any Re eps, as vacuum and a dielectric with tan delta = 0 are
_LOSSLESS_EPS = st.builds(lambda re: complex(re, 0.0), st.floats(-100.0, 100.0))


def _bits(r):
    return np.ascontiguousarray(r, dtype=complex).view(np.int64)


def _outcome(eps_media, thicknesses, u, k):
    """The bits of both reflections, or the type of what was raised."""
    try:
        return [_bits(r).tolist() for r in stack_reflection(eps_media, thicknesses, u, k)]
    except (DegenerateInterfaceError, RuntimeWarning) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(
    media=st.lists(
        st.tuples(_MEDIUM_EPS | _LOSSLESS_EPS, st.floats(-9.0, -3.0)), min_size=1, max_size=4
    ),
    negative=st.lists(st.booleans(), min_size=5, max_size=5),
    log_f=st.floats(5.0, 9.0),
    u=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8),
)
def test_negative_zero_loss_gives_the_bits_of_positive_zero(media, negative, log_f, u):
    # Im eps = -0.0 passes the entry check and takes the decaying branch
    eps_media = [1.0 + 0.0j, *(eps for eps, _ in media)]
    signed = [complex(eps.real, -0.0) if neg and eps.imag == 0.0 else eps
              for eps, neg in zip(eps_media, negative)]
    thicknesses = tuple(10.0**log_t for _, log_t in media[:-1])
    k = 2.0 * math.pi * 10.0**log_f / CONSTANTS.c
    u = np.array(u)
    assert _outcome(signed, thicknesses, u, k) == _outcome(eps_media, thicknesses, u, k)


# ---------------------------------------------------------------------------
# evaluation: the principal root and the chunked integrand calls change no bit


def _integrand_calls(to_u, a, b, edges):
    """u = to_u(x) at the nodes x of each integrand call that adaptive_gk
    makes in its first round over the panels between ``edges``."""
    calls = []

    def integrand(x):
        calls.append(to_u(x))
        return np.zeros_like(x)  # converges after the first round

    adaptive_gk(integrand, a, b, breakpoints=edges)
    return calls


def _assert_matches_reference(eps_media, thicknesses, u, k):
    try:
        expected = reference_stack_reflection(eps_media, thicknesses, u, k)
    except (DegenerateInterfaceError, RuntimeWarning) as exc:
        with pytest.raises(type(exc)):
            stack_reflection(eps_media, thicknesses, u, k)
        return
    got = stack_reflection(eps_media, thicknesses, u, k)
    for pol in (0, 1):
        assert np.array_equal(_bits(got[pol]), _bits(expected[pol]))


@settings(max_examples=60, deadline=None)
@given(
    media=st.lists(
        st.tuples(_MEDIUM_EPS, st.floats(-9.0, -3.0)), min_size=1, max_size=4
    ),
    log_f=st.floats(5.0, 9.0),
    n_nodes=st.integers(1, 3 * 15 * _CHUNK + 1),
    seed=st.integers(0, 2**32 - 1),
)
# one node: a one-element complex product written over one of its own
# factors takes another numpy loop, with other last bits
@example(media=[(36 + 36j, -3.0), (1 + 0j, -3.0)], log_f=5.0, n_nodes=1, seed=0)
def test_stack_reflection_matches_the_reference_bit_for_bit(media, log_f, n_nodes, seed):
    eps_media = (1.0 + 0.0j, *(eps for eps, _ in media))
    thicknesses = tuple(10.0**log_t for _, log_t in media[:-1])
    k = 2.0 * math.pi * 10.0**log_f / CONSTANTS.c
    # propagating and evanescent nodes, drawn as greens_parallel maps them
    rng = np.random.default_rng(seed)
    t = 10.0 ** rng.uniform(-6.0, 7.0, n_nodes)
    u = np.where(rng.random(n_nodes) < 0.5,
                 np.sin(rng.uniform(0.0, math.pi / 2, n_nodes)), np.sqrt(1.0 + t * t))
    _assert_matches_reference(eps_media, thicknesses, u, k)
    # each call of the quadrature is its own recursion, W = 0 fallback
    # included; x in [0, 1) maps to propagating u and [1, 2] to evanescent
    calls = _integrand_calls(
        lambda x: np.where(x < 1.0, np.sin(0.5 * math.pi * x),
                           np.sqrt(1.0 + 10.0 ** (26.0 * x - 38.0))),
        0.0, 2.0, rng.uniform(0.0, 2.0, n_nodes // 15),
    )
    for u_call in calls:
        _assert_matches_reference(eps_media, thicknesses, u_call, k)


def test_w_zero_fallback_is_chosen_per_integrand_call():
    # 768 panels of width 1/512 over u, 272, 272 and 224 to a call; the
    # middle node of panel 300, in the second call, sits at u^2 = eps of the
    # lossless layer: only that call takes the admittance form
    k = 2.0 * math.pi * 1e5 / CONSTANTS.c
    eps_media = (1.0 + 0.0j, 4.0 + 0.0j, 9.0 + 2.0j, -30.0 + 5.0j)
    thicknesses = (1e-4, 1e-6)
    edges = 2.0 - (300.5 - np.arange(769.0)) / 512
    calls = _integrand_calls(lambda x: x, edges[0], edges[-1], edges[1:-1])
    assert [u.size for u in calls] == [15 * 272, 15 * 272, 15 * 224]
    assert 2.0 in calls[1]
    for u in calls:
        rs = stack_reflection(eps_media, thicknesses, u, k)[0]
        if u is calls[1]:
            expected = reference_admittance_reflection(eps_media, thicknesses, u**2, k)
        else:
            expected = reference_stack_reflection(eps_media, thicknesses, u, k)
        assert np.array_equal(_bits(rs), _bits(expected[0]))


def _packaged_stack(name):
    materials = load_materials(packaged_config("materials", "default"))
    return load_stack(packaged_config("stacks", name), materials)


def test_greens_parallel_bits_across_many_blocks():
    # converges after 378,480 evaluations, rounds of many blocks each; the
    # values were recorded before the integrands were blocked
    stack = _packaged_stack("sapphire-ybco-au")
    res = greens_parallel(stack, OMEGA_1MHZ, 200.0, 30e-6)
    assert res.g_parallel.hex() == "0x1.58ffa3ab239e5p+27"
    assert res.error.hex() == "0x1.6865b6a5ffbf2p+7"
    assert res.evaluations == 378_480


def test_greens_parallel_temporaries_stay_block_sized():
    # the README point fails after 528,270 evaluations, in rounds of up to
    # about 90,000 nodes; the quadrature evaluates them 4,080 to a call, so
    # what grows with a round is its per-panel arrays (the peak
    # was 48.5 MB with one call per round, and 7.7 MB with a complex output
    # for every node of the round)
    stack = _packaged_stack("sapphire-ybco-au")
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureFailure):
            greens_parallel(stack, OMEGA_1MHZ, 70.0, 225e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_readme_point_fails_once_its_tolerance_is_out_of_reach():
    # the evaluations left cannot split away the error the README point's
    # evanescent integral holds, long before they run out: it stopped after
    # 985,080 evaluations when only the next round's cost could stop it
    stack = _packaged_stack("sapphire-ybco-au")
    with pytest.raises(QuadratureFailure, match="tolerance out of reach") as exc_info:
        greens_parallel(stack, OMEGA_1MHZ, 70.0, 225e-6)
    assert exc_info.value.evaluations < 700_000


# ---------------------------------------------------------------------------
# stacks of material layers


def gold_half_space() -> LayerStack:
    return LayerStack((Layer(Conductor(GOLD, name="au")),), name="gold")


def test_stack_validation():
    gold = Conductor(GOLD, name="au")
    with pytest.raises(DomainError):
        LayerStack(())
    with pytest.raises(DomainError):
        LayerStack((Layer(gold, 1e-7),))  # bottom must be semi-infinite
    with pytest.raises(DomainError):
        LayerStack((Layer(gold), Layer(gold)))  # only bottom may be bulk
    with pytest.raises(DomainError):
        Layer(gold, 0.0)


def test_london_depth_substitution_changes_only_superconductors():
    stack = _packaged_stack("sapphire-ybco-au")
    swapped = stack.with_london_depth(200e-9)
    assert swapped.name == stack.name
    assert len(swapped.layers) == len(stack.layers)
    sc_layers = 0
    for old, new in zip(stack.layers, swapped.layers):
        assert new.thickness == old.thickness
        if isinstance(old.material, TwoFluidSC):
            sc_layers += 1
            assert old.material.lambda0 != 200e-9
            assert new.material.lambda0 == 200e-9
            assert new.material == replace(old.material, lambda0=200e-9)
        else:
            assert new is old
    assert sc_layers == 1


def test_london_depth_substitution_needs_a_superconductor():
    with pytest.raises(DomainError, match="no superconducting layer"):
        gold_half_space().with_london_depth(150e-9)
    assert issubclass(NoSuperconductorError, DomainError)


def test_fresnel_stack_equals_direct_interface_for_half_space():
    stack = gold_half_space()
    eps = Conductor(GOLD).permittivity(OMEGA_1MHZ, 300.0)
    for u in (0.3, 2.0):
        rs, rp = fresnel_stack(stack, u, OMEGA_1MHZ, 300.0)
        rs_ref, rp_ref = fresnel_interface(1.0 + 0.0j, eps, u)
        assert rs == pytest.approx(rs_ref, rel=1e-13)
        assert rp == pytest.approx(rp_ref, rel=1e-13)


# ---------------------------------------------------------------------------
# surface response integral


def test_greens_vacuum_is_zero():
    stack = LayerStack((Layer(Vacuum()),), name="empty")
    res = greens_parallel(stack, OMEGA_1MHZ, 300.0, 225e-6)
    assert res.g_parallel == 0.0
    assert res.propagating == 0.0
    assert res.evanescent == 0.0


def test_greens_conductor_matches_quasistatic_closed_form():
    # conductor half-space with d << skin depth: g ~ (3/8) omega eps0/(sigma k^3 d^3)
    stack = gold_half_space()
    sigma = 1.0 / GOLD.lookup(300.0)
    d = 10e-6
    res = greens_parallel(stack, OMEGA_1MHZ, 300.0, d)
    k = OMEGA_1MHZ / CONSTANTS.c
    expected = 3.0 * OMEGA_1MHZ * CONSTANTS.eps0 / (8.0 * sigma * k**3 * d**3)
    assert res.g_parallel == pytest.approx(expected, rel=0.02)
    assert res.error < 1e-3 * res.g_parallel


def test_greens_suppressed_above_near_perfect_mirror():
    # in-plane field fluctuations nearly vanish above an almost ideal
    # conductor: the propagating part tends to -1 and the evanescent part,
    # which scales as sqrt(rho)/d^2 when d >> skin depth, tends to zero
    mirror = ResistivityTable.from_pairs([(1.0, 1e-23), (400.0, 1e-23)])
    stack = LayerStack((Layer(Conductor(mirror, name="pec")),), name="mirror")
    res = greens_parallel(stack, OMEGA_1MHZ, 300.0, 225e-6)
    assert res.propagating == pytest.approx(-1.0, abs=1e-6)
    assert 0.0 <= 1.0 + res.g_parallel < 1e-3


def test_greens_rejects_nonpositive_distance():
    with pytest.raises(DomainError):
        greens_parallel(gold_half_space(), OMEGA_1MHZ, 300.0, 0.0)


@pytest.mark.parametrize(
    "distance, message",
    [(1e-306, "evanescent cut-off 37/(2 k d) must be finite, got inf"),
     (5e-324, "k * ion height must be > 0, got 0.0")],
    ids=["cut-off-overflows", "kd-underflows"],
)
def test_greens_rejects_a_height_whose_cut_off_leaves_the_float_range(distance, message):
    # each height is > 0; 37/(2kd) overflows, or kd itself underflows to 0
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        greens_parallel(gold_half_space(), OMEGA_1MHZ, 300.0, distance)


def test_greens_splits_into_propagating_and_evanescent_parts():
    res = greens_parallel(gold_half_space(), OMEGA_1MHZ, 300.0, 225e-6)
    assert res.g_parallel == pytest.approx(
        res.propagating + res.evanescent, rel=1e-12
    )
    assert res.evaluations > 0
