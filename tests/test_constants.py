"""Constants, unit helpers, and the heating-rate conversion."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from trapnoise.constants import (
    CONSTANTS,
    DomainError,
    PhysicalConstants,
    heating_rate_from_noise,
    noise_from_heating_rate,
    omega_from_hz,
    pow_or_inf,
)


def test_codata_values():
    assert CONSTANTS.kB == 1.380649e-23
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.c == 299792458.0
    assert CONSTANTS.q_e == 1.602176634e-19
    assert CONSTANTS.eps0 == pytest.approx(8.8541878128e-12, rel=0.0)
    assert CONSTANTS.mu0 == pytest.approx(1.25663706212e-6, rel=0.0)
    # eps0 * mu0 * c^2 = 1 to the precision of the recommended values
    assert CONSTANTS.eps0 * CONSTANTS.mu0 * CONSTANTS.c**2 == pytest.approx(
        1.0, rel=1e-9
    )


def test_calcium_ion_mass():
    # 39.9625909 u in kg
    assert CONSTANTS.m_Ca40 == pytest.approx(6.6359e-26, rel=1e-4)


def test_fingerprint_is_stable_and_value_sensitive():
    fp = CONSTANTS.fingerprint()
    assert fp == PhysicalConstants().fingerprint()
    assert len(fp) == 16
    assert int(fp, 16) >= 0  # hex digest prefix
    other = PhysicalConstants(kB=1.4e-23)
    assert other.fingerprint() != fp


def test_heating_rate_hand_computed():
    # Gamma = q^2 S / (4 m hbar omega) assembled independently here
    omega = 2.0 * math.pi * 1.0e6
    s_e = 1.0e-14
    expected = (
        CONSTANTS.q_e**2
        * s_e
        / (4.0 * CONSTANTS.m_Ca40 * CONSTANTS.hbar * omega)
    )
    assert heating_rate_from_noise(s_e, omega) == pytest.approx(expected, rel=1e-15)


def test_one_phonon_per_second_anchor():
    # 1 phonon/s at 2pi x 1 MHz corresponds to ~6.9e-15 V^2 m^-2 Hz^-1
    omega = 2.0 * math.pi * 1.0e6
    s_e = noise_from_heating_rate(1.0, omega)
    assert s_e == pytest.approx(6.9e-15, rel=0.02)


def test_conversion_round_trip():
    omega = 2.0 * math.pi * 0.4e6
    for gamma in (1e-3, 0.21, 3.76, 150.0):
        s_e = noise_from_heating_rate(gamma, omega)
        assert heating_rate_from_noise(s_e, omega) == pytest.approx(gamma, rel=1e-14)


def test_conversion_scales_linearly_with_noise_and_inverse_omega():
    omega = 2.0 * math.pi * 1.0e6
    base = heating_rate_from_noise(1e-15, omega)
    assert heating_rate_from_noise(3e-15, omega) == pytest.approx(3 * base, rel=1e-14)
    assert heating_rate_from_noise(1e-15, 2 * omega) == pytest.approx(
        base / 2, rel=1e-14
    )


def test_conversion_rejects_bad_inputs():
    with pytest.raises(DomainError):
        heating_rate_from_noise(1e-15, 0.0)
    with pytest.raises(DomainError):
        heating_rate_from_noise(-1e-15, 1e6)
    with pytest.raises(DomainError):
        noise_from_heating_rate(-1.0, 1e6)
    with pytest.raises(DomainError):
        noise_from_heating_rate(1.0, -1e6)


def test_omega_hz_round_trip():
    assert omega_from_hz(1.0e6) == pytest.approx(2.0 * math.pi * 1.0e6, rel=0.0)
    assert omega_from_hz(0.73e6) / (2.0 * math.pi) == pytest.approx(0.73e6, rel=1e-15)


_OMEGA = st.floats(4.0, 9.0).map(lambda e: 2.0 * math.pi * 10.0**e)


@settings(max_examples=300)
@given(log_s=st.floats(-20.0, -6.0), omega=_OMEGA)
def test_noise_to_rate_and_back_is_exact_to_rounding(log_s, omega):
    s_e = 10.0**log_s
    back = noise_from_heating_rate(heating_rate_from_noise(s_e, omega), omega)
    assert abs(back - s_e) <= 1e-15 * s_e


@settings(max_examples=300)
@given(log_gamma=st.floats(-4.0, 6.0), omega=_OMEGA)
def test_rate_to_noise_and_back_is_exact_to_rounding(log_gamma, omega):
    gamma = 10.0**log_gamma
    back = heating_rate_from_noise(noise_from_heating_rate(gamma, omega), omega)
    assert abs(back - gamma) <= 1e-15 * gamma


@settings(max_examples=300, deadline=None)
@given(base=st.floats(1e-300, 1e300), exponent=st.floats(-50.0, 50.0))
def test_pow_or_inf_is_the_float_power_or_inf_where_it_overflows(base, exponent):
    try:
        expected = base**exponent
    except OverflowError:
        expected = math.inf
    assert pow_or_inf(base, exponent) == expected
    assert pow_or_inf(-1e200, 2) == pow_or_inf(1e200, 2) == math.inf


def test_heating_rate_rejects_an_omega_whose_denominator_underflows():
    # 4 m hbar omega is 0 at omega = 1e-300 rad/s, which would divide by 0
    with pytest.raises(DomainError, match=r"^4 m hbar omega must be > 0, got 0.0$"):
        heating_rate_from_noise(1e-20, 1e-300)
