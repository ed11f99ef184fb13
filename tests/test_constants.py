"""Atomic data registry, vapor pressure, and the frequency convention."""

import math

import numpy as np
import pytest

from rbfilter.constants import (
    DEFAULT_DETUNINGS,
    ISOTOPES,
    RB85,
    RB87,
    REFERENCE,
    VAPOR_T_MAX_K,
    VAPOR_T_MIN_K,
    hyperfine_shift_mhz,
    number_density_m3,
    vapor_pressure_pa,
)


def test_ground_splittings():
    # A * (I + 1/2): the two textbook numbers everything else hangs on
    assert RB87.a_ground_mhz * 2 == pytest.approx(6834.68, abs=0.01)
    assert RB85.a_ground_mhz * 3 == pytest.approx(3035.73, abs=0.01)


def test_natural_abundances_sum_to_one():
    assert sum(iso.natural_abundance for iso in ISOTOPES.values()) == pytest.approx(1.0)


def test_isotope_data_is_physical():
    isotopes = ISOTOPES.values()
    assert {iso.nuclear_spin for iso in isotopes} == {1.5, 2.5}
    assert all(iso.mass_kg > 0.0 for iso in isotopes)
    assert all(0.0 <= iso.natural_abundance <= 1.0 for iso in isotopes)
    assert all(iso.natural_linewidth_mhz > 0.0 for iso in isotopes)
    # both manifolds are J = 1/2, split by A (I + 1/2): the ground one is the wider
    assert all(iso.a_ground_mhz > iso.a_excited_mhz > 0.0 for iso in isotopes)


def test_hyperfine_shift_interval_rule():
    # E(F) - E(F-1) = A*F for J = 1/2
    for iso in (RB85, RB87):
        f_hi = iso.nuclear_spin + 0.5
        shift = hyperfine_shift_mhz(iso.a_ground_mhz, iso.nuclear_spin, f_hi)
        shift_lo = hyperfine_shift_mhz(iso.a_ground_mhz, iso.nuclear_spin, f_hi - 1)
        assert shift - shift_lo == pytest.approx(iso.a_ground_mhz * f_hi, rel=1e-12)


def test_vapor_pressure_monotone_and_positive():
    temps = np.linspace(VAPOR_T_MIN_K, VAPOR_T_MAX_K, 1001)
    p = np.array([vapor_pressure_pa(t) for t in temps])
    assert np.all(p > 0)
    assert np.all(np.diff(p) > 0)


def test_vapor_pressure_scale_at_reference_points():
    # saturated Rb vapor: ~1e-4 Pa at 25 C rising ~4 orders by 140 C
    assert 1e-5 < vapor_pressure_pa(298.15) < 1e-3
    assert 1e-1 < vapor_pressure_pa(413.15) < 1e1


def test_vapor_pressure_domain():
    with pytest.raises(ValueError):
        vapor_pressure_pa(VAPOR_T_MIN_K - 1.0)
    with pytest.raises(ValueError):
        vapor_pressure_pa(VAPOR_T_MAX_K + 1.0)


def test_number_density_ideal_gas_consistency():
    t = 373.15
    n = number_density_m3(t)
    assert n == pytest.approx(vapor_pressure_pa(t) / (1.380649e-23 * t), rel=1e-12)
    assert number_density_m3(t, fraction=0.25) == pytest.approx(0.25 * n, rel=1e-12)
    with pytest.raises(ValueError):
        number_density_m3(t, fraction=1.5)


def test_reference_frequency_is_d1():
    # D1 line sits at 794.979 nm
    lam = 299792458.0 / REFERENCE.reference_frequency_hz
    assert lam * 1e9 == pytest.approx(794.979, abs=0.01)


def test_detuning_round_trip():
    for d in (-2.3, 0.0, 7.8):
        omega = REFERENCE.detuning_to_omega(d)
        back = (omega / (2 * math.pi) - REFERENCE.reference_frequency_hz) * 1e-9
        assert back == pytest.approx(d, abs=1e-9)


def test_laser_detunings_back_solved_across_ground_splitting():
    split = RB87.a_ground_mhz * 2 * 1e-3
    assert DEFAULT_DETUNINGS.write_laser == pytest.approx(
        DEFAULT_DETUNINGS.stokes + split, rel=1e-12
    )
    assert DEFAULT_DETUNINGS.read_laser == pytest.approx(
        DEFAULT_DETUNINGS.anti_stokes - split, rel=1e-12
    )
    assert DEFAULT_DETUNINGS.signal() == (-2.3, 7.8)


def test_isotope_shift_sign():
    # Rb85 D1 centroid lies below Rb87's
    assert RB85.isotope_shift_mhz < RB87.isotope_shift_mhz
