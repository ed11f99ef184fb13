"""Jones propagation, filter cascades, and causality of the spectra."""

import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import hilbert

from rbfilter.errors import ConfigError, DataError
from rbfilter.lineshape import CELL_KEYS, CellConfig, default_grid, susceptibility
from rbfilter.optimize import ChainParams, build_cells
from rbfilter.propagation import (
    AbsorptionCellElement,
    Polarizer,
    RotatorCellElement,
    absorption_transmission,
    cascade,
    dual_filter,
    faraday_rotation,
    faraday_transmission,
    jones_transfer,
    opaque_region_width,
    transmission_db,
)

GRID = default_grid(301, -12.0, 12.0)


def _faraday_cell(temperature_k=341.15, b_field_t=1e-2, **kw):
    return CellConfig(temperature_k=temperature_k, b_field_t=b_field_t,
                      geometry="longitudinal", rb85_fraction=0.0, rb87_fraction=1.0, **kw)


def _random_cells(n, seed):
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(n):
        cells.append(_faraday_cell(
            temperature_k=rng.uniform(310.0, 400.0),
            b_field_t=rng.uniform(1e-3, 5e-2),
        ))
    return cells


def test_jones_transmission_identity_random_settings():
    """T_crossed + T_parallel equals the mean circular intensity transmission."""
    for cell in _random_cells(20, seed=5):
        spec = susceptibility(cell, GRID)
        jt = jones_transfer(cell, GRID, spectrum=spec)
        t_cross = jt.crossed()
        t_par = jt.parallel()
        om = 2.0 * math.pi * (3.7710520580402096e14 + GRID * 1e9)
        from rbfilter.propagation import absorption_coefficients

        alpha = absorption_coefficients(spec)
        t_plus = np.exp(-alpha["sigma+"] * cell.length_m)
        t_minus = np.exp(-alpha["sigma-"] * cell.length_m)
        lhs = t_cross + t_par
        rhs = 0.5 * (t_plus + t_minus)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_equal_absorption_limit_reproduces_rotation_formula():
    """With both circular absorptions forced equal, T_crossed = t_rot sin^2(theta)."""
    cell = _faraday_cell()
    spec = susceptibility(cell, GRID)
    mean_im = 0.5 * (spec.chi["sigma+"].imag + spec.chi["sigma-"].imag)
    spec.chi["sigma+"] = spec.chi["sigma+"].real + 1j * mean_im
    spec.chi["sigma-"] = spec.chi["sigma-"].real + 1j * mean_im
    jt = jones_transfer(cell, GRID, spectrum=spec)
    theta, t_rot = faraday_rotation(cell, GRID, spectrum=spec)
    got = jt.crossed()
    want = t_rot * np.sin(theta) ** 2
    assert np.max(np.abs(got - want)) < 1e-10


def test_rotation_odd_in_field():
    cell_p = _faraday_cell(b_field_t=+8e-3)
    cell_m = _faraday_cell(b_field_t=-8e-3)
    th_p, _ = faraday_rotation(cell_p, GRID)
    th_m, _ = faraday_rotation(cell_m, GRID)
    assert np.max(np.abs(th_p + th_m)) < 1e-12 * np.max(np.abs(th_p))


def test_rotation_vanishes_at_zero_field():
    theta, t_rot = faraday_rotation(_faraday_cell(b_field_t=0.0), GRID)
    assert np.max(np.abs(theta)) < 1e-12  # pure rounding noise of chi+ - chi-
    assert np.all((0.0 <= t_rot) & (t_rot <= 1.0))


def test_jones_matrices_passive():
    for cell in _random_cells(5, seed=9):
        jt = jones_transfer(cell, GRID)
        assert jt.max_singular_value() <= 1.0 + 1e-9


def test_zero_density_chain_is_transparent():
    cell = CellConfig(rb85_fraction=0.0, rb87_fraction=0.0, geometry="longitudinal")
    jt = jones_transfer(cell, GRID)
    assert np.max(np.abs(jt.parallel() - 1.0)) < 1e-12
    assert np.max(np.abs(jt.crossed())) < 1e-12


def test_faraday_transmission_extinction_floor():
    cell = _faraday_cell()
    t0 = faraday_transmission(cell, GRID, extinction=0.0)
    t5 = faraday_transmission(cell, GRID, extinction=1e-5)
    assert np.all(t5 >= t0)
    assert np.max(t5 - t0) <= 1e-5 + 1e-12
    with pytest.raises(ConfigError):
        faraday_transmission(cell, GRID, extinction=1.0)


def test_absorption_transmission_polarization_mix():
    cell = CellConfig(temperature_k=353.15, b_field_t=1e-2, geometry="transverse")
    t_pi = absorption_transmission(cell, GRID, psi_rad=0.0)
    t_sigma = absorption_transmission(cell, GRID, psi_rad=math.pi / 2)
    t_mix = absorption_transmission(cell, GRID, psi_rad=math.pi / 4)
    assert np.allclose(t_mix, 0.5 * (t_pi + t_sigma), rtol=0, atol=1e-12)
    assert np.all((t_pi >= 0) & (t_pi <= 1.0 + 1e-12))


def test_geometry_mismatch_raises():
    transverse = CellConfig(geometry="transverse")
    longitudinal = _faraday_cell()
    with pytest.raises(ConfigError):
        faraday_rotation(transverse, GRID)
    with pytest.raises(ConfigError):
        absorption_transmission(longitudinal, GRID)
    with pytest.raises(ConfigError):
        AbsorptionCellElement(longitudinal)
    with pytest.raises(ConfigError):
        RotatorCellElement(transverse)


# ---------------------------------------------------------------------------
# Cascade walk
# ---------------------------------------------------------------------------


def test_cascade_crossed_polarizers_extinguish():
    t = cascade([Polarizer(0.0, extinction=0.0), Polarizer(math.pi / 2, extinction=0.0)], GRID)
    assert np.max(t) < 1e-30  # cos(pi/2)^2 in floats


def test_cascade_malus_law():
    for angle in (0.0, 0.3, math.pi / 3):
        t = cascade([Polarizer(0.0, extinction=0.0), Polarizer(angle, extinction=0.0)], GRID)
        assert np.allclose(t, math.cos(angle) ** 2, rtol=1e-12)


def test_cascade_rotator_between_crossed_polarizers_matches_jones():
    cell = _faraday_cell()
    chain = [Polarizer(0.0, extinction=0.0), RotatorCellElement(cell),
             Polarizer(math.pi / 2.0, extinction=0.0)]
    t_chain = cascade(chain, GRID)
    t_direct = faraday_transmission(cell, GRID, extinction=0.0)
    assert np.allclose(t_chain, t_direct, rtol=0, atol=1e-14)


def test_cascade_rejects_unpolarized_rotator_output_into_absorber():
    rot = RotatorCellElement(_faraday_cell())
    absorber = AbsorptionCellElement(CellConfig(geometry="transverse"))
    with pytest.raises(ConfigError):
        cascade([Polarizer(0.0), rot, absorber], GRID)


def test_cascade_open_ended_rotator_conserves_intensity():
    cell = CellConfig(rb85_fraction=0.0, rb87_fraction=0.0, geometry="longitudinal")
    t = cascade([Polarizer(0.0, extinction=0.0), RotatorCellElement(cell)], GRID)
    assert np.allclose(t, 1.0, rtol=0, atol=1e-12)


def test_cascade_empty_chain_rejected():
    with pytest.raises(ConfigError):
        cascade([], GRID)


def test_dual_filter_composes_both_cells():
    absorption = CellConfig(temperature_k=373.15, b_field_t=1e-2, geometry="transverse",
                            rb85_fraction=0.985, rb87_fraction=0.015)
    far = _faraday_cell(temperature_k=375.15)
    chain = dual_filter(absorption, far)
    t = chain.transmission(GRID)
    assert t.shape == GRID.shape
    assert np.all((t >= 0.0) & (t <= 1.0 + 1e-9))
    # chain is strictly tighter than the Faraday stage alone
    t_far = faraday_transmission(far, GRID, extinction=1e-5)
    assert np.all(t <= t_far + 1e-9)
    # precomputed spectra give the same bytes; a spectrum on another grid is refused
    spectra = (susceptibility(absorption, GRID), susceptibility(far, GRID))
    assert dual_filter(absorption, far, spectra=spectra).transmission(GRID).tobytes() == t.tobytes()
    with pytest.raises(DataError, match="another detuning grid"):
        dual_filter(absorption, far, spectra=spectra).transmission(GRID[::2])


_TEMPERATURE_C = st.floats(CELL_KEYS["temperature_c"].lo, CELL_KEYS["temperature_c"].hi)
_FIELD_T = st.floats(*CELL_KEYS["b_field_mt"].field_range())


@settings(max_examples=25, deadline=None)
@given(t_abs_c=_TEMPERATURE_C, t_far_c=_TEMPERATURE_C, b_abs_t=_FIELD_T, b_far_t=_FIELD_T,
       angle_rad=st.floats(*CELL_KEYS["polarization_angle_deg"].field_range()),
       extinction=st.floats(1e-7, 1e-2))
def test_dual_filter_is_light_direction_insensitive(t_abs_c, t_far_c, b_abs_t, b_far_t,
                                                    angle_rad, extinction):
    """The paper's dual filter passes the same T whichever way the light runs:
    the reversed chain, entered along its first polarizer, matches the forward one."""
    grid = default_grid(801, -12.0, 12.0)
    absorption, far = build_cells(ChainParams(t_abs_c, t_far_c, b_abs_t, b_far_t))
    chain = dual_filter(replace(absorption, polarization_angle_rad=angle_rad), far,
                        extinction=extinction)
    forward = chain.transmission(grid)
    backward = cascade(chain.elements[::-1], grid, input_angle_rad=math.pi / 2.0)
    np.testing.assert_allclose(backward, forward, rtol=0.0, atol=1e-12)


def test_transmission_db_floor():
    db = transmission_db(np.array([1.0, 1e-3, 0.0]))
    assert db[0] == 0.0
    assert db[1] == pytest.approx(-30.0)
    assert db[2] == -150.0


# ---------------------------------------------------------------------------
# Opaque-region width
# ---------------------------------------------------------------------------


def test_opaque_region_width_analytic_notch():
    grid = np.linspace(-10, 10, 4001)
    t = 1.0 - 0.9 * np.exp(-(grid / 3.0) ** 2)  # dips to 0.1 at center
    width = opaque_region_width(grid, t, level=0.5)
    # solve 1 - 0.9 exp(-(x/3)^2) = 0.5 -> x = 3 sqrt(ln(1.8))
    want = 2 * 3.0 * math.sqrt(math.log(0.9 / 0.5))
    assert width == pytest.approx(want, abs=2 * (grid[1] - grid[0]))


def test_opaque_region_width_transparent_spectrum():
    grid = np.linspace(-5, 5, 101)
    assert opaque_region_width(grid, np.full(grid.shape, 0.9)) == 0.0


def test_opaque_region_width_rejects_open_region():
    grid = np.linspace(-5, 5, 101)
    t = np.full(grid.shape, 0.1)
    with pytest.raises(DataError):
        opaque_region_width(grid, t)  # still opaque at the grid edge


def test_opaque_region_width_shape_mismatch():
    with pytest.raises(DataError):
        opaque_region_width(np.linspace(0, 1, 5), np.ones(4))


# ---------------------------------------------------------------------------
# Causality (Kramers-Kronig)
# ---------------------------------------------------------------------------


def test_kramers_kronig_hilbert_reconstruction():
    """Re chi from Im chi via the Hilbert transform, 2% of peak centrally."""
    n = 1 << 17
    wide = np.linspace(-400.0, 400.0, n)
    central = np.abs(wide) <= 15.0
    for cell in (_faraday_cell(),
                 CellConfig(temperature_k=373.15, b_field_t=1e-2, geometry="transverse",
                            rb85_fraction=0.985, rb87_fraction=0.015)):
        spec = susceptibility(cell, wide)
        for mode in spec.modes:
            chi = spec.mode(mode)
            re_kk = -np.imag(hilbert(chi.imag))
            peak = np.max(np.abs(chi.real))
            assert np.max(np.abs(re_kk[central] - chi.real[central])) < 0.02 * peak
