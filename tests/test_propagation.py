"""Jones propagation, filter cascades, and causality of the spectra."""

import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import hilbert

from rbfilter import lineshape
from rbfilter.constants import C_LIGHT, REFERENCE
from rbfilter.errors import ConfigError, DataError
from rbfilter.lineshape import CELL_KEYS, CellConfig, default_grid, susceptibility, with_keys
from rbfilter.optimize import PAPER_OPTIMUM, ChainParams, build_cells
from rbfilter.propagation import (
    Polarizer,
    cascade,
    cell_transmission,
    dual_filter,
    faraday_rotation,
    jones_transfer,
    opaque_region_width,
    transmission_db,
)
from rbfilter.zeeman import zeeman_lines

from oracles import voigt_perpendicular_chi
from strategies import cell_configs

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
        m = jones_transfer(spec, GRID)
        t_cross = np.abs(m[:, 1, 0]) ** 2
        t_par = np.abs(m[:, 0, 0]) ** 2
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
    theta, t_rot = faraday_rotation(spec, GRID)
    got = np.abs(jones_transfer(spec, GRID)[:, 1, 0]) ** 2
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


@settings(max_examples=50, deadline=None)
@given(absorption=cell_configs("transverse"), far=cell_configs("longitudinal"),
       extinction=st.floats(0.0, 0.999))
def test_jones_matrices_passive(absorption, far, extinction):
    """Over the whole valid config space the Jones matrices of cells of both
    geometries are passive and every transmission lies in [0, 1]."""
    with np.errstate(all="raise", under="ignore"):
        abs_spec, far_spec = susceptibility(absorption, GRID), susceptibility(far, GRID)
        s_max = [np.linalg.svd(jones_transfer(spec, GRID), compute_uv=False).max()
                 for spec in (abs_spec, far_spec)]
        transmissions = (cell_transmission(abs_spec, GRID),
                         cell_transmission(far_spec, GRID, extinction=extinction),
                         dual_filter(abs_spec, far_spec, extinction=extinction).transmission(GRID))
    assert max(s_max) <= 1.0 + 1e-12
    for t in transmissions:
        assert np.all((t >= 0.0) & (t <= 1.0 + 1e-12))


def test_zero_density_chain_is_transparent():
    cell = CellConfig(rb85_fraction=0.0, rb87_fraction=0.0, geometry="longitudinal")
    m = jones_transfer(cell, GRID)
    assert np.max(np.abs(np.abs(m[:, 0, 0]) ** 2 - 1.0)) < 1e-12
    assert np.max(np.abs(m[:, 1, 0]) ** 2) < 1e-12


def test_faraday_transmission_extinction_floor():
    cell = _faraday_cell()
    t0 = cell_transmission(cell, GRID, extinction=0.0)
    t5 = cell_transmission(cell, GRID, extinction=1e-5)
    assert np.all(t5 >= t0)
    assert np.max(t5 - t0) <= 1e-5 + 1e-12
    with pytest.raises(ConfigError):
        cell_transmission(cell, GRID, extinction=1.0)


def test_absorption_transmission_polarization_mix():
    """A transverse cell alone passes cos^2(psi) T_pi + sin^2(psi) T_sigma."""
    cell = CellConfig(temperature_k=353.15, b_field_t=1e-2, geometry="transverse")

    def at(psi):
        return cell_transmission(replace(cell, polarization_angle_rad=psi), GRID)

    t_pi, t_sigma, t_mix = at(0.0), at(math.pi / 2), at(math.pi / 4)
    assert np.allclose(t_mix, 0.5 * (t_pi + t_sigma), rtol=0, atol=1e-12)
    assert np.all((t_pi >= 0) & (t_pi <= 1.0 + 1e-12))


def test_geometry_mismatch_raises():
    with pytest.raises(ConfigError):
        faraday_rotation(CellConfig(geometry="transverse"), GRID)


def _amplitudes(spec):
    """A transverse cell's eigenmode amplitudes exp(i k chi), k = omega L / 2c:
    pi from chi_pi, perp from the oracle's exact n_perp^2 - 1 of chi_+ and chi_-."""
    k = REFERENCE.detuning_to_omega(spec.grid_ghz) * spec.cell.length_m / (2.0 * C_LIGHT)
    chi_perp = voigt_perpendicular_chi(spec.chi["sigma+"], spec.chi["sigma-"])
    return {"pi": np.exp(1j * k * spec.chi["pi"]), "perp": np.exp(1j * k * chi_perp)}


@settings(max_examples=30, deadline=None)
@given(cell=cell_configs("transverse"), axis_rad=st.floats(-math.pi, math.pi),
       extinction=st.floats(0.0, 0.999))
def test_transverse_cell_between_parallel_polarizers(cell, axis_rad, extinction):
    """Between parallel polarizers at psi to its field a transverse cell passes
    |cos^2 psi a_pi + sin^2 psi a_perp|^2 + eps |sin psi cos psi (a_pi - a_perp)|^2:
    the light it turns toward its less-absorbed axis meets the second polarizer."""
    spec = susceptibility(cell, GRID)
    got = cascade([Polarizer(axis_rad, extinction), spec, Polarizer(axis_rad, extinction)], GRID,
                  input_angle_rad=axis_rad)
    a = _amplitudes(spec)
    psi = axis_rad - cell.polarization_angle_rad
    c, s = math.cos(psi), math.sin(psi)
    want = (np.abs(c * c * a["pi"] + s * s * a["perp"]) ** 2
            + extinction * np.abs(s * c * (a["pi"] - a["perp"])) ** 2)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(cells=st.lists(st.one_of(cell_configs("transverse"), cell_configs("longitudinal")),
                      min_size=1, max_size=3),
       polarizers=st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(0.0, 0.999)),
                           min_size=1, max_size=4),
       input_angle_rad=st.floats(-math.pi, math.pi), data=st.data())
def test_zero_density_cells_leave_malus_law(cells, polarizers, input_angle_rad, data):
    """Cells with no atoms, of either geometry and anywhere in the chain, leave
    the product over the polarizers of cos^2(delta) + eps sin^2(delta)."""
    chain = [Polarizer(angle, eps) for angle, eps in polarizers]
    for cell in cells:
        empty = replace(cell, rb85_fraction=0.0, rb87_fraction=0.0)
        chain.insert(data.draw(st.integers(0, len(chain))), empty)
    want, angle = 1.0, input_angle_rad
    for axis, eps in polarizers:
        want *= math.cos(angle - axis) ** 2 + eps * math.sin(angle - axis) ** 2
        angle = axis
    got = cascade(chain, GRID, input_angle_rad=input_angle_rad)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(cell=cell_configs("transverse"))
# the reference absorption cell at 300 mT, and at 140 C / 200 mT, where the
# average (chi_+ + chi_-)/2 once put the perpendicular phase 0.23 rad off
@example(cell=build_cells(ChainParams(100.0, 100.0, 300.0, 10.0))[0])
@example(cell=build_cells(ChainParams(140.0, 100.0, 300.0, 10.0))[0])
@example(cell=build_cells(ChainParams(140.0, 100.0, 200.0, 10.0))[0])
def test_transverse_perp_amplitude_is_exact(cell):
    """Perpendicular to its field a transverse cell passes exp(i k chi_perp),
    chi_perp = n_perp^2 - 1 from the oracle's dielectric tensor of chi_+ and
    chi_- of the same vapor in a longitudinal cell."""
    mats = jones_transfer(cell, GRID)
    c, s = math.cos(cell.polarization_angle_rad), math.sin(cell.polarization_angle_rad)
    got = s * s * mats[:, 0, 0] - s * c * (mats[:, 0, 1] + mats[:, 1, 0]) + c * c * mats[:, 1, 1]
    circular = susceptibility(replace(cell, geometry="longitudinal"), GRID)
    k = REFERENCE.detuning_to_omega(GRID) * cell.length_m / (2.0 * C_LIGHT)
    want = np.exp(1j * k * voigt_perpendicular_chi(circular.chi["sigma+"], circular.chi["sigma-"]))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_transverse_perp_amplitude_at_zero_field_is_exp_i_k_chi_mean():
    """At B = 0, eps_xy = 0 (up to summation order: its square is below 1e-30)
    and n_perp^2 - 1 is (chi_+ + chi_-)/2 itself: the perpendicular amplitude
    must carry no rounding from forming 1 + chi and taking 1 away again, which
    costs k ulp(1) of phase."""
    cell = CellConfig(geometry="transverse", b_field_t=0.0, polarization_angle_rad=math.pi / 2)
    spec = susceptibility(cell, GRID)
    assert np.max(np.abs(spec.chi["sigma+"] - spec.chi["sigma-"])) < 1e-15
    k = REFERENCE.detuning_to_omega(GRID) * cell.length_m / (2.0 * C_LIGHT)
    chi_mean = 0.5 * (spec.chi["sigma+"] + spec.chi["sigma-"])
    np.testing.assert_allclose(jones_transfer(spec, GRID)[:, 0, 0], np.exp(1j * k * chi_mean),
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("temperature_c, bound_t, bound_phase_rad",
                         [(100.0, 3.5e-5, 5.6e-3), (140.0, 1.7e-4, 0.15)])
def test_sigma_mode_approximation_bound(temperature_c, bound_t, bound_phase_rad):
    """The reference absorption cell at 300 mT on the default grid: the
    perpendicular amplitude jones_transfer passes stays within the bounds once
    stated for the averaged (chi_+ + chi_-)/2 mode, against the exact
    n_perp^2 = eps_xx + eps_xy^2/eps_xx."""
    grid = default_grid()
    cell, _ = build_cells(ChainParams(temperature_c, 100.0, 300.0, 10.0))
    assert cell.polarization_angle_rad == pytest.approx(math.pi / 2)
    got = jones_transfer(cell, grid)[:, 0, 0]  # field along y: x is the perpendicular mode
    circular = susceptibility(replace(cell, geometry="longitudinal"), grid)
    k = REFERENCE.detuning_to_omega(grid) * cell.length_m / (2.0 * C_LIGHT)
    exact = np.exp(1j * k * voigt_perpendicular_chi(circular.chi["sigma+"], circular.chi["sigma-"]))
    t_exact = np.abs(exact) ** 2
    assert np.max(np.abs(np.abs(got) ** 2 - t_exact)) <= bound_t
    seen = t_exact > 1e-3
    assert np.max(np.abs(np.angle(got[seen] / exact[seen]))) <= bound_phase_rad


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
    chain = [Polarizer(0.0, extinction=0.0), cell, Polarizer(math.pi / 2.0, extinction=0.0)]
    t_chain = cascade(chain, GRID)
    t_direct = np.abs(jones_transfer(cell, GRID)[:, 1, 0]) ** 2
    assert np.allclose(t_chain, t_direct, rtol=0, atol=1e-14)


def test_cascade_open_ended_rotator_conserves_intensity():
    cell = CellConfig(rb85_fraction=0.0, rb87_fraction=0.0, geometry="longitudinal")
    t = cascade([Polarizer(0.0, extinction=0.0), cell], GRID)
    assert np.allclose(t, 1.0, rtol=0, atol=1e-12)


def test_cascade_empty_chain_rejected():
    with pytest.raises(ConfigError):
        cascade([], GRID)


def test_cascade_rejects_unknown_element():
    with pytest.raises(ConfigError, match="unknown chain element"):
        cascade([Polarizer(0.0), "faraday"], GRID)


def test_dual_filter_composes_both_cells():
    absorption = CellConfig(temperature_k=373.15, b_field_t=1e-2, geometry="transverse",
                            rb85_fraction=0.985, rb87_fraction=0.015)
    far = _faraday_cell(temperature_k=375.15)
    chain = dual_filter(absorption, far)
    t = chain.transmission(GRID)
    assert t.shape == GRID.shape
    assert np.all((t >= 0.0) & (t <= 1.0 + 1e-9))
    # chain is strictly tighter than the Faraday stage alone
    t_far = cell_transmission(far, GRID, extinction=1e-5)
    assert np.all(t <= t_far + 1e-9)
    # precomputed spectra give the same bytes; a spectrum on another grid is refused
    abs_spec, far_spec = susceptibility(absorption, GRID), susceptibility(far, GRID)
    assert dual_filter(abs_spec, far_spec).transmission(GRID).tobytes() == t.tobytes()
    for cell, spec in ((absorption, abs_spec), (far, far_spec)):
        assert cell_transmission(spec, GRID).tobytes() == cell_transmission(cell, GRID).tobytes()
    uses = (lambda g: dual_filter(abs_spec, far_spec).transmission(g),
            lambda g: cell_transmission(abs_spec, g),
            lambda g: faraday_rotation(far_spec, g),
            lambda g: jones_transfer(abs_spec, g),
            lambda g: jones_transfer(far_spec, g),
            lambda g: cell_transmission(far_spec, g))
    for use in uses:
        with pytest.raises(DataError, match="another detuning grid"):
            use(GRID[::2])


def test_cascade_evaluates_its_cells_as_one_voigt_block(monkeypatch):
    """The dual filter's two cells share each Faddeeva call: one per grid slice, not per cell."""
    shapes = []
    real = lineshape.faddeeva

    def recording(z):
        shapes.append(np.shape(z))
        return real(z)

    monkeypatch.setattr(lineshape, "faddeeva", recording)
    grid = default_grid(41)
    cells = build_cells(ChainParams(100.0, 102.0, 10.0, 10.0))
    dual_filter(*cells).transmission(grid)
    for cell in cells:
        susceptibility(cell, grid)
    chain, absorption, far = shapes
    assert chain == (absorption[0] + far[0], grid.size)


_TEMPERATURE_C = st.floats(CELL_KEYS["temperature_c"].lo, CELL_KEYS["temperature_c"].hi)
_FIELD_MT = st.floats(CELL_KEYS["b_field_mt"].lo, CELL_KEYS["b_field_mt"].hi)


@settings(max_examples=25, deadline=None)
@given(t_abs_c=_TEMPERATURE_C, t_far_c=_TEMPERATURE_C, b_abs_mt=_FIELD_MT, b_far_mt=_FIELD_MT,
       angle_deg=st.floats(CELL_KEYS["polarization_angle_deg"].lo,
                           CELL_KEYS["polarization_angle_deg"].hi),
       extinction=st.floats(1e-7, 1e-2))
def test_dual_filter_is_light_direction_insensitive(t_abs_c, t_far_c, b_abs_mt, b_far_mt,
                                                    angle_deg, extinction):
    """The paper's dual filter passes the same T whichever way the light runs:
    the reversed chain, entered along its first polarizer, matches the forward one."""
    grid = default_grid(801, -12.0, 12.0)
    absorption, far = build_cells(ChainParams(t_abs_c, t_far_c, b_abs_mt, b_far_mt))
    chain = dual_filter(with_keys(absorption, polarization_angle_deg=angle_deg), far,
                        extinction=extinction)
    forward = chain.transmission(grid)
    backward = cascade(chain.elements[::-1], grid, input_angle_rad=math.pi / 2.0)
    np.testing.assert_allclose(backward, forward, rtol=0.0, atol=1e-12)
    assert np.all((forward >= 0.0) & (forward <= 1.0 + 1e-12))


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
        for chi in spec.chi.values():
            re_kk = -np.imag(hilbert(chi.imag))
            peak = np.max(np.abs(chi.real))
            assert np.max(np.abs(re_kk[central] - chi.real[central])) < 0.02 * peak


def test_a_cold_dual_filter_builds_one_line_table_per_isotope_and_field():
    """Both cells of the paper optimum sit at 10 mT, one transverse and one
    longitudinal: the lines do not depend on the geometry, so Rb85 and Rb87
    cost one table each."""
    zeeman_lines.cache_clear()
    dual_filter(*build_cells(PAPER_OPTIMUM)).transmission(GRID)
    assert zeeman_lines.cache_info().misses == 2
