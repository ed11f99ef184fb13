"""Faddeeva/Voigt kernels and complex susceptibility spectra."""

import math

import numpy as np
import pytest

from rbfilter import lineshape
from rbfilter.errors import ConfigError, DataError
from rbfilter.lineshape import (
    CellConfig,
    KR_BROADENING_MHZ_PER_PA,
    default_grid,
    doppler_sigma_ghz,
    faddeeva,
    susceptibility,
    voigt_profile,
)
from rbfilter.zeeman import zeeman_lines

from oracles import faddeeva_quadrature


def test_faddeeva_at_origin():
    assert faddeeva(0.0) == pytest.approx(1.0, rel=1e-14)


def test_faddeeva_at_i():
    # w(i) = e * erfc(1), a classic closed-form spot value
    want = math.e * math.erfc(1.0)
    assert faddeeva(1j).real == pytest.approx(want, rel=1e-13)
    assert abs(faddeeva(1j).imag) < 1e-15


def test_faddeeva_asymptotic():
    # w(z) ~ i/(sqrt(pi) z) for large |z|
    z = 4000.0 + 3000.0j
    want = 1j / (math.sqrt(math.pi) * z)
    assert faddeeva(z) == pytest.approx(want, rel=1e-3)


def test_faddeeva_against_quadrature_oracle():
    rng = np.random.default_rng(7)
    n = 2000
    z = 10 ** rng.uniform(-2, 2, n) * np.exp(1j * rng.uniform(0.05, math.pi - 0.05, n))
    z = z[z.imag > 1e-3]
    got = faddeeva(z)
    want = faddeeva_quadrature(z)
    rel = np.abs(got - want) / np.abs(want)
    assert rel.max() < 1e-6


def test_faddeeva_reflection_consistency():
    # w(z) + w(-z) = 2 exp(-z^2) links the lower half plane to the upper
    rng = np.random.default_rng(8)
    z = rng.normal(0, 2, 50) + 1j * rng.uniform(-3, -0.05, 50)
    lhs = faddeeva(z) + faddeeva(-z)
    rhs = 2.0 * np.exp(-z * z)
    # scale by the summand size: the identity can cancel to near zero
    scale = np.abs(faddeeva(-z)) + np.abs(rhs)
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-13


def test_faddeeva_rejects_non_finite():
    with pytest.raises(ValueError):
        faddeeva(complex(np.nan, 1.0))
    with pytest.raises(ValueError):
        faddeeva(complex(1.0, np.inf))


def test_voigt_gaussian_limit():
    sigma = 0.3
    x = np.linspace(-2.5, 2.5, 801)
    profile = voigt_profile(x, 0.0, sigma, 0.0)
    gauss = np.exp(-x**2 / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    assert np.max(np.abs(profile.imag - gauss)) / gauss.max() < 1e-4


def test_voigt_lorentzian_limit():
    gamma = 0.4
    x = np.linspace(-30, 30, 4001)
    profile = voigt_profile(x, 0.0, 1e-5, gamma)
    lorentz = (gamma / math.pi) / (x**2 + gamma**2)
    # anomalous dispersion: real part is -x/pi/(x^2+gamma^2), n > 1 below line
    disp = -(x / math.pi) / (x**2 + gamma**2)
    assert np.max(np.abs(profile.imag - lorentz)) / lorentz.max() < 1e-4
    assert np.max(np.abs(profile.real - disp)) / np.abs(disp).max() < 1e-4


def test_voigt_area_normalized():
    x = np.linspace(-60, 60, 120001)
    profile = voigt_profile(x, 0.0, 0.25, 0.003)
    area = np.trapezoid(profile.imag, x)
    assert area == pytest.approx(1.0, rel=1e-3)


def test_voigt_center_shift():
    x = np.linspace(-5, 5, 1001)
    a = voigt_profile(x, 1.25, 0.3, 0.01)
    b = voigt_profile(x - 1.25, 0.0, 0.3, 0.01)
    assert np.allclose(a, b, rtol=0, atol=1e-14)


def test_voigt_rejects_bad_widths():
    with pytest.raises(ValueError):
        voigt_profile(0.0, 0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        voigt_profile(0.0, 0.0, 0.3, -0.1)


def test_doppler_sigma_scales_as_sqrt_t():
    from rbfilter.constants import RB85, REFERENCE

    s1 = doppler_sigma_ghz(300.0, RB85.mass_kg, REFERENCE.reference_frequency_hz)
    s4 = doppler_sigma_ghz(1200.0, RB85.mass_kg, REFERENCE.reference_frequency_hz)
    assert s4 == pytest.approx(2.0 * s1, rel=1e-12)
    # ~0.22 GHz at room temperature on the D1 line
    assert 0.15 < s1 < 0.3


# ---------------------------------------------------------------------------
# CellConfig validation
# ---------------------------------------------------------------------------


def test_cell_config_defaults_valid():
    cell = CellConfig()
    assert cell.length_m == 0.30
    assert cell.rb85_fraction + cell.rb87_fraction == pytest.approx(1.0, abs=1e-12)


def test_cell_config_collects_all_errors():
    """Direct construction checks the physics only; the accepted ranges of a
    config's cells (isotope fractions, the +-5 K offset) are CELL_KEYS."""
    with pytest.raises(ConfigError) as info:
        CellConfig(length_m=-1.0, geometry="diagonal", buffer_pressure_pa=-3.0)
    assert len(info.value.errors) == 3
    assert CellConfig(temperature_offset_k=9.0).effective_temperature_k == 382.15


def test_cell_config_effective_temperature():
    cell = CellConfig(temperature_k=350.0, temperature_offset_k=2.5)
    assert cell.effective_temperature_k == pytest.approx(352.5)


def test_cell_config_geometry_checked():
    with pytest.raises(ConfigError):
        CellConfig(geometry="diagonal")


# ---------------------------------------------------------------------------
# Susceptibility
# ---------------------------------------------------------------------------

CELL_87 = CellConfig(name="far", temperature_k=341.15, b_field_t=1e-2,
                     geometry="longitudinal", rb85_fraction=0.0, rb87_fraction=1.0)


def test_susceptibility_zero_density_is_zero():
    cell = CellConfig(rb85_fraction=0.0, rb87_fraction=0.0, geometry="longitudinal")
    spec = susceptibility(cell, default_grid(101))
    for mode in spec.modes:
        assert np.all(spec.mode(mode) == 0.0)


def test_susceptibility_looks_up_faddeeva_at_call_time(monkeypatch):
    """A replaced lineshape.faddeeva sees every line of every isotope (tracers rely on it)."""
    points = []
    real = lineshape.faddeeva

    def counting(z):
        points.append(np.size(z))
        return real(z)

    monkeypatch.setattr(lineshape, "faddeeva", counting)
    cell = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="transverse")
    susceptibility(cell, default_grid(51))
    n_lines = sum(zeeman_lines(name, cell.b_field_t, cell.geometry).n_lines
                  for name in ("Rb85", "Rb87"))
    assert sum(points) == n_lines * 51


def _largest_line_group() -> int:
    """Most lines one Voigt block of susceptibility holds, over both isotopes,
    both geometries and the field range."""
    return max(len(zeeman_lines(name, b, geometry).select(pol)[0])
               for name in ("Rb85", "Rb87") for geometry in ("longitudinal", "transverse")
               for b in (0.0, 1e-2, 0.3) for pol in ("sigma+", "sigma-", "pi"))


def test_susceptibility_evaluates_the_grid_in_bounded_slices(monkeypatch):
    shapes = []
    real = lineshape.faddeeva

    def recording(z):
        shapes.append(np.shape(z))
        return real(z)

    monkeypatch.setattr(lineshape, "faddeeva", recording)
    cell = CellConfig(temperature_k=373.15, b_field_t=1e-2, geometry="transverse")
    grid = default_grid(2 * lineshape.GRID_SLICE + 5)  # two full slices and a short one
    sliced = susceptibility(cell, grid)
    assert max(n * points for n, points in shapes) <= _largest_line_group() * lineshape.GRID_SLICE
    n_lines = sum(zeeman_lines(name, cell.b_field_t, cell.geometry).n_lines
                  for name in ("Rb85", "Rb87"))
    assert sum(n * points for n, points in shapes) == n_lines * grid.size
    # each grid column is summed on its own: one block gives the same bytes
    monkeypatch.setattr(lineshape, "GRID_SLICE", grid.size)
    whole = susceptibility(cell, grid)
    for mode in sliced.modes:
        assert sliced.chi[mode].tobytes() == whole.chi[mode].tobytes()


def test_voigt_block_is_bounded_on_the_largest_accepted_grid():
    """The config accepts grid.points up to 1e7; the block is computed, not run."""
    max_points = 10_000_000
    per_point = _largest_line_group() * np.dtype(complex).itemsize
    assert per_point * max_points > 3e9  # one unsliced block: 22 lines, 3.5 GB
    assert per_point * min(max_points, lineshape.GRID_SLICE) < 6e6


def test_susceptibility_modes_by_geometry():
    grid = default_grid(51)
    spec_l = susceptibility(CELL_87, grid)
    assert sorted(spec_l.modes) == ["sigma+", "sigma-"]
    cell_t = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="transverse")
    spec_t = susceptibility(cell_t, grid)
    assert sorted(spec_t.modes) == ["pi", "sigma"]


def test_susceptibility_passive_medium():
    grid = default_grid(2001)
    for cell in (CELL_87, CellConfig(temperature_k=393.15, b_field_t=5e-2,
                                     geometry="transverse")):
        spec = susceptibility(cell, grid)
        for mode in spec.modes:
            assert spec.mode(mode).imag.min() >= 0.0


def test_susceptibility_linear_in_density():
    """chi is linear in atom number: doubling via fractions doubles chi."""
    grid = default_grid(201)
    half = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="longitudinal",
                      rb85_fraction=0.0, rb87_fraction=0.5)
    full = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="longitudinal",
                      rb85_fraction=0.0, rb87_fraction=1.0)
    chi_half = susceptibility(half, grid)
    chi_full = susceptibility(full, grid)
    for mode in chi_full.modes:
        assert np.allclose(2.0 * chi_half.mode(mode), chi_full.mode(mode),
                           rtol=1e-12, atol=0)


def test_susceptibility_additive_over_isotopes():
    grid = default_grid(201)
    mix = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="longitudinal",
                     rb85_fraction=0.6, rb87_fraction=0.4)
    only85 = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="longitudinal",
                        rb85_fraction=0.6, rb87_fraction=0.0)
    only87 = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="longitudinal",
                        rb85_fraction=0.0, rb87_fraction=0.4)
    for mode in ("sigma+", "sigma-"):
        total = susceptibility(mix, grid).mode(mode)
        parts = susceptibility(only85, grid).mode(mode) + susceptibility(only87, grid).mode(mode)
        assert np.allclose(total, parts, rtol=1e-12, atol=0)


def test_susceptibility_far_wing_decay():
    """Full |chi| drops below 1e-3 of peak at +/-600 GHz; the absorptive part
    is already below 1e-6 of peak at +/-50 GHz (the dispersion wing decays
    only as 1/detuning, so the full-magnitude bound needs the wider edge)."""
    edges = np.array([-600.0, -50.0, 50.0, 600.0])
    grid = np.sort(np.concatenate([edges, np.linspace(-15, 15, 2001)]))
    spec = susceptibility(CELL_87, grid)
    at = {e: np.searchsorted(grid, e) for e in edges}
    for mode in spec.modes:
        chi = spec.mode(mode)
        peak = np.abs(chi).max()
        assert abs(chi[at[-600.0]]) < 1e-3 * peak
        assert abs(chi[at[600.0]]) < 1e-3 * peak
        assert chi[at[-50.0]].imag < 1e-6 * peak
        assert chi[at[50.0]].imag < 1e-6 * peak


def test_susceptibility_buffer_broadening_widens_lines():
    grid = default_grid(8001, -40, 40)
    no_buffer = CellConfig(temperature_k=341.15, b_field_t=1e-3, geometry="longitudinal",
                           rb85_fraction=0.0, rb87_fraction=1.0)
    with_buffer = CellConfig(temperature_k=341.15, b_field_t=1e-3, geometry="longitudinal",
                             rb85_fraction=0.0, rb87_fraction=1.0,
                             buffer_pressure_pa=1500.0)
    assert with_buffer.buffer_broadening_mhz_per_pa == KR_BROADENING_MHZ_PER_PA
    a = susceptibility(no_buffer, grid).mode("sigma+").imag
    b = susceptibility(with_buffer, grid).mode("sigma+").imag
    # same area, lower peak when collision-broadened
    assert b.max() < 0.8 * a.max()
    assert np.trapezoid(b, grid) == pytest.approx(np.trapezoid(a, grid), rel=1e-2)


def test_grid_validation():
    cell = CELL_87
    with pytest.raises(DataError):
        susceptibility(cell, np.array([]))
    with pytest.raises(DataError):
        susceptibility(cell, np.array([[0.0, 1.0]]))
    with pytest.raises(DataError):
        susceptibility(cell, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DataError):
        susceptibility(cell, np.array([0.0, np.nan]))
    with pytest.raises(DataError):
        susceptibility(cell, np.array([1.0, 0.0]))


def test_spectrum_mode_lookup_error():
    spec = susceptibility(CELL_87, default_grid(11))
    with pytest.raises(DataError):
        spec.mode("pi")  # not a longitudinal eigenmode
