"""Faddeeva/Voigt kernels and complex susceptibility spectra."""

import math

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings

from rbfilter import lineshape
from rbfilter.errors import ConfigError, DataError
from rbfilter.lineshape import (
    CELL_KEYS,
    LONGITUDINAL,
    MODES,
    TRANSVERSE,
    CellConfig,
    default_grid,
    doppler_sigma_ghz,
    faddeeva,
    susceptibilities,
    susceptibility,
    voigt_profile,
    with_keys,
)
from rbfilter.zeeman import zeeman_lines

from oracles import faddeeva_quadrature
from strategies import cell_configs


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


WOFZ_TOL = 1e-13


def test_faddeeva_matches_wofz():
    """The NumPy kernel against scipy.special.wofz wherever the lineshape can
    reach; run with -s to print the worst relative error next to the tolerance."""
    from scipy.special import wofz

    rng = np.random.default_rng(17)
    n = 20000
    theta = rng.uniform(0.0, math.pi, n)
    samples = {
        # Im z 1e-6 .. 1e2, |Re z| up to 3.5e4: a 20 C cell at the grid's 1e4 GHz edge
        "upper half-plane": (rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-3, math.log10(3.5e4), n)
                             + 1j * 10 ** rng.uniform(-6, 2, n)),
        "just inside |z| = R": lineshape._FAR_RADIUS * (1 - 1e-12) * np.exp(1j * theta),
        "just outside |z| = R": lineshape._FAR_RADIUS * (1 + 1e-12) * np.exp(1j * theta),
        "z = 0 and z = i": np.array([0.0, 1j]),
    }
    worst = {}
    for name, z in samples.items():
        want = wofz(z)
        worst[name] = float(np.max(np.abs(faddeeva(z) - want) / np.abs(want)))
    print(f"faddeeva vs wofz: worst rel {max(worst.values()):.2e} (tol {WOFZ_TOL:.0e}); "
          + ", ".join(f"{name} {rel:.1e}" for name, rel in worst.items()))
    assert max(worst.values()) <= WOFZ_TOL, worst


def test_faddeeva_of_huge_finite_z_is_finite_and_silent():
    z = np.array([1e200, 1e200j, 1e200 + 1e200j, -1e200 + 1e-300j])
    with np.errstate(over="raise", invalid="raise"):
        w = faddeeva(z)
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w, 1j / (math.sqrt(math.pi) * z), rtol=1e-15)


def test_faddeeva_does_not_depend_on_slice_width():
    """Each point's bytes are the same whichever points share its call, even
    alone in its branch."""
    rng = np.random.default_rng(9)
    z = rng.normal(0.0, 6.0, 400) + 1j * rng.uniform(0.0, 10.0, 400)
    want = faddeeva(z).tobytes()
    for width in (1, 2, 3, 7, 13):
        got = np.concatenate([faddeeva(z[lo:lo + width]) for lo in range(0, z.size, width)])
        assert got.tobytes() == want, width


def test_faddeeva_rejects_non_finite():
    """Nor a finite z below the real axis, where no Voigt argument lies."""
    for z in (complex(np.nan, 1.0), complex(1.0, np.inf), [1j, complex(2.0, -1e-300)]):
        with pytest.raises(ValueError):
            faddeeva(z)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(CellConfig) if f.type == "float"])
def test_cell_config_rejects_nan_and_infinities(name, value):
    """An infinite length would give T = nan."""
    with pytest.raises(ConfigError, match=f"cell: {name} must be finite"):
        CellConfig(**{name: value})


def test_with_keys_sets_each_named_key_in_config_units_and_nothing_else():
    cell = CellConfig(name="probe")
    for name, key in CELL_KEYS.items():
        value = key.choices[0] if key.choices else key.hi
        assert with_keys(cell, **{name: value}) == replace(cell, **{key.field: key.to_field(value)})
    assert with_keys(cell) == cell
    assert with_keys(cell, length_cm=12.0, b_field_mt=250.0) == replace(
        cell, length_m=0.12, b_field_t=0.25)


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
    for chi in spec.chi.values():
        assert np.all(chi == 0.0)


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


def _n_lines(cell: CellConfig) -> int:
    """Lines in the Voigt block of one cell: its modes' lines of each isotope it holds."""
    return sum(zeeman_lines(name, cell.b_field_t).lines[mode][0].size
               for name in ("Rb85", "Rb87") if cell.fraction(name) > 0.0
               for mode in MODES[cell.geometry])


_CHAIN = (CellConfig(name="absorption", temperature_k=373.15, b_field_t=1e-2, geometry="transverse",
                     rb85_fraction=0.985, rb87_fraction=0.015),
          CellConfig(name="faraday", temperature_k=375.15, b_field_t=1e-2, geometry="longitudinal",
                     rb85_fraction=0.0, rb87_fraction=1.0))


def _recording_faddeeva(monkeypatch) -> list:
    shapes = []
    real = lineshape.faddeeva

    def recording(z):
        shapes.append(np.shape(z))
        return real(z)

    monkeypatch.setattr(lineshape, "faddeeva", recording)
    return shapes


def test_susceptibility_evaluates_the_grid_in_bounded_slices(monkeypatch):
    shapes = _recording_faddeeva(monkeypatch)
    n_lines = sum(map(_n_lines, _CHAIN))
    step = lineshape.BLOCK_POINTS // n_lines
    # two full slices and a one-point one, where a BLAS product or a pairwise
    # sum would round differently
    grid = default_grid(2 * step + 1)
    sliced = susceptibilities(_CHAIN, grid)
    assert shapes == [(n_lines, step), (n_lines, step), (n_lines, 1)]
    assert n_lines * step <= lineshape.BLOCK_POINTS
    # each grid column of each mode is summed on its own: neither one block
    # nor a block without the other cell changes the bytes
    monkeypatch.setattr(lineshape, "BLOCK_POINTS", 1 << 22)
    whole = susceptibilities(_CHAIN, grid)
    assert shapes[3:] == [(n_lines, grid.size)]
    for cell, a, b in zip(_CHAIN, sliced, whole):
        alone = susceptibility(cell, grid)
        for mode in a.chi:
            assert a.chi[mode].tobytes() == b.chi[mode].tobytes() == alone.chi[mode].tobytes()


def test_voigt_block_is_bounded_on_the_largest_accepted_grid(monkeypatch):
    """The config accepts grid.points up to 1e7: no block of the dual filter
    holds more than BLOCK_POINTS entries.  Computed from one slice's shape, not
    run: every slice but the last has it on any longer grid."""
    max_points = 10_000_000
    lines, b_most = max((_n_lines(CellConfig(b_field_t=b, geometry="transverse")), b)
                        for b in np.linspace(0.0, 0.3, 31))
    assert lines == 100  # no cell has more (longitudinal cells drop their pi lines)
    widest = [CellConfig(name=f"cell{k}", b_field_t=b_most, geometry="transverse") for k in range(2)]
    # the dual filter at its largest, unsliced: 200 lines x 1e7 points, 32 GB
    assert 2 * lines * max_points * np.dtype(complex).itemsize > 3e10
    shapes = _recording_faddeeva(monkeypatch)
    susceptibilities(widest, default_grid(lineshape.BLOCK_POINTS // (2 * lines) + 1))
    (n_lines, width), _ = shapes
    assert n_lines == 2 * lines and n_lines * min(max_points, width) <= lineshape.BLOCK_POINTS

    # a chain with more lines than a block holds runs one grid point per
    # slice, with the same bytes, and each cell's lines are built once
    chain = [CellConfig(name=f"cell{k}", b_field_t=b, geometry="transverse")
             for k, b in enumerate((0.0, 1e-2, 0.3))]
    grid = default_grid(7)
    want = susceptibilities(chain, grid)
    shapes.clear()
    chain_lines = sum(map(_n_lines, chain))
    monkeypatch.setattr(lineshape, "BLOCK_POINTS", chain_lines - 1)
    built = []
    mode_lines = lineshape._mode_lines
    monkeypatch.setattr(lineshape, "_mode_lines",
                        lambda cell: built.append(cell) or mode_lines(cell))
    got = susceptibilities(chain, grid)
    assert built == chain
    assert shapes == [(chain_lines, 1)] * grid.size
    for a, b in zip(want, got):
        for mode in a.chi:
            assert a.chi[mode].tobytes() == b.chi[mode].tobytes()


def test_susceptibility_modes_by_geometry():
    grid = default_grid(51)
    spec_l = susceptibility(CELL_87, grid)
    assert sorted(spec_l.chi) == ["sigma+", "sigma-"]
    cell_t = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="transverse")
    spec_t = susceptibility(cell_t, grid)
    assert sorted(spec_t.chi) == ["pi", "sigma+", "sigma-"]


@settings(max_examples=30, deadline=None)
@given(cell=cell_configs(TRANSVERSE))
@example(cell=CellConfig(b_field_t=0.0, geometry=TRANSVERSE))
# a point alone in its Faddeeva branch of one slice (grid point 163)
@example(cell=with_keys(CellConfig(geometry=TRANSVERSE), length_cm=1.0, temperature_c=20.0,
                        temperature_offset_c=1.0, b_field_mt=19.0, rb85_fraction=0.5,
                        rb87_fraction=0.5, buffer_pressure_pa=0.5, polarization_angle_deg=0.0))
def test_line_components_do_not_depend_on_geometry(cell):
    """A transverse cell's chi_+ and chi_- are those of the same vapor in a
    longitudinal cell, byte for byte, alone or in a two-cell block."""
    grid = default_grid(201)
    twin = replace(cell, geometry=LONGITUDINAL)
    alone, paired = susceptibility(cell, grid), susceptibilities([cell, twin], grid)
    for mode in ("sigma+", "sigma-"):
        want = susceptibility(twin, grid).chi[mode].tobytes()
        assert {s.chi[mode].tobytes() for s in (alone, *paired)} == {want}


def test_susceptibility_passive_medium():
    grid = default_grid(2001)
    for cell in (CELL_87, CellConfig(temperature_k=393.15, b_field_t=5e-2,
                                     geometry="transverse")):
        spec = susceptibility(cell, grid)
        for chi in spec.chi.values():
            assert chi.imag.min() >= 0.0


def test_susceptibility_linear_in_density():
    """chi is linear in atom number: doubling via fractions doubles chi."""
    grid = default_grid(201)
    half = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="longitudinal",
                      rb85_fraction=0.0, rb87_fraction=0.5)
    full = CellConfig(temperature_k=341.15, b_field_t=1e-2, geometry="longitudinal",
                      rb85_fraction=0.0, rb87_fraction=1.0)
    chi_half = susceptibility(half, grid)
    chi_full = susceptibility(full, grid)
    for mode in chi_full.chi:
        assert np.allclose(2.0 * chi_half.chi[mode], chi_full.chi[mode],
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
        total = susceptibility(mix, grid).chi[mode]
        parts = susceptibility(only85, grid).chi[mode] + susceptibility(only87, grid).chi[mode]
        assert np.allclose(total, parts, rtol=1e-12, atol=0)


def test_susceptibility_far_wing_decay():
    """Full |chi| drops below 1e-3 of peak at +/-600 GHz; the absorptive part
    is already below 1e-6 of peak at +/-50 GHz (the dispersion wing decays
    only as 1/detuning, so the full-magnitude bound needs the wider edge)."""
    edges = np.array([-600.0, -50.0, 50.0, 600.0])
    grid = np.sort(np.concatenate([edges, np.linspace(-15, 15, 2001)]))
    spec = susceptibility(CELL_87, grid)
    at = {e: np.searchsorted(grid, e) for e in edges}
    for chi in spec.chi.values():
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
    a = susceptibility(no_buffer, grid).chi["sigma+"].imag
    b = susceptibility(with_buffer, grid).chi["sigma+"].imag
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
