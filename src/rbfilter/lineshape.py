"""Complex Voigt lineshapes and the linear susceptibility of a thermal Rb cell.

The Faddeeva function w(z) = exp(-z^2) erfc(-iz) is computed with NumPy
alone: the rational approximation of J. A. C. Weideman, SIAM J. Numer. Anal.
31, 1497 (1994), with 40 terms for |z| < 8, and the asymptotic series
i/(sqrt(pi) z) sum_k (2k-1)!!/(2z^2)^k, 12 terms by Horner's rule, beyond.
Against scipy.special.wofz it is within 1e-13 relative (worst measured 4.5e-14,
over the upper half-plane out to |Re z| = 3.5e4, both sides of |z| = 8 and the
strip -5 <= Im z < 0, where near the zeros of w the error is relative to the
larger term of the reflection).  It replaces wofz because importing
scipy.special costs 0.2-0.3 s, about half of a spectrum or cascade run, while
a whole susceptibility takes ~50 ms.

susceptibilities evaluates every line of every cell of a filter chain as one
(lines x points) Voigt block, so a chain costs one Faddeeva call per grid
slice; a block holds at most BLOCK_POINTS complex entries on any grid.

Susceptibility convention: chi(Delta) per line component the beam drives
(sigma+, sigma-, pi: labelled along B, see MODES) with Im chi >= 0
(passive medium), intensity absorption alpha = (omega/c) Im chi, refractive index
n = 1 + Re chi / 2.  The absolute scale follows from the natural linewidth via
|d|^2 = 3 pi eps0 hbar c^3 Gamma / omega0^3, so no dipole moment is hard-coded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import C_LIGHT, ISOTOPES, K_BOLTZMANN, REFERENCE, number_density_m3
from .errors import ConfigError, DataError
from .zeeman import zeeman_lines

LONGITUDINAL = "longitudinal"
TRANSVERSE = "transverse"
GEOMETRIES = (LONGITUDINAL, TRANSVERSE)
# the line components each geometry's beam drives: the one geometry -> modes map
MODES = {LONGITUDINAL: ("sigma+", "sigma-"), TRANSVERSE: ("pi", "sigma+", "sigma-")}

# Rb D1 pressure broadening by Kr buffer gas, FWHM rate.
# Rotondaro & Perram, JQSRT 57, 497 (1997): 17.2 MHz/torr.
KR_BROADENING_MHZ_PER_PA = 17.2 / 133.322368
# complex entries per (lines x points) Voigt block: bounds its temporaries on
# any accepted grid; each column is summed alone, so the result does not
# depend on it
BLOCK_POINTS = 1 << 14

_SQRT_PI = math.sqrt(math.pi)
# Weideman's approximation holds for |z| < _FAR_RADIUS and the asymptotic
# series beyond it, where the first dropped term, 23!!/(2|z|^2)^12, is < 2e-14
_WEIDEMAN_N = 40
_FAR_RADIUS = 8.0
_ASYMPTOTIC = tuple(float(math.prod(range(1, 2 * k, 2))) for k in range(12))  # (2k-1)!!


@functools.cache
def _weideman_coefficients() -> tuple[tuple[float, ...], float]:
    """(polynomial coefficients, highest power first; L) by Weideman's FFT
    construction; built on first use, so importing rbfilter loads no numpy.fft.
    Python floats: a NumPy scalar costs more per Horner step on short arrays."""
    m = 2 * _WEIDEMAN_N
    big_l = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
    theta = np.arange(-m + 1, m) * np.pi / m
    t = big_l * np.tan(theta / 2.0)
    f = np.concatenate(([0.0], np.exp(-t * t) * (big_l * big_l + t * t)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2.0 * m)
    return tuple(a[1:_WEIDEMAN_N + 1][::-1].tolist()), big_l


# Both pieces work in place, so a block costs three temporaries of its size.
def _weideman(z: np.ndarray) -> np.ndarray:
    a, big_l = _weideman_coefficients()
    zz = 1j * z
    lz = big_l - zz
    zz += big_l
    zz /= lz  # (L + iz) / (L - iz)
    p = np.full_like(z, a[0])
    for c in a[1:]:
        p *= zz
        p += c
    # 2 p / (L - iz)^2 + 1 / (sqrt(pi) (L - iz))
    p *= 2.0
    p /= lz
    p += 1.0 / _SQRT_PI
    p /= lz
    return p


def _asymptotic(z: np.ndarray) -> np.ndarray:
    u = 0.5 / z
    u /= z  # 1/(2 z^2) without z^2, which overflows for huge finite z
    s = np.full_like(z, _ASYMPTOTIC[-1])
    for c in _ASYMPTOTIC[-2::-1]:
        s *= u
        s += c
    s /= z
    s *= 1j / _SQRT_PI
    return s


def faddeeva(z) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-iz), vectorized, for finite complex z.

    The upper half-plane (and the real axis) is computed directly, from any
    finite z without overflow; Im z < 0 uses the reflection
    w(z) = 2 exp(-z^2) - w(-z), which overflows for large |Im z|.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("faddeeva requires finite input")
    lower = z.imag < 0.0
    reflect = lower.any()
    upper = np.where(lower, -z, z) if reflect else z
    w = np.empty_like(upper)
    far = np.abs(upper) >= _FAR_RADIUS
    w[far] = _asymptotic(upper[far])
    near = ~far
    w[near] = _weideman(upper[near])
    if reflect:
        zl = z[lower]
        w[lower] = 2.0 * np.exp(-zl * zl) - w[lower]
    return w


def voigt_profile(detuning, center, sigma, gamma_hwhm) -> np.ndarray:
    """Area-normalized complex Voigt profile, broadcast over all four arguments
    (one row per line: centers, sigmas and widths of shape (lines, 1)).

    Im part is the absorption profile with unit area over detuning; Re part is
    the matching dispersion (negative above line center).  sigma is the Gaussian
    standard deviation, gamma_hwhm the Lorentzian half width, same units as the
    detuning axis.
    """
    sigma = np.asarray(sigma, dtype=float)
    gamma_hwhm = np.asarray(gamma_hwhm, dtype=float)
    if not np.all(sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    if np.any(gamma_hwhm < 0.0):
        raise ValueError(f"gamma_hwhm must be non-negative, got {gamma_hwhm}")
    z = (np.asarray(detuning, dtype=float) - center + 1j * gamma_hwhm) / (sigma * math.sqrt(2.0))
    w = faddeeva(z)
    w *= 1j
    w /= sigma * math.sqrt(2.0 * math.pi)
    return w


def doppler_sigma_ghz(temperature_k: float, mass_kg: float, frequency_hz: float) -> float:
    """1-sigma Doppler width (GHz); scales as sqrt(T)."""
    if temperature_k <= 0.0 or mass_kg <= 0.0:
        raise ValueError("temperature and mass must be positive")
    return frequency_hz * math.sqrt(K_BOLTZMANN * temperature_k / (mass_kg * C_LIGHT**2)) * 1e-9


@dataclass(frozen=True)
class CellConfig:
    """Geometry and thermodynamic state of one vapor cell.

    temperature_offset_k is a declared calibration constant between the cell's
    set-point reading and the vapor temperature that fixes the absolute optical
    depth; it defaults to 0 and is reported verbatim.  The accepted ranges of a
    run's cells are CELL_KEYS; direct construction checks only what the physics
    needs (a positive length, a known geometry, a non-negative buffer pressure).
    """

    name: str = "cell"
    length_m: float = 0.30
    temperature_k: float = 373.15
    b_field_t: float = 1.0e-2
    geometry: str = TRANSVERSE
    rb85_fraction: float = 0.7217
    rb87_fraction: float = 0.2783
    buffer_pressure_pa: float = 0.0
    buffer_broadening_mhz_per_pa: float = KR_BROADENING_MHZ_PER_PA
    polarization_angle_rad: float = math.pi / 2.0
    temperature_offset_k: float = 0.0

    def __post_init__(self):
        errors = []
        if self.length_m <= 0.0:
            errors.append(f"{self.name}: length must be positive, got {self.length_m} m")
        if self.geometry not in GEOMETRIES:
            errors.append(f"{self.name}: geometry must be '{LONGITUDINAL}' or '{TRANSVERSE}'")
        if self.buffer_pressure_pa < 0.0:
            errors.append(f"{self.name}: buffer pressure must be non-negative")
        if errors:
            raise ConfigError(errors)

    @property
    def effective_temperature_k(self) -> float:
        return self.temperature_k + self.temperature_offset_k

    def fraction(self, isotope_name: str) -> float:
        return {"Rb85": self.rb85_fraction, "Rb87": self.rb87_fraction}[isotope_name]


@dataclass(frozen=True)
class CellKey:
    """One cell key of a run config: its name in config units, the CellConfig
    field it sets, the conversion each way and what it accepts: a range in
    config units (bounds included) or, for a named choice, the choices."""

    name: str
    field: str
    lo: float | None = None
    hi: float | None = None
    to_field: Callable = lambda x: x
    from_field: Callable = lambda x: x
    choices: tuple[str, ...] = ()

    def field_range(self) -> tuple[float, float]:
        return self.to_field(self.lo), self.to_field(self.hi)


# The only place a cell's config units, conversions and ranges are written.
CELL_KEYS = {key.name: key for key in (
    CellKey("length_cm", "length_m", 1.0, 100.0, lambda cm: cm * 1e-2, lambda m: m * 1e2),
    CellKey("temperature_c", "temperature_k", 20.0, 140.0,
            lambda c: 273.15 + c, lambda k: k - 273.15),
    CellKey("b_field_mt", "b_field_t", 0.0, 300.0, lambda mt: mt * 1e-3, lambda t: t * 1e3),
    CellKey("geometry", "geometry", choices=GEOMETRIES),
    CellKey("rb85_fraction", "rb85_fraction", 0.0, 1.0),
    CellKey("rb87_fraction", "rb87_fraction", 0.0, 1.0),
    CellKey("buffer_pressure_pa", "buffer_pressure_pa", 0.0, 1e6),
    CellKey("polarization_angle_deg", "polarization_angle_rad", -360.0, 360.0,
            math.radians, math.degrees),
    CellKey("temperature_offset_c", "temperature_offset_k", -5.0, 5.0),
)}


@dataclass
class ComplexSpectrum:
    """Complex susceptibility of each line component a cell's beam drives
    (MODES[cell.geometry]), on one detuning grid."""

    grid_ghz: np.ndarray
    chi: dict[str, np.ndarray]
    cell: CellConfig

    @property
    def modes(self) -> list[str]:  # read by bench/test_bench.py
        return sorted(self.chi)


def _validate_grid(grid_ghz) -> np.ndarray:
    grid = np.asarray(grid_ghz, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DataError("detuning grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(grid)):
        raise DataError("detuning grid contains non-finite values")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise DataError("detuning grid must be strictly increasing")
    return grid


def default_grid(points: int = 4001, lo: float = -15.0, hi: float = 15.0) -> np.ndarray:
    if points < 2 or hi <= lo:
        raise ConfigError([f"invalid grid: {points} points over [{lo}, {hi}] GHz"])
    return np.linspace(lo, hi, points)


def _mode_lines(cell: CellConfig) -> dict[str, np.ndarray]:
    """The lines that drive each mode of one cell, one (4, lines) array per
    mode of rows (centers GHz, weights, sigma, gamma_hwhm), isotopes in
    ISOTOPES order: chi_mode = sum over its lines of weight x Voigt."""
    t_k = cell.effective_temperature_k
    rows = {m: [np.empty((4, 0))] for m in MODES[cell.geometry]}

    for name, isotope in ISOTOPES.items():
        frac = cell.fraction(name)
        if frac <= 0.0:
            continue
        table = zeeman_lines(name, cell.b_field_t, cell.geometry)
        density = number_density_m3(t_k, frac)
        omega0 = 2.0 * math.pi * isotope.centroid_frequency_hz
        gamma_ang = 2.0 * math.pi * isotope.natural_linewidth_mhz * 1e6
        # chi = n * 3 pi c^3 Gamma / omega0^3 * sum_l s_l V(Delta - Delta_l) with V per GHz
        prefactor = density * 3.0 * math.pi * C_LIGHT**3 * gamma_ang / (omega0**3 * 1e9)

        sigma_d = doppler_sigma_ghz(t_k, isotope.mass_kg, isotope.centroid_frequency_hz)
        gamma_hwhm = 0.5 * (
            isotope.natural_linewidth_mhz + cell.buffer_broadening_mhz_per_pa * cell.buffer_pressure_pa
        ) * 1e-3
        centroid = REFERENCE.centroid_offset_ghz(isotope)

        for mode, parts in rows.items():
            offsets, strengths = table.select(mode)
            parts.append(np.stack([centroid + offsets, prefactor * strengths,
                                   np.full(offsets.size, sigma_d),
                                   np.full(offsets.size, gamma_hwhm)]))
    return {m: np.concatenate(parts, axis=1) for m, parts in rows.items()}


def susceptibilities(cells, grid_ghz) -> list[ComplexSpectrum]:
    """Complex susceptibility of all modes of each cell, all on one grid.

    Every line of every cell (isotopes, modes) is one row of a single
    (lines x points) Voigt block, evaluated BLOCK_POINTS // lines grid
    points at a time.  Each mode is its own contiguous run of rows summed with
    their weights, the product with a (modes x lines) weight matrix, added row
    by row in a fixed order (a BLAS product's rounding depends on the block's
    width and thread count), so a column's bytes depend neither on the slice
    width nor on the other cells in the block.  Cells whose lines together
    exceed BLOCK_POINTS are split into smaller groups; one cell has at most
    100 lines.
    """
    grid = _validate_grid(grid_ghz)
    cells = list(cells)
    per_cell = [_mode_lines(cell) for cell in cells]
    modes = [lines for cell_modes in per_cell for lines in cell_modes.values()]
    mode_lines = [lines.shape[1] for lines in modes]
    n_lines = sum(mode_lines)
    if n_lines > BLOCK_POINTS and len(cells) > 1:
        half = len(cells) // 2
        return susceptibilities(cells[:half], grid) + susceptibilities(cells[half:], grid)

    chi = np.zeros((len(modes), grid.size), dtype=complex)
    filled = [k for k, n in enumerate(mode_lines) if n]
    if filled:
        center, weight, sigma, gamma = np.concatenate(modes, axis=1)[:, :, None]
        starts = np.cumsum([0] + [mode_lines[k] for k in filled[:-1]])
        step = max(1, BLOCK_POINTS // n_lines)
        for lo in range(0, grid.size, step):
            part = slice(lo, lo + step)
            prof = voigt_profile(grid[None, part], center, sigma, gamma)
            prof *= weight
            chi[filled, part] = np.add.reduceat(prof, starts, axis=0)

    rows = iter(chi)
    return [ComplexSpectrum(grid_ghz=grid, chi={m: next(rows) for m in lines}, cell=cell)
            for cell, lines in zip(cells, per_cell)]


def susceptibility(cell: CellConfig, grid_ghz) -> ComplexSpectrum:
    """Complex susceptibility of all modes of one cell on the given grid."""
    return susceptibilities([cell], grid_ghz)[0]
