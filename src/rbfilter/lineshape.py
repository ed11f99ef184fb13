"""Complex Voigt lineshapes and the linear susceptibility of a thermal Rb cell.

The Faddeeva function w(z) = exp(-z^2) erfc(-iz) is scipy.special.wofz
(S. G. Johnson's Faddeeva package), the same library route ElecSus takes.

Susceptibility convention: chi(Delta) per polarization mode with Im chi >= 0
(passive medium), intensity absorption alpha = (omega/c) Im chi, refractive index
n = 1 + Re chi / 2.  The absolute scale follows from the natural linewidth via
|d|^2 = 3 pi eps0 hbar c^3 Gamma / omega0^3, so no dipole moment is hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import C_LIGHT, ISOTOPES, K_BOLTZMANN, REFERENCE, number_density_m3
from .errors import ConfigError, DataError
from .zeeman import LineTable, zeeman_lines

LONGITUDINAL = "longitudinal"
TRANSVERSE = "transverse"
GEOMETRIES = (LONGITUDINAL, TRANSVERSE)

# Rb D1 pressure broadening by Kr buffer gas, FWHM rate.
# Rotondaro & Perram, JQSRT 57, 497 (1997): 17.2 MHz/torr.
KR_BROADENING_MHZ_PER_PA = 17.2 / 133.322368
# grid points per (n_lines x points) Voigt block in susceptibility: bounds its
# temporaries on any accepted grid; each column is summed alone, so the result
# does not depend on it
GRID_SLICE = 1 << 14


def faddeeva(z) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-iz), vectorized, for finite complex z."""
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("faddeeva requires finite input")
    from scipy.special import wofz  # here, so importing rbfilter loads no SciPy

    return wofz(z)


def voigt_profile(detuning, center: float, sigma: float, gamma_hwhm: float) -> np.ndarray:
    """Area-normalized complex Voigt profile.

    Im part is the absorption profile with unit area over detuning; Re part is
    the matching dispersion (negative above line center).  sigma is the Gaussian
    standard deviation, gamma_hwhm the Lorentzian half width, same units as the
    detuning axis.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if gamma_hwhm < 0.0:
        raise ValueError(f"gamma_hwhm must be non-negative, got {gamma_hwhm}")
    delta = np.asarray(detuning, dtype=float) - center
    z = (delta + 1j * gamma_hwhm) / (sigma * math.sqrt(2.0))
    return 1j * faddeeva(z) / (sigma * math.sqrt(2.0 * math.pi))


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
    """Per-mode complex susceptibility on one detuning grid.

    Modes are {'sigma+', 'sigma-'} for longitudinal cells and {'pi', 'sigma'}
    for transverse ones.  'sigma' is the average (chi_+ + chi_-)/2: it omits
    the Voigt term eps_xy^2/eps_xx of the exact n_perp^2 = eps_xx + eps_xy^2/eps_xx.
    On the reference 30 cm absorption cell at 300 mT the amplitude this gives
    is off by at most 3.5e-5 in transmission and, where T > 1e-3, 5.6e-3 rad in
    phase at 100 C; at 140 C, 1.7e-4 and 0.15 rad.
    """

    grid_ghz: np.ndarray
    chi: dict[str, np.ndarray]
    cell: CellConfig

    def mode(self, name: str) -> np.ndarray:
        try:
            return self.chi[name]
        except KeyError:
            raise DataError(f"spectrum has no mode {name!r}; available: {sorted(self.chi)}") from None

    @property
    def modes(self) -> list[str]:
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


def _mode_strength_tables(lines: LineTable, geometry: str) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    sp = lines.select("sigma+")
    sm = lines.select("sigma-")
    pi = lines.select("pi")
    if geometry == LONGITUDINAL:
        return {"sigma+": [sp], "sigma-": [sm]}
    # Transverse: E parallel to B drives pi lines; E perpendicular sees the
    # average of the two circular components (ComplexSpectrum bounds its error).
    half = lambda pair: (pair[0], 0.5 * pair[1])
    return {"pi": [pi], "sigma": [half(sp), half(sm)]}


def susceptibility(cell: CellConfig, grid_ghz) -> ComplexSpectrum:
    """Complex susceptibility of all modes of one cell on the given grid."""
    grid = _validate_grid(grid_ghz)
    t_k = cell.effective_temperature_k

    mode_names = ("sigma+", "sigma-") if cell.geometry == LONGITUDINAL else ("pi", "sigma")
    chi = {m: np.zeros(grid.shape, dtype=complex) for m in mode_names}

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

        for mode, pieces in _mode_strength_tables(table, cell.geometry).items():
            for offsets, strengths in pieces:
                if len(offsets) == 0:
                    continue
                # all lines at once, GRID_SLICE grid points at a time: (n_lines, slice)
                for lo in range(0, grid.size, GRID_SLICE):
                    part = slice(lo, lo + GRID_SLICE)
                    prof = voigt_profile(grid[None, part], centroid + offsets[:, None],
                                         sigma_d, gamma_hwhm)
                    chi[mode][part] += prefactor * (strengths[:, None] * prof).sum(axis=0)

    return ComplexSpectrum(grid_ghz=grid, chi=chi, cell=cell)
