"""Beam propagation through magnetized Rb cells and polarizer chains.

Every cell is a Jones element: per detuning, a 2x2 complex matrix in the lab
x/y basis built from its eigenmode amplitudes a = exp(i (omega L / 2c) chi)
(the common vacuum phase is dropped).  A longitudinal cell is diagonal in the
circular basis (chi_+, chi_-); a transverse cell in the linear basis of its
field (chi_pi along B, the exact n_perp^2 - 1 across it), so light leaving it
at an angle to the field is turned and made elliptical.  A chain of polarizers
and cells is one walk, left to right, over the beam's (n, 2) complex amplitude.

A polarizer of extinction eps passes |along|^2 + eps |across|^2 of the
intensity and leaves the beam polarized along its axis: its leak is
re-polarized, not a coherent sqrt(eps) amplitude.  That is exact at the final
analyzer, which only measures intensity, and it keeps the dual filter
light-direction-insensitive at any field angle and extinction; a coherent leak
breaks that symmetry by O(eps).  Every function and chain takes each cell as a
CellConfig or as its precomputed ComplexSpectrum (which carries the cell), so
chains that differ only in angles compute each susceptibility once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, REFERENCE
from .errors import ConfigError, DataError
from .lineshape import (
    LONGITUDINAL,
    CellConfig,
    ComplexSpectrum,
    _validate_grid,
    susceptibilities,
    susceptibility,
)

MIN_DB = -150.0
# extinction of the Wollaston polarizers of the paper's chain
WOLLASTON_EXTINCTION = 1.0e-5
CellOrSpectrum = CellConfig | ComplexSpectrum


def transmission_db(t, floor_db: float = MIN_DB) -> np.ndarray:
    """Intensity transmission in dB, clipped at floor_db to keep logs finite."""
    t = np.asarray(t, dtype=float)
    floor = 10.0 ** (floor_db / 10.0)
    return 10.0 * np.log10(np.maximum(t, floor))


def _spectrum(source: CellOrSpectrum, grid_ghz) -> ComplexSpectrum:
    """The susceptibility of a cell on grid_ghz: source itself when it is one
    already (it must be on that grid), else computed."""
    if not isinstance(source, ComplexSpectrum):
        return susceptibility(source, grid_ghz)
    if not np.array_equal(source.grid_ghz, grid_ghz):
        raise DataError(f"precomputed spectrum of {source.cell.name} is on another detuning grid")
    return source


def absorption_coefficients(spec: ComplexSpectrum) -> dict[str, np.ndarray]:
    """Intensity absorption alpha(Delta) in 1/m of every line component in spec.chi."""
    om = REFERENCE.detuning_to_omega(spec.grid_ghz)
    return {m: om / C_LIGHT * np.imag(spec.chi[m]) for m in spec.chi}


def faraday_rotation(cell: CellOrSpectrum, grid_ghz):
    """Rotation angle theta(Delta) in rad and the mean-absorption envelope of a
    longitudinal cell (or its spectrum).

    theta is the polarization rotation (half the phase difference between the
    circular components); the returned envelope t_rot = exp(-(alpha_+ +
    alpha_-) L / 2) makes T_crossed = t_rot sin^2(theta) exact wherever the two
    circular absorptions coincide.
    """
    spec = _spectrum(cell, grid_ghz)
    cell = spec.cell
    if cell.geometry != LONGITUDINAL:
        raise ConfigError([f"faraday_rotation needs a {LONGITUDINAL} cell, "
                           f"got {cell.geometry!r} ({cell.name})"])
    om = REFERENCE.detuning_to_omega(spec.grid_ghz)
    theta = om * cell.length_m / (4.0 * C_LIGHT) * (
        np.real(spec.chi["sigma+"]) - np.real(spec.chi["sigma-"])
    )
    alpha = absorption_coefficients(spec)
    t_rot = np.exp(-0.5 * (alpha["sigma+"] + alpha["sigma-"]) * cell.length_m)
    return theta, t_rot


def jones_transfer(cell: CellOrSpectrum, grid_ghz) -> np.ndarray:
    """2x2 complex transfer matrices, shape (n, 2, 2) in the lab x/y basis, of a
    cell (or its spectrum), built from the eigenmode amplitudes a = exp(i k chi).

    A longitudinal cell is diagonal in the circular basis (a_+, a_-).  A
    transverse cell is R(-phi) diag(a_pi, a_perp) R(phi): diagonal in the
    linear basis of its field, which lies at phi = polarization_angle_rad;
    a_perp takes the exact n_perp^2 - 1 = eps_xx + eps_xy^2 / eps_xx - 1.
    """
    spec = _spectrum(cell, grid_ghz)
    cell = spec.cell
    k = REFERENCE.detuning_to_omega(spec.grid_ghz) * cell.length_m / (2.0 * C_LIGHT)
    mats = np.empty((spec.grid_ghz.size, 2, 2), dtype=complex)
    if cell.geometry == LONGITUDINAL:
        tp = np.exp(1j * k * spec.chi["sigma+"])
        tm = np.exp(1j * k * spec.chi["sigma-"])
        s = 0.5 * (tp + tm)
        d = 0.5j * (tp - tm)
        mats[:, 0, 0] = s
        mats[:, 0, 1] = -d
        mats[:, 1, 0] = d
        mats[:, 1, 1] = s
    else:
        a_pi = np.exp(1j * k * spec.chi["pi"])
        eps_xx = 1.0 + 0.5 * (spec.chi["sigma+"] + spec.chi["sigma-"])
        eps_xy = 0.5j * (spec.chi["sigma+"] - spec.chi["sigma-"])
        a_perp = np.exp(1j * k * (eps_xx + eps_xy ** 2 / eps_xx - 1.0))
        c, s = math.cos(cell.polarization_angle_rad), math.sin(cell.polarization_angle_rad)
        mats[:, 0, 0] = c * c * a_pi + s * s * a_perp
        mats[:, 0, 1] = mats[:, 1, 0] = c * s * (a_pi - a_perp)
        mats[:, 1, 1] = s * s * a_pi + c * c * a_perp
    return mats


# ---------------------------------------------------------------------------
# filter chains


@dataclass(frozen=True)
class Polarizer:
    axis_angle_rad: float = 0.0
    extinction: float = WOLLASTON_EXTINCTION

    def __post_init__(self):
        if not 0.0 <= self.extinction < 1.0:
            raise ConfigError([f"polarizer extinction must lie in [0, 1), got {self.extinction}"])


def cascade(elements, grid_ghz, input_angle_rad: float = 0.0) -> np.ndarray:
    """Intensity transmission of a chain of Polarizers and cells, each cell a
    CellConfig or its ComplexSpectrum on grid_ghz.

    The CellConfig elements get their susceptibilities from one
    susceptibilities call, so the chain is one Voigt block per grid slice.
    The beam enters linearly polarized at input_angle_rad (lab frame) and the
    walk carries its (n, 2) complex amplitude from left to right: each cell
    applies its jones_transfer matrices, and each polarizer keeps
    |along|^2 + extinction |across|^2 of the intensity and leaves the beam
    polarized along its axis.  The chain's transmission is the amplitude's
    total intensity at the end (the chain may end on a cell).  That leak model
    is exact at the final analyzer and keeps the dual filter
    light-direction-insensitive at any angle and extinction.
    """
    grid = _validate_grid(grid_ghz)
    elements = list(elements)
    if not elements:
        raise ConfigError(["filter chain has no elements"])

    computed = iter(susceptibilities([el for el in elements if isinstance(el, CellConfig)], grid))
    amp = np.empty((grid.size, 2), dtype=complex)
    amp[:] = (math.cos(input_angle_rad), math.sin(input_angle_rad))
    for el in elements:
        if isinstance(el, CellConfig):
            el = next(computed)
        if isinstance(el, Polarizer):
            c, s = math.cos(el.axis_angle_rad), math.sin(el.axis_angle_rad)
            along = c * amp[:, 0] + s * amp[:, 1]
            across = c * amp[:, 1] - s * amp[:, 0]
            intensity = np.abs(along) ** 2 + el.extinction * np.abs(across) ** 2
            amp = np.sqrt(intensity)[:, None] * np.array([c, s])
        elif isinstance(el, CellOrSpectrum):
            amp = np.einsum("nij,nj->ni", jones_transfer(el, grid), amp)
        else:
            raise ConfigError([f"unknown chain element {type(el).__name__}"])
    return (np.abs(amp) ** 2).sum(axis=1)


@dataclass
class FilterChain:
    """Element chain; transmission(grid) is its cascade with the beam entering at angle 0."""

    elements: list

    def transmission(self, grid_ghz) -> np.ndarray:
        return cascade(self.elements, grid_ghz)


def dual_filter(absorption: CellOrSpectrum, faraday: CellOrSpectrum,
                extinction: float = WOLLASTON_EXTINCTION) -> FilterChain:
    """Absorption cell followed by a crossed Faraday filter; each cell may be
    given as its precomputed spectrum.

    The absorption cell's field is perpendicular to the beam polarization of
    the signal path (its configured polarization angle measures the field
    angle from the input polarizer axis).
    """
    return FilterChain([
        Polarizer(0.0, extinction),
        absorption,
        Polarizer(0.0, extinction),
        faraday,
        Polarizer(math.pi / 2.0, extinction),
    ])


def cell_transmission(cell: CellOrSpectrum, grid_ghz, extinction: float = 0.0) -> np.ndarray:
    """The filter transmission of one cell (or its spectrum), beam entering along x.

    A transverse cell stands alone, so with its field at psi to the beam it
    passes cos^2(psi) T_pi + sin^2(psi) T_perp.  A longitudinal cell sits
    before a crossed analyzer, whose extinction leaks the parallel component
    (a transverse cell has no analyzer, so extinction does not apply to it).
    """
    spec = _spectrum(cell, grid_ghz)
    if spec.cell.geometry == LONGITUDINAL:
        return cascade([spec, Polarizer(math.pi / 2.0, extinction)], grid_ghz)
    return cascade([spec], grid_ghz)


def opaque_region_width(grid_ghz, transmission, level: float = 0.5) -> float:
    """Width (GHz) between the outermost crossings of the given level.

    Measures the full span where the filter is opaque at the level, from the
    first downward crossing to the last upward one, interpolating linearly.
    Returns 0.0 when the transmission never dips below the level.
    """
    grid = _validate_grid(grid_ghz)
    t = np.asarray(transmission, dtype=float)
    if t.shape != grid.shape:
        raise DataError("transmission and grid shapes differ")
    below = t < level
    if not below.any():
        return 0.0
    if below[0] or below[-1]:
        raise DataError("opaque region extends beyond the detuning grid")
    idx = np.nonzero(below)[0]
    i0, i1 = idx[0], idx[-1]

    def cross(ia, ib):
        ta, tb = t[ia], t[ib]
        if tb == ta:
            return grid[ia]
        return grid[ia] + (level - ta) * (grid[ib] - grid[ia]) / (tb - ta)

    left = cross(i0 - 1, i0)
    right = cross(i1, i1 + 1)
    return float(right - left)
