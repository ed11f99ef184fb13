"""Beam propagation through magnetized Rb cells and polarizer chains.

Longitudinal cells are treated coherently in the circular basis with amplitude
transmissions t_pm = exp(i (omega L / 2c) chi_pm); the common vacuum phase is
dropped.  Transverse cells act as pure absorbers for the two linear components
(pi along B, sigma perpendicular), combined incoherently by the beam's angle to
the field.  Every function and chain takes each cell as a CellConfig or as its
precomputed ComplexSpectrum (which carries the cell), so chains that differ
only in angles compute each susceptibility once.  Chains of polarizers and cells
are evaluated left to right; a rotator cell's coherent output must be resolved
by a polarizer (or the chain end, which measures total intensity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, REFERENCE
from .errors import ConfigError, DataError
from .lineshape import (
    LONGITUDINAL,
    TRANSVERSE,
    CellConfig,
    ComplexSpectrum,
    _validate_grid,
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


def _require_geometry(cell: CellConfig, geometry: str, what: str):
    if cell.geometry != geometry:
        raise ConfigError([f"{what} needs a {geometry} cell, got {cell.geometry!r} ({cell.name})"])


def absorption_coefficients(spec: ComplexSpectrum) -> dict[str, np.ndarray]:
    """Intensity absorption alpha_mode(Delta) in 1/m for every mode."""
    om = REFERENCE.detuning_to_omega(spec.grid_ghz)
    return {m: om / C_LIGHT * np.imag(spec.chi[m]) for m in spec.chi}


def absorption_transmission(cell: CellOrSpectrum, grid_ghz,
                            psi_rad: float | None = None) -> np.ndarray:
    """Intensity transmission of a transverse-field absorption cell (or its spectrum).

    psi_rad is the angle between the beam polarization and the field; the two
    linear components attenuate independently:
        T = cos^2(psi) exp(-alpha_pi L) + sin^2(psi) exp(-alpha_sigma L)
    Defaults to the cell's configured polarization angle (pi/2: pure sigma).
    """
    spec = _spectrum(cell, grid_ghz)
    cell = spec.cell
    _require_geometry(cell, TRANSVERSE, "absorption_transmission")
    psi = cell.polarization_angle_rad if psi_rad is None else psi_rad
    alpha = absorption_coefficients(spec)
    t_pi = np.exp(-alpha["pi"] * cell.length_m)
    t_sg = np.exp(-alpha["sigma"] * cell.length_m)
    return math.cos(psi) ** 2 * t_pi + math.sin(psi) ** 2 * t_sg


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
    _require_geometry(cell, LONGITUDINAL, "faraday_rotation")
    om = REFERENCE.detuning_to_omega(spec.grid_ghz)
    theta = om * cell.length_m / (4.0 * C_LIGHT) * (
        np.real(spec.chi["sigma+"]) - np.real(spec.chi["sigma-"])
    )
    alpha = absorption_coefficients(spec)
    t_rot = np.exp(-0.5 * (alpha["sigma+"] + alpha["sigma-"]) * cell.length_m)
    return theta, t_rot


def jones_transfer(cell: CellOrSpectrum, grid_ghz) -> np.ndarray:
    """2x2 complex transfer matrices, shape (n, 2, 2) in the lab x/y basis, of a
    longitudinal cell (or its spectrum)."""
    spec = _spectrum(cell, grid_ghz)
    cell = spec.cell
    _require_geometry(cell, LONGITUDINAL, "jones_transfer")
    k = REFERENCE.detuning_to_omega(spec.grid_ghz) * cell.length_m / (2.0 * C_LIGHT)
    tp = np.exp(1j * k * spec.chi["sigma+"])
    tm = np.exp(1j * k * spec.chi["sigma-"])
    s = 0.5 * (tp + tm)
    d = 0.5j * (tp - tm)
    mats = np.empty((spec.grid_ghz.size, 2, 2), dtype=complex)
    mats[:, 0, 0] = s
    mats[:, 0, 1] = -d
    mats[:, 1, 0] = d
    mats[:, 1, 1] = s
    return mats


def faraday_transmission(cell: CellOrSpectrum, grid_ghz, extinction: float = 0.0) -> np.ndarray:
    """Transmission through polarizer / rotator cell (or its spectrum) / crossed analyzer.

    extinction adds the analyzer's leak of the rejected (parallel) component.
    """
    if not 0.0 <= extinction < 1.0:
        raise ConfigError([f"extinction must lie in [0, 1), got {extinction}"])
    out = jones_transfer(cell, grid_ghz)[:, :, 0]  # the cell's output for x-polarized input
    return np.abs(out[:, 1]) ** 2 + extinction * np.abs(out[:, 0]) ** 2


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

    The beam enters linearly polarized at input_angle_rad (lab frame).  The
    walk keeps an intensity factor and the current polarization angle.  A
    transverse cell absorbs at the beam's angle to its field, whose angle is
    the cell's polarization_angle_rad.  A longitudinal cell switches to a
    coherent amplitude pair until the next polarizer projects it back (chain
    may also end there, measuring total intensity).
    """
    grid = _validate_grid(grid_ghz)
    elements = list(elements)
    if not elements:
        raise ConfigError(["filter chain has no elements"])

    t_total = np.ones(grid.shape)
    angle = float(input_angle_rad)
    amp: np.ndarray | None = None  # (n, 2) complex while inside a coherent segment

    for el in elements:
        if isinstance(el, Polarizer):
            ax = np.array([math.cos(el.axis_angle_rad), math.sin(el.axis_angle_rad)])
            perp = np.array([-ax[1], ax[0]])
            if amp is None:
                delta = angle - el.axis_angle_rad
                t_total = t_total * (math.cos(delta) ** 2 + el.extinction * math.sin(delta) ** 2)
            else:
                along = amp @ ax.astype(complex)
                leak = amp @ perp.astype(complex)
                t_total = t_total * (np.abs(along) ** 2 + el.extinction * np.abs(leak) ** 2)
                amp = None
            angle = el.axis_angle_rad
            continue
        if not isinstance(el, CellOrSpectrum):
            raise ConfigError([f"unknown chain element {type(el).__name__}"])
        spec = _spectrum(el, grid)
        if spec.cell.geometry == TRANSVERSE:
            if amp is not None:
                raise ConfigError(
                    ["rotator cell output must pass a polarizer before an absorption cell"]
                )
            psi = angle - spec.cell.polarization_angle_rad
            t_total = t_total * absorption_transmission(spec, grid, psi_rad=psi)
        else:
            if amp is None:
                amp = np.broadcast_to(np.array([math.cos(angle), math.sin(angle)], dtype=complex),
                                      (grid.size, 2))
            amp = np.einsum("nij,nj->ni", jones_transfer(spec, grid), amp)

    if amp is not None:
        t_total = t_total * (np.abs(amp) ** 2).sum(axis=1)
    return t_total


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
