"""Beam propagation through magnetized Rb cells and polarizer chains.

Longitudinal cells are treated coherently in the circular basis with amplitude
transmissions t_pm = exp(i (omega L / 2c) chi_pm); the common vacuum phase is
dropped.  Transverse cells act as pure absorbers for the two linear components
(pi along B, sigma perpendicular), combined incoherently by the beam's angle to
the field.  Chains of polarizers and cells are evaluated left to right; a
rotator cell's coherent output must be resolved by a polarizer (or the chain
end, which measures total intensity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def transmission_db(t, floor_db: float = MIN_DB) -> np.ndarray:
    """Intensity transmission in dB, clipped at floor_db to keep logs finite."""
    t = np.asarray(t, dtype=float)
    floor = 10.0 ** (floor_db / 10.0)
    return 10.0 * np.log10(np.maximum(t, floor))


def _require_geometry(cell: CellConfig, geometry: str, what: str):
    if cell.geometry != geometry:
        raise ConfigError([f"{what} needs a {geometry} cell, got {cell.geometry!r} ({cell.name})"])


def _amplitudes(spec: ComplexSpectrum, length_m: float) -> dict[str, np.ndarray]:
    om = REFERENCE.detuning_to_omega(spec.grid_ghz)
    k = om * length_m / (2.0 * C_LIGHT)
    return {m: np.exp(1j * k * spec.chi[m]) for m in spec.chi}


def absorption_coefficients(spec: ComplexSpectrum) -> dict[str, np.ndarray]:
    """Intensity absorption alpha_mode(Delta) in 1/m for every mode."""
    om = REFERENCE.detuning_to_omega(spec.grid_ghz)
    return {m: om / C_LIGHT * np.imag(spec.chi[m]) for m in spec.chi}


def absorption_transmission(cell: CellConfig, grid_ghz, psi_rad: float | None = None,
                            spectrum: ComplexSpectrum | None = None) -> np.ndarray:
    """Intensity transmission of a transverse-field absorption cell.

    psi_rad is the angle between the beam polarization and the field; the two
    linear components attenuate independently:
        T = cos^2(psi) exp(-alpha_pi L) + sin^2(psi) exp(-alpha_sigma L)
    Defaults to the cell's configured polarization angle (pi/2: pure sigma).
    """
    _require_geometry(cell, TRANSVERSE, "absorption_transmission")
    spec = spectrum if spectrum is not None else susceptibility(cell, grid_ghz)
    psi = cell.polarization_angle_rad if psi_rad is None else psi_rad
    alpha = absorption_coefficients(spec)
    t_pi = np.exp(-alpha["pi"] * cell.length_m)
    t_sg = np.exp(-alpha["sigma"] * cell.length_m)
    return math.cos(psi) ** 2 * t_pi + math.sin(psi) ** 2 * t_sg


def faraday_rotation(cell: CellConfig, grid_ghz, spectrum: ComplexSpectrum | None = None):
    """Rotation angle theta(Delta) in rad and the mean-absorption envelope.

    theta is the polarization rotation (half the phase difference between the
    circular components); the returned envelope t_rot = exp(-(alpha_+ +
    alpha_-) L / 2) makes T_crossed = t_rot sin^2(theta) exact wherever the two
    circular absorptions coincide.
    """
    _require_geometry(cell, LONGITUDINAL, "faraday_rotation")
    spec = spectrum if spectrum is not None else susceptibility(cell, grid_ghz)
    om = REFERENCE.detuning_to_omega(spec.grid_ghz)
    theta = om * cell.length_m / (4.0 * C_LIGHT) * (
        np.real(spec.chi["sigma+"]) - np.real(spec.chi["sigma-"])
    )
    alpha = absorption_coefficients(spec)
    t_rot = np.exp(-0.5 * (alpha["sigma+"] + alpha["sigma-"]) * cell.length_m)
    return theta, t_rot


@dataclass
class JonesTransfer:
    """2x2 complex transfer matrices of a longitudinal cell, lab x/y basis."""

    grid_ghz: np.ndarray
    matrices: np.ndarray  # shape (n, 2, 2)

    def apply(self, amplitude: np.ndarray) -> np.ndarray:
        """amplitude: (2,) launch vector or (n, 2) field; returns (n, 2)."""
        a = np.asarray(amplitude, dtype=complex)
        if a.ndim == 1:
            a = np.broadcast_to(a, (self.matrices.shape[0], 2))
        return np.einsum("nij,nj->ni", self.matrices, a)

    def crossed(self) -> np.ndarray:
        out = self.apply(np.array([1.0, 0.0]))
        return np.abs(out[:, 1]) ** 2

    def parallel(self) -> np.ndarray:
        out = self.apply(np.array([1.0, 0.0]))
        return np.abs(out[:, 0]) ** 2

    def max_singular_value(self) -> float:
        return float(np.linalg.svd(self.matrices, compute_uv=False).max())


def jones_transfer(cell: CellConfig, grid_ghz, spectrum: ComplexSpectrum | None = None) -> JonesTransfer:
    _require_geometry(cell, LONGITUDINAL, "jones_transfer")
    spec = spectrum if spectrum is not None else susceptibility(cell, grid_ghz)
    amp = _amplitudes(spec, cell.length_m)
    tp, tm = amp["sigma+"], amp["sigma-"]
    s = 0.5 * (tp + tm)
    d = 0.5j * (tp - tm)
    mats = np.empty((spec.grid_ghz.size, 2, 2), dtype=complex)
    mats[:, 0, 0] = s
    mats[:, 0, 1] = -d
    mats[:, 1, 0] = d
    mats[:, 1, 1] = s
    return JonesTransfer(grid_ghz=spec.grid_ghz, matrices=mats)


def faraday_transmission(cell: CellConfig, grid_ghz, output: str = "crossed",
                         extinction: float = 0.0,
                         spectrum: ComplexSpectrum | None = None) -> np.ndarray:
    """Transmission through polarizer / rotator cell / analyzer.

    output 'crossed' puts the analyzer at 90 degrees to the input polarizer,
    'parallel' aligns them.  extinction adds the analyzer's leak of the
    rejected component.
    """
    if output not in ("crossed", "parallel"):
        raise ConfigError([f"output must be 'crossed' or 'parallel', got {output!r}"])
    if not 0.0 <= extinction < 1.0:
        raise ConfigError([f"extinction must lie in [0, 1), got {extinction}"])
    jt = jones_transfer(cell, grid_ghz, spectrum=spectrum)
    tc, tp = jt.crossed(), jt.parallel()
    if output == "crossed":
        return tc + extinction * tp
    return tp + extinction * tc


# ---------------------------------------------------------------------------
# filter chains


@dataclass(frozen=True)
class Polarizer:
    axis_angle_rad: float = 0.0
    extinction: float = 1.0e-5

    def __post_init__(self):
        if not 0.0 <= self.extinction < 1.0:
            raise ConfigError([f"polarizer extinction must lie in [0, 1), got {self.extinction}"])


@dataclass(frozen=True)
class AbsorptionCellElement:
    """Transverse-field cell; attenuates pi/sigma components incoherently.

    spectrum, when given, is the cell's susceptibility on the cascade grid,
    computed once for chains that differ only in angles.
    """

    cell: CellConfig
    field_angle_rad: float = 0.0
    spectrum: ComplexSpectrum | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_geometry(self.cell, TRANSVERSE, "AbsorptionCellElement")


@dataclass(frozen=True)
class RotatorCellElement:
    """Longitudinal-field cell; coherent circular birefringence and dichroism.

    spectrum as for AbsorptionCellElement.
    """

    cell: CellConfig
    spectrum: ComplexSpectrum | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _require_geometry(self.cell, LONGITUDINAL, "RotatorCellElement")


def cascade(elements, grid_ghz, input_angle_rad: float = 0.0) -> np.ndarray:
    """Intensity transmission of a chain of polarizers and cells.

    The beam enters linearly polarized at input_angle_rad (lab frame).  The
    walk keeps an intensity factor and the current polarization angle; a
    rotator cell switches to a coherent amplitude pair until the next polarizer
    projects it back (chain may also end there, measuring total intensity).
    """
    grid = _validate_grid(grid_ghz)
    elements = list(elements)
    if not elements:
        raise ConfigError(["filter chain has no elements"])

    t_total = np.ones(grid.shape)
    angle = float(input_angle_rad)
    amp: np.ndarray | None = None  # (n, 2) complex while inside a coherent segment

    for el in elements:
        spectrum = getattr(el, "spectrum", None)
        if spectrum is not None and not np.array_equal(spectrum.grid_ghz, grid):
            raise DataError(f"precomputed spectrum of {el.cell.name} is on another detuning grid")
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
        elif isinstance(el, AbsorptionCellElement):
            if amp is not None:
                raise ConfigError(
                    ["rotator cell output must pass a polarizer before an absorption cell"]
                )
            psi = angle - el.field_angle_rad
            t_total = t_total * absorption_transmission(el.cell, grid, psi_rad=psi,
                                                        spectrum=spectrum)
        elif isinstance(el, RotatorCellElement):
            jt = jones_transfer(el.cell, grid, spectrum=spectrum)
            if amp is None:
                amp = jt.apply(np.array([math.cos(angle), math.sin(angle)]))
            else:
                amp = jt.apply(amp)
        else:
            raise ConfigError([f"unknown chain element {type(el).__name__}"])

    if amp is not None:
        t_total = t_total * (np.abs(amp) ** 2).sum(axis=1)
    return t_total


@dataclass
class FilterChain:
    """Named element chain with per-port transmission helpers."""

    elements: list
    name: str = "chain"

    def transmission(self, grid_ghz, input_angle_rad: float = 0.0) -> np.ndarray:
        return cascade(self.elements, grid_ghz, input_angle_rad=input_angle_rad)


def dual_filter(absorption_cell: CellConfig, faraday_cell: CellConfig,
                extinction: float = 1.0e-5, name: str = "dual",
                spectra: tuple[ComplexSpectrum, ComplexSpectrum] | None = None) -> FilterChain:
    """Absorption cell followed by a crossed Faraday filter.

    The absorption cell's field is perpendicular to the beam polarization of
    the signal path (its configured polarization angle measures the field
    angle from the input polarizer axis).  spectra, when given, are the two
    cells' precomputed susceptibilities (absorption, Faraday).
    """
    abs_spec, far_spec = spectra or (None, None)
    return FilterChain(
        elements=[
            Polarizer(0.0, extinction),
            AbsorptionCellElement(absorption_cell,
                                  field_angle_rad=absorption_cell.polarization_angle_rad,
                                  spectrum=abs_spec),
            Polarizer(0.0, extinction),
            RotatorCellElement(faraday_cell, spectrum=far_spec),
            Polarizer(math.pi / 2.0, extinction),
        ],
        name=name,
    )


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
