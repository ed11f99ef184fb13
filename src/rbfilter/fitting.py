"""Least-squares fitting of measured filter spectra to the cell model.

The fit is one bounded least-squares solve (SciPy's ``least_squares``) over a
subset of {temperature, field, Rb87 residual fraction, length}, with every
parameter mapped onto the unit box of its documented physical range.  The
Jacobian the solver returns at the optimum gives both the Gauss-Newton
covariance and the degeneracy test: a direction the data cannot see marks the
fit degenerate instead of silently returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .lineshape import CELL_KEYS, CellConfig, TRANSVERSE
from .optimize import PAPER_OPTIMUM, build_cells
from .propagation import absorption_transmission, faraday_transmission

# Fit parameter -> its cell key.  A parameter named after the key is in config
# units; one named after the CellConfig field (length_m) is in field units.
_FIT_KEYS = {name: CELL_KEYS[key] for name, key in (
    ("temperature_c", "temperature_c"), ("b_field_mt", "b_field_mt"),
    ("rb87_fraction", "rb87_fraction"), ("length_m", "length_cm"))}
FIT_PARAM_RANGES = {name: (key.lo, key.hi) if name == key.name else key.field_range()
                    for name, key in _FIT_KEYS.items()}
MIN_FIT_ROWS = 50


@dataclass
class MeasuredSpectrum:
    """Detuning/transmission rows as exported by the spectrometer scripts."""

    detuning_ghz: np.ndarray
    transmission: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.detuning_ghz, dtype=float)
        t = np.asarray(self.transmission, dtype=float)
        if d.ndim != 1 or d.shape != t.shape or d.size < 2:
            raise DataError("measured spectrum needs matching 1-D detuning and transmission arrays")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(t))):
            raise DataError("measured spectrum contains non-finite values")
        if not np.all(np.diff(d) > 0):
            raise DataError("measured detunings must be strictly increasing")
        if t.min() < 0.0 or t.max() > 1.05:
            raise DataError("measured transmission outside [0, 1.05] (calibration overshoot bound)")
        self.detuning_ghz = d
        self.transmission = t

    @property
    def n_rows(self) -> int:
        return int(self.detuning_ghz.size)


@dataclass
class FitResult:
    params: dict[str, float]
    rms: float
    covariance: np.ndarray | None
    degenerate: bool
    n_evaluations: int
    free_names: list[str]


def _apply_params(template: CellConfig, values: dict[str, float]) -> CellConfig:
    updates = {}
    for name, value in values.items():
        key = _FIT_KEYS[name]
        updates[key.field] = key.to_field(value) if name == key.name else value
    return replace(template, **updates)


def model_transmission(cell: CellConfig, grid_ghz) -> np.ndarray:
    """The observable the fit matches: the cell's own filter transmission."""
    if cell.geometry == TRANSVERSE:
        return absorption_transmission(cell, grid_ghz)
    return faraday_transmission(cell, grid_ghz, "crossed")


def fit_spectrum(measured: MeasuredSpectrum, free: list[str] | tuple[str, ...],
                 initial: dict[str, float], template: CellConfig | None = None) -> FitResult:
    """Unweighted least squares over the named free parameters.

    initial must provide a starting value for every free parameter, in the
    units implied by the name (temperature_c in Celsius, b_field_mt in mT,
    fractions and lengths SI).  Fixed parameters come from the template cell.
    """
    free = list(free)
    if not free:
        raise ConfigError(["fit: free parameter set is empty"])
    unknown = [p for p in free if p not in FIT_PARAM_RANGES]
    if unknown:
        raise ConfigError([f"fit: unknown free parameter {p!r} (valid: {sorted(FIT_PARAM_RANGES)})"
                           for p in unknown])
    missing = [p for p in free if p not in initial]
    if missing:
        raise ConfigError([f"fit: no initial value for free parameter {p!r}" for p in missing])
    if measured.n_rows < MIN_FIT_ROWS:
        raise DataError(f"fit needs >= {MIN_FIT_ROWS} rows, got {measured.n_rows}")

    template = template or replace(build_cells(PAPER_OPTIMUM)[0], name="fit")
    lo = np.array([FIT_PARAM_RANGES[p][0] for p in free])
    hi = np.array([FIT_PARAM_RANGES[p][1] for p in free])
    x0 = np.array([float(initial[p]) for p in free])
    if not np.all((lo <= x0) & (x0 <= hi)):  # NaN fails too
        raise ConfigError([f"fit: initial {p}={initial[p]} outside range {FIT_PARAM_RANGES[p]}"
                           for p, v, a, b in zip(free, x0, lo, hi) if not a <= v <= b])
    span = hi - lo
    grid = measured.detuning_ghz
    target = measured.transmission

    n_eval = 0

    def residuals(u: np.ndarray) -> np.ndarray:
        nonlocal n_eval
        n_eval += 1
        x = np.clip(lo + u * span, lo, hi)
        cell = _apply_params(template, dict(zip(free, x)))
        return model_transmission(cell, grid) - target

    from scipy.optimize import least_squares

    # dogbox, not trf: trf stalls on a range bound when the fit starts there
    res = least_squares(residuals, (x0 - lo) / span, bounds=(0.0, 1.0), method="dogbox")
    x_best = np.clip(lo + res.x * span, lo, hi)
    n, p = res.fun.size, len(free)
    rss = float(res.fun @ res.fun)

    # singular values of the unit-box Jacobian: the smallest below 1e-6 sqrt(n)
    # means some parameter direction, swept over its whole range, moves the
    # model by less than 1e-6 rms; below 1e-6 of the largest, J is ill-conditioned
    sv = np.linalg.svd(res.jac, compute_uv=False)
    degenerate = bool(sv.min() < 1e-6 * max(sv.max(), math.sqrt(n)))
    covariance = None
    if not degenerate:
        jac = res.jac / span  # d(residual)/d(parameter) in natural units
        covariance = rss / max(n - p, 1) * np.linalg.inv(jac.T @ jac)

    params = dict(zip(free, (float(v) for v in x_best)))
    return FitResult(params=params, rms=math.sqrt(rss / n), covariance=covariance,
                     degenerate=degenerate, n_evaluations=n_eval, free_names=free)
