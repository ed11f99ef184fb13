"""Least-squares fitting of measured filter spectra to the cell model.

The fit drives the same simplex engine as the operating-point search over a
subset of {temperature, field, Rb87 residual fraction, length}, with all
parameters scaled to documented physical ranges so the simplex sees O(1)
coordinates.  The covariance estimate comes from a finite-difference Jacobian
at the optimum; a flat or collapsed direction marks the fit degenerate instead
of silently returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .lineshape import CELL_KEYS, CellConfig, TRANSVERSE
from .optimize import PAPER_OPTIMUM, build_cells, initial_simplex
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
    """Weighted least squares over the named free parameters.

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
    grid = measured.detuning_ghz
    target = measured.transmission

    n_eval = 0

    def residuals(x_nat: np.ndarray) -> np.ndarray:
        cell = _apply_params(template, dict(zip(free, x_nat)))
        return model_transmission(cell, grid) - target

    def loss_scaled(u: np.ndarray) -> float:
        nonlocal n_eval
        n_eval += 1
        x = np.clip(lo + u * (hi - lo), lo, hi)
        r = residuals(x)
        return float((r * r).mean())

    # SciPy's own minimize, not rbfilter.optimize.minimize: a fit is not a search restart
    from scipy.optimize import minimize

    u0 = (x0 - lo) / (hi - lo)
    res = minimize(loss_scaled, u0, method="Nelder-Mead",
                   options=dict(maxfev=4000, xatol=1e-8, fatol=1e-16,
                                initial_simplex=initial_simplex(u0, 0.02)))
    x_best = np.clip(lo + res.x * (hi - lo), lo, hi)
    r_best = residuals(x_best)
    rms = float(math.sqrt((r_best * r_best).mean()))

    covariance, degenerate = _covariance_estimate(residuals, x_best, hi - lo, r_best)
    # flatness probe: a free parameter the data cannot see
    base = (r_best * r_best).mean()
    for k in range(len(free)):
        xp = x_best.copy()
        span = hi[k] - lo[k]
        xp[k] = min(x_best[k] + 0.005 * span, hi[k])
        xm = x_best.copy()
        xm[k] = max(x_best[k] - 0.005 * span, lo[k])
        dp = abs((residuals(xp) ** 2).mean() - base)
        dm = abs((residuals(xm) ** 2).mean() - base)
        if max(dp, dm) < 1e-14 * max(base, 1e-30) or max(dp, dm) == 0.0:
            degenerate = True

    params = dict(zip(free, (float(v) for v in x_best)))
    return FitResult(params=params, rms=rms, covariance=covariance,
                     degenerate=degenerate, n_evaluations=n_eval, free_names=free)


def _covariance_estimate(residuals, x: np.ndarray, span: np.ndarray, r0: np.ndarray):
    """Gauss-Newton covariance from central differences; None when singular."""
    n, p = r0.size, x.size
    jac = np.empty((n, p))
    for k in range(p):
        h = 1e-4 * span[k]
        xp = x.copy(); xp[k] += h
        xm = x.copy(); xm[k] -= h
        jac[:, k] = (residuals(xp) - residuals(xm)) / (2.0 * h)
    jtj = jac.T @ jac
    dof = max(n - p, 1)
    s2 = float((r0 * r0).sum()) / dof
    cond = np.linalg.cond(jtj)
    if not np.isfinite(cond) or cond > 1e12:
        return None, True
    return s2 * np.linalg.inv(jtj), False
