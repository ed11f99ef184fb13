"""Least-squares fitting of measured filter spectra to the cell model.

The fit is one bounded least-squares solve, a box-projected
Levenberg-Marquardt in NumPy (importing SciPy's least_squares took 0.6 s,
half of a fit run; the tests keep it as the oracle), over a subset of
{temperature, field, Rb87 residual fraction, length}, with every parameter
mapped onto the unit box of its documented physical range.  The Jacobian at
the optimum gives both the Gauss-Newton covariance and the degeneracy test: a
direction the data cannot see marks the fit degenerate instead of silently
returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .lineshape import CELL_KEYS, CellConfig, with_keys
from .optimize import PAPER_OPTIMUM, build_cells
from .propagation import cell_transmission

# The cell keys a fit may free, each over its range in config units.
FIT_PARAM_RANGES = {name: (CELL_KEYS[name].lo, CELL_KEYS[name].hi)
                    for name in ("temperature_c", "b_field_mt", "rb87_fraction", "length_cm")}
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


def model_transmission(cell: CellConfig, grid_ghz) -> np.ndarray:
    """The observable the fit matches: the cell's own filter transmission."""
    return cell_transmission(cell, grid_ghz)


def fit_spectrum(measured: MeasuredSpectrum, free: list[str] | tuple[str, ...],
                 initial: dict[str, float], template: CellConfig | None = None) -> FitResult:
    """Unweighted least squares over the named free parameters.

    Each parameter is a cell key in config units (temperature_c in Celsius,
    length_cm in cm).  initial holds a starting value for every free parameter
    and nothing else; one ConfigError lists every problem with either.  Fixed
    parameters come from the template cell.
    """
    free = list(free)
    errors = [] if free else ["fit: free parameter set is empty"]
    errors += [f"fit: unknown free parameter {p!r} (valid: {sorted(FIT_PARAM_RANGES)})"
               for p in free if p not in FIT_PARAM_RANGES]
    errors += [f"fit: free parameter {p!r} listed more than once"
               for p in sorted({p for p in free if free.count(p) > 1})]
    errors += [f"fit: no initial value for free parameter {p!r}" for p in free if p not in initial]
    errors += [f"fit: initial value for {p!r}, which is not free" for p in initial if p not in free]
    if errors:
        raise ConfigError(errors)
    if measured.n_rows < MIN_FIT_ROWS:
        raise DataError(f"fit needs >= {MIN_FIT_ROWS} rows, got {measured.n_rows}")

    template = template or replace(build_cells(PAPER_OPTIMUM)[0], name="fit")
    lo, hi = np.array([FIT_PARAM_RANGES[p] for p in free]).T
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
        cell = with_keys(template, **dict(zip(free, x)))
        return model_transmission(cell, grid) - target

    u, r, jac = _levenberg_marquardt(residuals, (x0 - lo) / span)
    x_best = np.clip(lo + u * span, lo, hi)
    n, p = r.size, len(free)
    rss = float(r @ r)

    # singular values of the unit-box Jacobian: the smallest below 1e-6 sqrt(n)
    # means some parameter direction, swept over its whole range, moves the
    # model by less than 1e-6 rms; below 1e-6 of the largest, J is ill-conditioned
    sv = np.linalg.svd(jac, compute_uv=False)
    degenerate = bool(sv.min() < 1e-6 * max(sv.max(), math.sqrt(n)))
    covariance = None
    if not degenerate:
        jac = jac / span  # d(residual)/d(parameter) in natural units
        covariance = rss / max(n - p, 1) * np.linalg.inv(jac.T @ jac)

    params = dict(zip(free, (float(v) for v in x_best)))
    return FitResult(params=params, rms=math.sqrt(rss / n), covariance=covariance,
                     degenerate=degenerate, n_evaluations=n_eval)


def _levenberg_marquardt(residuals, u: np.ndarray):
    """Least squares of residuals(u) over [0, 1]^p by Levenberg-Marquardt,
    each step clipped to the box.  J is a forward difference with step
    sqrt(eps), inward at the upper bound.  The damping is scaled by J's column
    norms and the step solves [J; sqrt(lam) D] step = [-r; 0] by lstsq, so a
    column the data cannot see gets no step instead of a singular system.
    Stops on a relative cost decrease or a step (relative to |u|) below 1e-8,
    or on runaway damping.  Returns (u, r, J), with r and J evaluated at u.
    """
    h0 = math.sqrt(np.finfo(float).eps)

    def jacobian(u, r):
        jac = np.empty((r.size, u.size))
        for k in range(u.size):
            v = u.copy()
            v[k] += h0 if u[k] + h0 <= 1.0 else -h0
            jac[:, k] = (residuals(v) - r) / (v[k] - u[k])
        return jac

    r = residuals(u)
    cost = float(r @ r)
    jac = jacobian(u, r)
    lam = 1e-3
    while lam < 1e10:
        damping = np.sqrt(lam) * np.linalg.norm(jac, axis=0)
        step = np.linalg.lstsq(np.vstack([jac, np.diag(damping)]),
                               np.concatenate([-r, np.zeros(u.size)]), rcond=None)[0]
        u_new = np.clip(u + step, 0.0, 1.0)
        if np.linalg.norm(u_new - u) <= 1e-8 * (1e-8 + np.linalg.norm(u)):
            break
        r_new = residuals(u_new)
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            small = cost - cost_new <= 1e-8 * cost
            u, r, cost = u_new, r_new, cost_new
            jac = jacobian(u, r)
            lam = max(0.1 * lam, 1e-10)
            if small:
                break
        else:
            lam *= 10.0
    return u, r, jac
