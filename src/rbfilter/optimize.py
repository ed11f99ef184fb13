"""Figure of merit and operating-point search for the dual-filter cascade.

The objective rewards the smaller of the two signal transmissions while
requiring every drive-laser suppression (Wollaston leak included) to clear a
threshold; below threshold the objective turns into the negative dB shortfall,
which keeps the landscape continuous for the simplex.  The search runs a
coarse grid scan weighted toward the Faraday field axis (the transmission
bands shift by roughly 0.3 GHz/mT, so that axis needs the finest sampling)
followed by Nelder-Mead restarts from the best cells.

OPERATING_KEYS gives each operating parameter (an optimizer.box key in config
units) its cell, cell key and default range; ChainParams and ParamBox are built
from it, and build_cells sets a point through lineshape.with_keys.

The figure of merit is this package's own construction; the reference
experiment tuned its operating point by hand.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_DETUNINGS
from .errors import ConfigError, NumericalError
from .lineshape import CELL_KEYS, CellConfig, LONGITUDINAL, TRANSVERSE, with_keys
from .propagation import T_FLOOR, WOLLASTON_EXTINCTION, dual_filter

# Each searched parameter under its optimizer.box name, in config units: the
# cell it sets (0 absorption, 1 faraday), that cell's key and its default search
# range.  The only place the operating point's names, order, cells and box are written.
OPERATING_KEYS = {
    "t_abs_c": (0, CELL_KEYS["temperature_c"], (90.0, 120.0)),
    "t_far_c": (1, CELL_KEYS["temperature_c"], (60.0, 120.0)),
    "b_abs_mt": (0, CELL_KEYS["b_field_mt"], (5.0, 20.0)),
    "b_far_mt": (1, CELL_KEYS["b_field_mt"], (1.0, 20.0)),
}


@dataclass(frozen=True)
class FomSpec:
    """Detunings scored by the figure of merit (GHz) and the suppression bar.

    Suppression is total: Wollaston extinction times chain transmission at the
    noise detunings, in dB.
    """

    signal_detunings_ghz: tuple[float, float] = DEFAULT_DETUNINGS.signal()
    noise_detunings_ghz: tuple[float, float] = DEFAULT_DETUNINGS.noise()
    min_suppression_db: float = 100.0
    wollaston_extinction: float = WOLLASTON_EXTINCTION

    def __post_init__(self):
        errors = []
        if len(self.signal_detunings_ghz) != 2 or len(self.noise_detunings_ghz) != 2:
            errors.append("fom: exactly two signal and two noise detunings required")
        if not all(map(math.isfinite, (*self.signal_detunings_ghz, *self.noise_detunings_ghz,
                                       self.min_suppression_db))):
            errors.append("fom: detunings and min_suppression_db must be finite")
        if not self.min_suppression_db > 0:
            errors.append(f"fom: min_suppression_db must be positive, got {self.min_suppression_db}")
        if not 0.0 < self.wollaston_extinction < 1.0:
            errors.append(f"fom: wollaston_extinction must lie in (0, 1), got {self.wollaston_extinction}")
        if errors:
            raise ConfigError(errors)


class ChainParams(namedtuple("ChainParams", OPERATING_KEYS)):
    """The searched operating parameters of the cascade, one field per
    OPERATING_KEYS name, in its order and config units."""

    @classmethod
    def from_array(cls, x) -> "ChainParams":
        return cls._make(map(float, x))


PAPER_OPTIMUM = ChainParams(t_abs_c=100.0, t_far_c=102.0, b_abs_mt=10.0, b_far_mt=10.0)


class ParamBox(namedtuple("ParamBox", OPERATING_KEYS,
                          defaults=[box for _, _, box in OPERATING_KEYS.values()])):
    """Search ranges in config units, one (lo, hi) per OPERATING_KEYS name,
    each defaulting to the table's range.  Every range must be ordered and lie
    within its cell key's range, so each searched cell is one a config may
    name; the constructor and _make, which _replace builds through, check it."""

    def __new__(cls, *args, **kwargs):
        return cls._make(super().__new__(cls, *args, **kwargs))

    @classmethod
    def _make(cls, iterable) -> "ParamBox":
        box = super()._make(iterable)
        errors = [f"box.{name}: ({lo}, {hi}) must be an ordered range within {[key.lo, key.hi]}"
                  for (name, (_, key, _)), (lo, hi) in zip(OPERATING_KEYS.items(), box)
                  if not key.lo <= lo <= hi <= key.hi]
        if errors:
            raise ConfigError(errors)
        return box

    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self])

    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self])

    def contains(self, params: ChainParams) -> bool:
        x, tol = np.array(params), 1e-12
        return bool(np.all(x >= self.lower() - tol) and np.all(x <= self.upper() + tol))


@dataclass
class FigureOfMerit:
    objective: float
    signal_transmissions: dict[float, float]
    noise_suppressions_db: dict[float, float]


_REFERENCE_CELLS = (
    CellConfig(name="absorption", length_m=0.30, geometry=TRANSVERSE,
               rb85_fraction=0.985, rb87_fraction=0.015),
    CellConfig(name="faraday", length_m=0.30, geometry=LONGITUDINAL,
               rb85_fraction=0.0, rb87_fraction=1.0, polarization_angle_rad=0.0),
)


def build_cells(params: ChainParams, cells: tuple[CellConfig, CellConfig] = _REFERENCE_CELLS
                ) -> tuple[CellConfig, CellConfig]:
    """Cascade cells at the given operating parameters: the (absorption,
    faraday) template cells with each OPERATING_KEYS cell key set to its
    parameter by with_keys, and nothing else.

    The default templates are the reference cells.  Absorption cell: 30 cm,
    isotopically enriched Rb85 with a 1.5% Rb87 residual, transverse field,
    beam polarization perpendicular to it.  Faraday cell: 30 cm of pure Rb87,
    longitudinal field.  At PAPER_OPTIMUM they give the reference operating
    point; the config preset and the fit template derive from it.
    """
    values = ({}, {})
    for (i, key, _), value in zip(OPERATING_KEYS.values(), params):
        values[i][key.name] = value
    return tuple(with_keys(cell, **keys) for cell, keys in zip(cells, values))


def score(params: ChainParams, spec: FomSpec | None = None,
          cells: tuple[CellConfig, CellConfig] = _REFERENCE_CELLS) -> FigureOfMerit:
    """Deterministic figure of merit at the four named detunings only; cells
    as in build_cells."""
    spec = spec or FomSpec()
    absorption, faraday = build_cells(params, cells)
    chain = dual_filter(absorption, faraday, extinction=spec.wollaston_extinction)
    detunings = sorted(set(spec.signal_detunings_ghz) | set(spec.noise_detunings_ghz))
    grid = np.array(detunings, dtype=float)
    t = chain.transmission(grid)
    t_at = {d: float(t[i]) for i, d in enumerate(detunings)}

    signal = {d: t_at[d] for d in spec.signal_detunings_ghz}
    supp = {
        d: -10.0 * math.log10(spec.wollaston_extinction * max(t_at[d], T_FLOOR))
        for d in spec.noise_detunings_ghz
    }
    shortfall = sum(max(0.0, spec.min_suppression_db - s) for s in supp.values())
    objective = min(signal.values()) if shortfall == 0.0 else -shortfall
    return FigureOfMerit(objective, signal, supp)


@dataclass
class OptimizeResult:
    best_params: ChainParams
    best_objective: float
    best_fom: FigureOfMerit
    trace: list
    n_evaluations: int
    wall_time_s: float


def _grid_axes(lo: np.ndarray, hi: np.ndarray, grid_budget: int) -> list[np.ndarray]:
    """Axis samples for the scan of [lo, hi]; the Faraday field gets the dense axis.

    The Faraday-band centers move by ~0.3 GHz/mT, so the b_far axis is sampled
    at <= 1/3 mT spacing (~100 MHz band motion) when the budget allows.
    """

    def axis(i, n):
        if lo[i] == hi[i] or n <= 1:
            return np.array([0.5 * (lo[i] + hi[i])])
        return np.linspace(lo[i], hi[i], n)

    n_bfar = max(1, min(int(math.ceil((hi[3] - lo[3]) / (1.0 / 3.0))) + 1, 64))
    rest = max(1, grid_budget // max(n_bfar, 1))
    # split the remaining factor over the three slow axes
    n_tabs = max(1, min(2, rest))
    rest //= n_tabs
    n_tfar = max(1, min(7, rest))
    rest //= n_tfar
    n_babs = max(1, min(2, rest))
    return [axis(0, n_tabs), axis(1, n_tfar), axis(2, n_babs), axis(3, n_bfar)]


class _Budget(Exception):
    """Raised in place of evaluation maxfev + 1."""


# Nelder-Mead stops once every vertex (unit-box coordinates) and every value
# is this close to the best
XATOL = 1e-6
FATOL = 1e-10


def minimize(fun, simplex, maxfev: int):
    """SciPy's non-adaptive, unbounded Nelder-Mead, step for step in NumPy:
    importing scipy.optimize took 0.6 s, half of an optimize run.  The tests
    hold it to scipy.optimize.minimize as the oracle: the same points in the
    same order from the same initial simplex, cut after maxfev evaluations
    (even inside the initial simplex or a shrink), stopped when every vertex
    is within XATOL and every value within FATOL of the best.  Returns the
    best vertex and its value.

    optimize() looks this name up at call time, so replacing the module
    attribute sees every restart.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Budget
        calls += 1
        return fun(np.copy(x))

    def sort():
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Budget:
        pass
    sim, fsim = sort()
    try:
        while calls < maxfev:
            if (np.max(np.abs(sim[1:] - sim[0])) <= XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract: outside the simplex if xr beats the worst vertex
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            sim, fsim = sort()
    except _Budget:
        sim, fsim = sort()
    return sim[0], fsim[0]


def optimize(box: ParamBox | None = None, spec: FomSpec | None = None,
             budget: int = 2000, seed: int = 0, restarts: int = 3,
             objective_fn=None,
             cells: tuple[CellConfig, CellConfig] = _REFERENCE_CELLS) -> OptimizeResult:
    """Grid scan plus Nelder-Mead refinement inside the box.

    cells are the (absorption, faraday) templates the searched temperatures
    and fields are set in (see build_cells).

    objective_fn(x: ndarray[4]) -> float, x in ChainParams order and units, is
    a test seam replacing the physical objective; the default maximizes score().objective.  The returned best
    point is the argmax over the full evaluation trace, so reported results
    never regress below any evaluated point (including the reference preset,
    scanned first whenever it lies inside the box).
    """
    box = box or ParamBox()
    spec = spec or FomSpec()
    if budget < 100:
        raise ConfigError([f"optimizer budget must be >= 100, got {budget}"])
    rng = np.random.default_rng(seed)
    t_start = time.perf_counter()

    physical = objective_fn is None
    if physical:
        def objective_fn(x):
            return score(ChainParams.from_array(x), spec, cells).objective

    lo, hi = box.lower(), box.upper()
    span = hi - lo
    trace: list[tuple[np.ndarray, float]] = []

    def evaluate(x) -> float:
        x = np.clip(np.asarray(x, dtype=float), lo, hi)
        val = float(objective_fn(x))
        if not math.isfinite(val):
            raise NumericalError(f"objective returned non-finite value at {x.tolist()}")
        trace.append((x.copy(), val))
        return val

    if box.contains(PAPER_OPTIMUM):
        evaluate(PAPER_OPTIMUM)

    nm_share = max(60 * restarts, budget // 5)
    grid_budget = max(1, budget - nm_share - len(trace))
    axes = _grid_axes(lo, hi, grid_budget)
    for combo in itertools.product(*axes):
        if len(trace) >= budget - nm_share:
            break
        evaluate(np.array(combo))

    # restart points: best distinct grid cells
    order = sorted(range(len(trace)), key=lambda i: -trace[i][1])
    starts: list[np.ndarray] = []
    for i in order:
        x = trace[i][0]
        if all(np.linalg.norm((x - s) / (span + 1e-300)) > 0.02 for s in starts):
            starts.append(x)
        if len(starts) >= restarts:
            break
    while len(starts) < restarts:
        starts.append(lo + rng.random(len(box)) * span)

    scale = np.where(span > 0, span, 1.0)
    per_restart = max(30, (budget - len(trace)) // max(len(starts), 1))
    for x0 in starts:
        if len(trace) >= budget:
            break
        u0 = (x0 - lo) / scale
        minimize(lambda u: -evaluate(lo + u * scale), initial_simplex(u0, 0.05),
                 min(per_restart, budget - len(trace)))

    best_i = max(range(len(trace)), key=lambda i: trace[i][1])
    best_x, best_val = trace[best_i]
    best_params = ChainParams.from_array(best_x)  # evaluate stored it clipped
    if physical:
        fom = score(best_params, spec, cells)
    else:
        fom = FigureOfMerit(best_val, {}, {})
    return OptimizeResult(
        best_params=best_params,
        best_objective=best_val,
        best_fom=fom,
        trace=trace,
        n_evaluations=len(trace),
        wall_time_s=time.perf_counter() - t_start,
    )


def initial_simplex(u0: np.ndarray, step: float) -> np.ndarray:
    """Nelder-Mead start simplex in unit-box coordinates: u0 plus one vertex per
    axis, stepped by +step (or -step where that would leave [0, 1])."""
    n = u0.size
    simplex = np.tile(u0, (n + 1, 1))
    for k in range(n):
        simplex[k + 1, k] = min(max(u0[k] + step, 0.0), 1.0)
        if simplex[k + 1, k] == u0[k]:
            simplex[k + 1, k] = max(u0[k] - step, 0.0)
    return simplex
