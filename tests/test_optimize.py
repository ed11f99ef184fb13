"""Figure-of-merit scoring and the operating-point search."""

import inspect
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbfilter.config import validate_config
from rbfilter.errors import ConfigError, NumericalError
from rbfilter.lineshape import LONGITUDINAL, TRANSVERSE
from rbfilter.optimize import (
    OPERATING_KEYS,
    PAPER_OPTIMUM,
    ChainParams,
    FomSpec,
    ParamBox,
    build_cells,
    optimize,
    score,
)
from rbfilter.propagation import dual_filter

from oracles import scipy_nelder_mead
from strategies import cell_configs


def test_reference_point_lands_in_both_signal_windows():
    fom = score(PAPER_OPTIMUM)
    t_s = fom.signal_transmissions[-2.3]
    t_as = fom.signal_transmissions[7.8]
    assert 0.5 <= t_s <= 0.8
    assert 0.25 <= t_as <= 0.55
    assert fom.objective == pytest.approx(min(t_s, t_as))
    assert all(s >= 100.0 for s in fom.noise_suppressions_db.values())


def test_shortfall_penalty_branch():
    # a cold, nearly transparent chain leaves only the polarizer extinction;
    # against a demanding 150 dB requirement that is a large shortfall
    spec = FomSpec(min_suppression_db=150.0)
    fom = score(ChainParams(20.0, 20.0, 1.0, 1.0), spec)
    assert fom.objective < 0.0
    assert all(s < 150.0 for s in fom.noise_suppressions_db.values())
    expected = -sum(max(0.0, 150.0 - s) for s in fom.noise_suppressions_db.values())
    assert fom.objective == pytest.approx(expected, rel=1e-12)


def test_raising_absorption_temperature_cuts_anti_stokes():
    temps = [100.0, 110.0, 120.0, 130.0]
    t_as = [score(ChainParams(t, 102.0, 10.0, 10.0)).signal_transmissions[7.8]
            for t in temps]
    assert all(a > b for a, b in zip(t_as, t_as[1:]))


def test_score_deterministic():
    p = ChainParams(95.0, 80.0, 8.0, 6.0)
    a = score(p)
    b = score(p)
    assert a.objective == b.objective
    assert a.signal_transmissions == b.signal_transmissions


def test_score_builds_chain_with_spec_extinction():
    """The config's chain.wollaston_extinction reaches the chain polarizers."""
    spec = FomSpec(wollaston_extinction=1e-2)
    absorption, faraday = build_cells(PAPER_OPTIMUM)
    expected = dual_filter(absorption, faraday, extinction=1e-2).transmission(np.array([7.8]))[0]
    got = score(PAPER_OPTIMUM, spec).signal_transmissions[7.8]
    assert got == pytest.approx(expected, rel=1e-12)
    assert got != pytest.approx(score(PAPER_OPTIMUM).signal_transmissions[7.8], rel=1e-4)


def test_build_cells_geometries():
    absorption, faraday = build_cells(PAPER_OPTIMUM)
    assert absorption.geometry == "transverse"
    assert faraday.geometry == "longitudinal"
    assert absorption.rb85_fraction > 0.9
    assert faraday.rb87_fraction == 1.0
    assert absorption.temperature_k == pytest.approx(373.15)


def test_fom_spec_validation():
    with pytest.raises(ConfigError):
        FomSpec(signal_detunings_ghz=(1.0,))
    with pytest.raises(ConfigError):
        FomSpec(min_suppression_db=-5.0)
    with pytest.raises(ConfigError):
        FomSpec(wollaston_extinction=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(FomSpec)])
def test_fom_spec_rejects_nan_and_infinities(name, value):
    """A NaN suppression bar would drop the constraint; an infinite one scores -inf."""
    default = getattr(FomSpec(), name)
    with pytest.raises(ConfigError):
        FomSpec(**{name: (value, default[1]) if isinstance(default, tuple) else value})


def test_param_box_validation():
    """A box is checked however it is built: by the constructor, by _make, or
    by _replace, which builds through _make."""
    for build in (lambda **ranges: ParamBox(**ranges),
                  lambda **ranges: ParamBox._make({**ParamBox()._asdict(), **ranges}.values()),
                  lambda **ranges: ParamBox()._replace(**ranges)):
        with pytest.raises(ConfigError):
            build(t_abs_c=(120.0, 90.0))
        with pytest.raises(ConfigError):
            build(b_far_mt=(0.0, float("inf")))
        with pytest.raises(ConfigError, match=r"box.t_abs_c: \(0.0, 400.0\)"):
            build(t_abs_c=(0.0, 400.0))  # past the vapor-pressure formula's domain
        with pytest.raises(ConfigError, match=r"box.b_far_mt: \(0.0, 500.0\)"):
            build(b_far_mt=(0.0, 500.0))
        build(t_abs_c=(20.0, 140.0), b_far_mt=(0.0, 300.0))  # the cell table's bounds
        assert build() == ParamBox()
    assert ParamBox().contains(PAPER_OPTIMUM)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_operating_keys_are_the_one_table(data):
    """The config's box is ParamBox(**box), and build_cells sets exactly the
    mapped cell fields, each to key.to_field(value)."""
    box = {name: tuple(sorted(data.draw(st.lists(st.floats(key.lo, key.hi), min_size=2,
                                                 max_size=2))))
           for name, (_, key, _) in OPERATING_KEYS.items()}
    assert validate_config({"optimizer": {"box": box}}).optimizer_box == ParamBox(**box)

    p = ChainParams(**{name: data.draw(st.floats(*pair)) for name, pair in ParamBox()._asdict().items()})
    templates = inspect.signature(build_cells).parameters["cells"].default
    built = build_cells(p)
    for i, (cell, template) in enumerate(zip(built, templates)):
        mapped = {key.field: key.to_field(getattr(p, name))
                  for name, (j, key, _) in OPERATING_KEYS.items() if j == i}
        assert mapped.keys() == {"temperature_k", "b_field_t"}
        assert asdict(cell) == {**asdict(template), **mapped}


def test_optimize_budget_too_small():
    with pytest.raises(ConfigError):
        optimize(ParamBox(), budget=50)


def test_optimize_raises_on_a_non_finite_objective():
    with pytest.raises(NumericalError, match="non-finite"):
        optimize(ParamBox(), budget=100, objective_fn=lambda x: math.nan)


def test_optimize_collapsed_box_returns_the_point():
    p = ChainParams(100.0, 102.0, 10.0, 10.0)
    box = ParamBox(t_abs_c=(100.0, 100.0), t_far_c=(102.0, 102.0),
                   b_abs_mt=(10.0, 10.0), b_far_mt=(10.0, 10.0))
    result = optimize(box, budget=150, seed=1)
    assert result.best_params == p
    assert result.best_objective == pytest.approx(score(p).objective, rel=1e-12)


def test_optimize_quadratic_seam_converges():
    """Injected concave quadratic: the search nails the analytic maximum."""
    center = np.array([104.0, 88.0, 12.0, 7.5])
    box = ParamBox()
    span = box.upper() - box.lower()

    def quadratic(x: np.ndarray) -> float:
        u = (x - center) / span
        return 1.0 - float(u @ u)

    result = optimize(box, budget=1500, seed=3, objective_fn=quadratic)
    u_err = np.abs((np.array(result.best_params) - center) / span)
    assert np.all(u_err < 1e-4)
    assert result.best_objective == pytest.approx(1.0, abs=1e-8)
    assert result.n_evaluations <= 1500


def test_optimize_trace_stays_in_box():
    box = ParamBox()

    def cheap(x: np.ndarray) -> float:
        return -abs(float(x[0]) - 100.0)

    result = optimize(box, budget=300, seed=0, objective_fn=cheap)
    assert 100 <= len(result.trace) <= 300
    lower, upper = box.lower(), box.upper()
    for x, value in result.trace:
        assert np.all(x >= lower - 1e-9) and np.all(x <= upper + 1e-9)
        assert np.isfinite(value)
    values = [v for _, v in result.trace]
    assert result.best_objective == pytest.approx(max(values))


def test_optimize_looks_up_minimize_at_call_time(monkeypatch):
    """A replaced rbfilter.optimize.minimize runs every restart (tracers rely on it)."""
    import rbfilter.optimize as module
    calls = []
    real = module.minimize

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "minimize", counting)
    optimize(ParamBox(), budget=300, seed=0, restarts=3,
             objective_fn=lambda x: -abs(float(x[0]) - 100.0))
    assert len(calls) == 3


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def test_minimize_matches_scipy_nelder_mead():
    """Every point and value of optimize.minimize equals SciPy's Nelder-Mead,
    bit for bit, in order; run with -s to print the count compared.

    Rosenbrock from a 4-D simplex converges on xatol and fatol, and a maxfev
    of 3 cuts it inside the initial simplex.  On a constant objective every
    contraction fails, so each iteration is a reflection, a contraction and a
    shrink of n points: maxfev 9 cuts the first shrink after two of its four
    points.  Both share values, so the unstable argsort orders ties as in
    SciPy.  A quantized bowl, cut at every maxfev up to 80, puts the cut at
    each kind of step.
    """
    import rbfilter.optimize as module

    start = np.array([0.1, 0.7, 0.4, 0.95])
    simplex = module.initial_simplex(start, 0.05)
    runs = [(_rosenbrock, simplex, 4000), (_rosenbrock, simplex, 3),
            (lambda x: 1.0, simplex, 9)]
    runs += [(lambda x: float(np.round(10.0 * (x - 0.3) @ (x - 0.3))), simplex, m)
             for m in range(1, 81)]
    counts = []
    for fun, sim, maxfev in runs:
        want_x, want_f, ref = scipy_nelder_mead(fun, sim, maxfev=maxfev,
                                                xatol=module.XATOL, fatol=module.FATOL)
        got_x, got_f = [], []

        def recorded(x):
            got_x.append(x.copy())
            got_f.append(fun(x))
            return got_f[-1]

        best_x, best_f = module.minimize(recorded, sim, maxfev)
        assert np.array_equal(np.array(got_x), np.array(want_x)) and got_f == want_f, maxfev
        assert np.array_equal(best_x, ref.x) and best_f == ref.fun
        counts.append(len(want_x))
    assert counts[0] < runs[0][2]  # converged, not cut
    print(f"nelder-mead vs scipy: {sum(counts)} evaluations compared over {len(runs)} runs, identical")


def test_package_attribute_optimize_is_the_submodule():
    import rbfilter
    import rbfilter.optimize as module

    assert rbfilter.optimize is module
    assert module.build_cells is build_cells and module.optimize is optimize


def test_optimize_deterministic_given_seed():
    box = ParamBox()

    def bumpy(x: np.ndarray) -> float:
        return float(np.sin(x[0]) + np.cos(40 * x[1]) - x[2] * 10 + x[3])

    a = optimize(box, budget=400, seed=7, objective_fn=bumpy)
    b = optimize(box, budget=400, seed=7, objective_fn=bumpy)
    assert a.best_params == b.best_params
    assert a.best_objective == b.best_objective
    assert len(a.trace) == len(b.trace)


@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_physical_optimize_is_deterministic_on_drawn_cells_and_boxes(data, seed):
    """Two runs with the same box, cells and seed evaluate the same points in
    the same order, with the same values and the same best point."""
    box = ParamBox(**{name: tuple(sorted(data.draw(st.lists(st.floats(key.lo, key.hi),
                                                            min_size=2, max_size=2))))
                      for name, (_, key, _) in OPERATING_KEYS.items()})
    cells = (data.draw(cell_configs(TRANSVERSE)), data.draw(cell_configs(LONGITUDINAL)))
    a, b = (optimize(box, budget=100, seed=seed, cells=cells) for _ in range(2))
    assert [x.tolist() for x, _ in a.trace] == [x.tolist() for x, _ in b.trace]
    assert [v for _, v in a.trace] == [v for _, v in b.trace]
    assert a.best_params == b.best_params and a.best_objective == b.best_objective
    assert a.best_fom == b.best_fom
