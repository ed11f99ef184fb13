"""Spectrum fitting: validation, round trips, and degeneracy detection."""

from dataclasses import replace

import numpy as np
import pytest

import rbfilter.fitting
from rbfilter.errors import ConfigError, DataError
from rbfilter.fitting import (
    FIT_PARAM_RANGES,
    MeasuredSpectrum,
    _levenberg_marquardt,
    fit_spectrum,
    model_transmission,
)
from rbfilter.lineshape import CELL_KEYS, LONGITUDINAL, TRANSVERSE, CellConfig
from rbfilter.optimize import PAPER_OPTIMUM, build_cells

from oracles import covariance_central_differences, least_squares_dogbox

GRID = np.linspace(-12.0, 12.0, 201)
TEMPLATE = CellConfig(
    name="fit",
    length_m=0.30,
    temperature_k=373.15,
    b_field_t=1.0e-2,
    geometry=TRANSVERSE,
    rb85_fraction=0.985,
    rb87_fraction=0.015,
)


@pytest.fixture(scope="module")
def truth():
    return model_transmission(TEMPLATE, GRID)


@pytest.fixture
def model_calls(monkeypatch):
    """Counts every call the fit makes to the model."""
    calls = []

    def counted(cell, grid, extinction=0.0):
        calls.append(cell)
        return model_transmission(cell, grid, extinction)

    monkeypatch.setattr(rbfilter.fitting, "model_transmission", counted)
    return calls


def _noisy(truth):
    rng = np.random.default_rng(8)
    return np.clip(truth + rng.normal(0.0, 0.01, truth.size), 0.0, 1.0)


# ------------------------------------------------------------ validation

def test_measured_spectrum_validation():
    with pytest.raises(DataError):
        MeasuredSpectrum(np.array([0.0]), np.array([0.5]))          # too short
    with pytest.raises(DataError):
        MeasuredSpectrum(np.array([0.0, 1.0]), np.array([0.5]))    # shape mismatch
    with pytest.raises(DataError):
        MeasuredSpectrum(np.array([0.0, np.nan]), np.array([0.5, 0.5]))
    with pytest.raises(DataError):
        MeasuredSpectrum(np.array([1.0, 0.0]), np.array([0.5, 0.5]))  # not increasing
    with pytest.raises(DataError):
        MeasuredSpectrum(np.array([0.0, 1.0]), np.array([0.5, 1.2]))  # above bound
    with pytest.raises(DataError):
        MeasuredSpectrum(np.array([0.0, 1.0]), np.array([-0.1, 0.5]))


def test_fit_parameters_are_cell_keys_over_their_config_ranges():
    for name, bounds in FIT_PARAM_RANGES.items():
        assert bounds == (CELL_KEYS[name].lo, CELL_KEYS[name].hi)


def test_fit_rejects_empty_free_set(truth):
    meas = MeasuredSpectrum(GRID, truth)
    with pytest.raises(ConfigError):
        fit_spectrum(meas, [], {}, TEMPLATE)


def test_fit_rejects_unknown_parameter(truth):
    meas = MeasuredSpectrum(GRID, truth)
    with pytest.raises(ConfigError, match="unknown free parameter"):
        fit_spectrum(meas, ["pressure_pa"], {"pressure_pa": 1.0}, TEMPLATE)


def test_fit_rejects_a_free_parameter_listed_twice(truth):
    meas = MeasuredSpectrum(GRID, truth)
    with pytest.raises(ConfigError) as info:
        fit_spectrum(meas, ["temperature_c", "b_field_mt", "temperature_c"],
                     {"temperature_c": 95.0, "b_field_mt": 10.0}, TEMPLATE)
    assert info.value.errors == ["fit: free parameter 'temperature_c' listed more than once"]


def test_fit_rejects_missing_or_out_of_range_initial(truth):
    meas = MeasuredSpectrum(GRID, truth)
    with pytest.raises(ConfigError, match="no initial value"):
        fit_spectrum(meas, ["temperature_c"], {}, TEMPLATE)
    lo, hi = FIT_PARAM_RANGES["temperature_c"]
    for bad in (hi + 10.0, float("nan")):
        with pytest.raises(ConfigError, match="outside range"):
            fit_spectrum(meas, ["temperature_c"], {"temperature_c": bad}, TEMPLATE)


def test_fit_bounds_a_freed_rb87_fraction_by_the_template_rb85(truth, model_calls):
    """The template's 98.5 % Rb85 leaves at most 1.5 % for Rb87: a start past
    that is rejected, and no evaluated cell's fractions sum past the 1 a
    config's cell may reach."""
    meas = MeasuredSpectrum(GRID, truth)
    with pytest.raises(ConfigError) as info:
        fit_spectrum(meas, ["rb87_fraction"], {"rb87_fraction": 0.9}, TEMPLATE)
    assert info.value.errors == [
        f"fit: initial rb87_fraction=0.9 outside range (0.0, {1.0 - 0.985})"]
    result = fit_spectrum(meas, ["rb87_fraction"], {"rb87_fraction": 0.005}, TEMPLATE)
    assert result.params["rb87_fraction"] == pytest.approx(0.015, rel=1e-6)
    assert all(cell.rb85_fraction + cell.rb87_fraction <= 1.0 + 1e-12 for cell in model_calls)


def test_fit_rejects_rb87_fraction_with_no_range(truth):
    """At rb85_fraction 1 a freed rb87_fraction spans nothing, and the unit-box
    mapping would divide by that zero span."""
    pure_rb85 = replace(TEMPLATE, rb85_fraction=1.0, rb87_fraction=0.0)
    with pytest.raises(ConfigError) as info:
        fit_spectrum(MeasuredSpectrum(GRID, truth), ["rb87_fraction"], {"rb87_fraction": 0.0},
                     pure_rb85)
    assert info.value.errors == ["fit: rb87_fraction has no range: rb85_fraction is 1.0"]


def test_fit_rejects_an_initial_value_for_a_parameter_not_free(truth):
    meas = MeasuredSpectrum(GRID, truth)
    with pytest.raises(ConfigError) as info:
        fit_spectrum(meas, ["temperature_c"],
                     {"temperature_c": 98.0, "b_field_mt": 12.0, "length_m": 0.3}, TEMPLATE)
    assert info.value.errors == ["fit: initial value for 'b_field_mt', which is not free",
                                 "fit: initial value for 'length_m', which is not free"]


def test_fit_rejects_short_spectra(truth):
    short = MeasuredSpectrum(GRID[:20], truth[:20])
    with pytest.raises(DataError, match="rows"):
        fit_spectrum(short, ["temperature_c"], {"temperature_c": 95.0}, TEMPLATE)


# ------------------------------------------------------------ round trips

def test_noiseless_single_parameter_round_trip(truth, model_calls):
    meas = MeasuredSpectrum(GRID, truth)
    result = fit_spectrum(meas, ["temperature_c"], {"temperature_c": 95.0}, TEMPLATE)
    assert result.params["temperature_c"] == pytest.approx(100.0, abs=0.01)
    assert result.rms < 1e-6
    assert not result.degenerate
    assert result.covariance is not None
    assert result.covariance[0, 0] >= 0.0
    assert result.n_evaluations == len(model_calls)


def test_noiseless_two_parameter_round_trip(truth):
    meas = MeasuredSpectrum(GRID, truth)
    result = fit_spectrum(
        meas,
        ["temperature_c", "b_field_mt"],
        {"temperature_c": 96.0, "b_field_mt": 12.0},
        TEMPLATE,
    )
    assert result.params["temperature_c"] == pytest.approx(100.0, abs=0.05)
    assert result.params["b_field_mt"] == pytest.approx(10.0, abs=0.05)
    assert result.rms < 1e-6
    assert not result.degenerate


def test_noisy_round_trip_stays_close(truth):
    meas = MeasuredSpectrum(GRID, _noisy(truth))
    result = fit_spectrum(meas, ["temperature_c"], {"temperature_c": 95.0}, TEMPLATE)
    assert result.params["temperature_c"] == pytest.approx(100.0, abs=0.5)
    # residual rms is set by the injected noise, not by model error
    assert result.rms == pytest.approx(0.01, rel=0.3)


@pytest.mark.parametrize("initial", [
    {"temperature_c": 20.0},                        # on the temperature range bound
    {"temperature_c": 20.0, "b_field_mt": 0.0},     # on both range bounds
    {"temperature_c": 60.0, "b_field_mt": 100.0},   # past a local minimum near 63 C, 127 mT
    pytest.param({"temperature_c": 140.0, "b_field_mt": 300.0}, marks=pytest.mark.xfail(
        strict=True, reason="stops in the local minimum near 62.8 C, 127.4 mT with rms 0.226; "
                            "ROADMAP item 'A fit that scans its box before it refines'")),
])
def test_round_trip_from_a_range_bound_or_far_start(truth, initial):
    result = fit_spectrum(MeasuredSpectrum(GRID, truth), list(initial), initial, TEMPLATE)
    assert result.params["temperature_c"] == pytest.approx(100.0, abs=0.01)
    if "b_field_mt" in result.params:
        assert result.params["b_field_mt"] == pytest.approx(10.0, abs=0.05)
    assert result.rms < 1e-6
    assert not result.degenerate


@pytest.mark.parametrize("noisy, initial", [
    (False, {"temperature_c": 96.0, "b_field_mt": 12.0}),        # criterion 10, noiseless
    (True, {"temperature_c": 95.0}),                             # criterion 10, 1 % noise
    (True, {"temperature_c": 140.0}),                            # on the upper range bound
    (True, {"temperature_c": 96.0, "b_field_mt": 12.0, "rb87_fraction": 0.012, "length_cm": 28.0}),
])
def test_levenberg_marquardt_matches_dogbox(monkeypatch, truth, noisy, initial):
    """The fit's own solver against SciPy's least_squares(method="dogbox"), its
    oracle: values within 1e-5 relative and, where noise sets the residual,
    the covariance within 1e-3 (noiseless, it is round-off)."""
    meas = MeasuredSpectrum(GRID, _noisy(truth) if noisy else truth)
    result = fit_spectrum(meas, list(initial), initial, TEMPLATE)
    monkeypatch.setattr(rbfilter.fitting, "_levenberg_marquardt", least_squares_dogbox)
    reference = fit_spectrum(meas, list(initial), initial, TEMPLATE)
    assert result.params == pytest.approx(reference.params, rel=1e-5)
    assert result.degenerate is reference.degenerate is False
    if noisy:
        np.testing.assert_allclose(result.covariance, reference.covariance, rtol=1e-3)
        assert result.rms == pytest.approx(reference.rms, rel=1e-6)


def test_levenberg_marquardt_returns_the_jacobian_at_its_point():
    """J comes back evaluated at the returned u even when the stop rule fires
    on a long step: a constant residual of 1e3 dwarfs the model term, so the
    last step, about 1e-2 long, lowers the cost by less than 1e-8 of it."""
    def residuals(u):
        return np.array([1e3, u[0] ** 2 - 0.25])

    u, r, jac = _levenberg_marquardt(residuals, np.array([1.0]))
    assert u[0] == pytest.approx(0.5, abs=1e-3)
    np.testing.assert_array_equal(r, residuals(u))
    np.testing.assert_allclose(jac, [[0.0], [2.0 * u[0]]], atol=1e-6)


def test_levenberg_marquardt_holds_a_parameter_on_its_bound():
    """The unbounded least-squares point (1.2, 0.9) lies past u0 = 1; on that
    bound the best u1 is 0.94.  Clipping the Gauss-Newton step would stop at
    (1, 0.9), where the step points straight out of the box."""
    def residuals(u):
        return np.array([u[0] + 2.0 * u[1] - 3.0, u[0] - u[1] - 0.3])

    u, _, _ = _levenberg_marquardt(residuals, np.array([0.5, 0.5]))
    np.testing.assert_allclose(u, [1.0, 0.94], atol=1e-6)


def test_every_model_evaluation_is_counted(truth, model_calls):
    free = ["temperature_c", "b_field_mt", "rb87_fraction", "length_cm"]
    initial = {"temperature_c": 96.0, "b_field_mt": 12.0, "rb87_fraction": 0.012, "length_cm": 28.0}
    result = fit_spectrum(MeasuredSpectrum(GRID, truth), free, initial, TEMPLATE)
    assert result.n_evaluations == len(model_calls)
    assert result.params == pytest.approx(
        {"temperature_c": 100.0, "b_field_mt": 10.0, "rb87_fraction": 0.015, "length_cm": 30.0},
        rel=1e-6)
    assert not result.degenerate


@pytest.mark.parametrize("initial", [
    {"temperature_c": 95.0},
    {"temperature_c": 96.0, "b_field_mt": 12.0},
])
def test_covariance_matches_central_difference_reference(truth, initial):
    meas = MeasuredSpectrum(GRID, _noisy(truth))
    result = fit_spectrum(meas, list(initial), initial, TEMPLATE)

    def residuals(x):
        values = dict(zip(result.params, x))
        cell = replace(TEMPLATE, temperature_k=273.15 + values["temperature_c"],
                       b_field_t=1e-3 * values.get("b_field_mt", 10.0))
        return model_transmission(cell, GRID) - meas.transmission

    x = np.array(list(result.params.values()))
    ranges = np.array([FIT_PARAM_RANGES[name] for name in result.params])
    reference = covariance_central_differences(residuals, x, ranges[:, 1] - ranges[:, 0])
    assert result.covariance is not None
    np.testing.assert_allclose(result.covariance, reference, rtol=1e-3)


def test_invisible_parameter_marked_degenerate():
    # crossed Faraday cell at zero field: no rotation for any isotope mix,
    # so the residual fraction cannot be inferred from the (dark) output
    cell = CellConfig(name="far0", length_m=0.30, temperature_k=341.15,
                      b_field_t=0.0, geometry=LONGITUDINAL,
                      rb85_fraction=0.0, rb87_fraction=1.0)
    meas = MeasuredSpectrum(GRID, np.zeros_like(GRID))
    result = fit_spectrum(meas, ["rb87_fraction"], {"rb87_fraction": 0.5}, cell)
    assert result.degenerate


def test_model_transmission_dispatches_on_geometry():
    faraday = CellConfig(name="f", length_m=0.30, temperature_k=375.15,
                         b_field_t=1.0e-2, geometry=LONGITUDINAL,
                         rb85_fraction=0.0, rb87_fraction=1.0)
    t_far = model_transmission(faraday, GRID)
    t_abs = model_transmission(TEMPLATE, GRID)
    assert t_far.shape == GRID.shape and t_abs.shape == GRID.shape
    assert np.all((t_far >= 0) & (t_far <= 1 + 1e-12))
    # the absorption cell passes far wings; the crossed Faraday cell blocks them
    assert t_abs[0] > 0.9
    assert t_far[0] < 0.1


def test_default_template_is_the_reference_absorption_cell(monkeypatch, truth):
    seen = []

    class Stop(Exception):
        pass

    def capture(cell, grid, extinction=0.0):
        seen.append(cell)
        raise Stop

    monkeypatch.setattr(rbfilter.fitting, "model_transmission", capture)
    with pytest.raises(Stop):
        fit_spectrum(MeasuredSpectrum(GRID, truth), ["temperature_c"], {"temperature_c": 95.0})
    reference = build_cells(PAPER_OPTIMUM)[0]
    # every field but the free temperature and the name comes from the template
    assert replace(seen[0], temperature_k=reference.temperature_k) == replace(reference, name="fit")
