"""Spectrum fitting: validation, round trips, and degeneracy detection."""

from dataclasses import replace

import numpy as np
import pytest

import rbfilter.fitting
from rbfilter.errors import ConfigError, DataError
from rbfilter.fitting import (
    FIT_PARAM_RANGES,
    MeasuredSpectrum,
    fit_spectrum,
    model_transmission,
)
from rbfilter.lineshape import LONGITUDINAL, TRANSVERSE, CellConfig
from rbfilter.optimize import PAPER_OPTIMUM, build_cells

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


def test_fit_rejects_empty_free_set(truth):
    meas = MeasuredSpectrum(GRID, truth)
    with pytest.raises(ConfigError):
        fit_spectrum(meas, [], {}, TEMPLATE)


def test_fit_rejects_unknown_parameter(truth):
    meas = MeasuredSpectrum(GRID, truth)
    with pytest.raises(ConfigError, match="unknown free parameter"):
        fit_spectrum(meas, ["pressure_pa"], {"pressure_pa": 1.0}, TEMPLATE)


def test_fit_rejects_missing_or_out_of_range_initial(truth):
    meas = MeasuredSpectrum(GRID, truth)
    with pytest.raises(ConfigError, match="no initial value"):
        fit_spectrum(meas, ["temperature_c"], {}, TEMPLATE)
    lo, hi = FIT_PARAM_RANGES["temperature_c"]
    for bad in (hi + 10.0, float("nan")):
        with pytest.raises(ConfigError, match="outside range"):
            fit_spectrum(meas, ["temperature_c"], {"temperature_c": bad}, TEMPLATE)


def test_fit_rejects_short_spectra(truth):
    short = MeasuredSpectrum(GRID[:20], truth[:20])
    with pytest.raises(DataError, match="rows"):
        fit_spectrum(short, ["temperature_c"], {"temperature_c": 95.0}, TEMPLATE)


# ------------------------------------------------------------ round trips

def test_noiseless_single_parameter_round_trip(truth):
    meas = MeasuredSpectrum(GRID, truth)
    result = fit_spectrum(meas, ["temperature_c"], {"temperature_c": 95.0}, TEMPLATE)
    assert result.params["temperature_c"] == pytest.approx(100.0, abs=0.01)
    assert result.rms < 1e-6
    assert not result.degenerate
    assert result.covariance is not None
    assert result.covariance[0, 0] >= 0.0
    assert result.n_evaluations >= 10


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
    rng = np.random.default_rng(8)
    noisy = np.clip(truth + rng.normal(0.0, 0.01, truth.size), 0.0, 1.0)
    meas = MeasuredSpectrum(GRID, noisy)
    result = fit_spectrum(meas, ["temperature_c"], {"temperature_c": 95.0}, TEMPLATE)
    assert result.params["temperature_c"] == pytest.approx(100.0, abs=0.5)
    # residual rms is set by the injected noise, not by model error
    assert result.rms == pytest.approx(0.01, rel=0.3)


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

    def capture(cell, grid):
        seen.append(cell)
        raise Stop

    monkeypatch.setattr(rbfilter.fitting, "model_transmission", capture)
    with pytest.raises(Stop):
        fit_spectrum(MeasuredSpectrum(GRID, truth), ["temperature_c"], {"temperature_c": 95.0})
    reference = build_cells(PAPER_OPTIMUM)[0]
    # every field but the free temperature and the name comes from the template
    assert replace(seen[0], temperature_k=reference.temperature_k) == replace(reference, name="fit")
