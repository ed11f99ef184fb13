"""Magneto-optical Rb vapor filter toolkit.

Simulates magnetically broadened absorption filters and Faraday rotation
filters on the Rb D1 line, optimizes their joint operating point for
dual-channel noise suppression, and estimates the photon-correlation
recovery such filtering gives a warm-vapor quantum memory.
"""

__version__ = "0.1.0"

from .config import RunConfig, load_config, preset_paper_optimum
from .constants import DEFAULT_DETUNINGS, ISOTOPES, REFERENCE, vapor_pressure_pa
from .errors import ConfigError, DataError, NumericalError, RbFilterError
from .fitting import MeasuredSpectrum, fit_spectrum
from .lineshape import CellConfig, ComplexSpectrum, default_grid, susceptibility
# not the function optimize: rbfilter.optimize stays the submodule
from .optimize import ChainParams, FomSpec, ParamBox, build_cells, score
from .photon_stats import (
    NoiseModel,
    RegionLayout,
    analytic_pair_correlation,
    correlation_map,
    filtered_preset,
    simulate_frames,
    unfiltered_preset,
)
from .propagation import (
    FilterChain,
    absorption_transmission,
    dual_filter,
    faraday_rotation,
    faraday_transmission,
    jones_transfer,
    opaque_region_width,
    transmission_db,
)
from .zeeman import LineTable, build_hamiltonian, zeeman_lines
