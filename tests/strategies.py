"""Hypothesis strategies, drawn models and checks shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from rbfilter.lineshape import CELL_KEYS, CellConfig, with_keys
from rbfilter.photon_stats import NoiseModel


@st.composite
def cell_configs(draw, geometry):
    """A cell of the given geometry with every CELL_KEYS value drawn from its range."""
    values = {name: draw(st.floats(key.lo, key.hi)) for name, key in CELL_KEYS.items()
              if not key.choices and name != "rb87_fraction"}
    values["rb87_fraction"] = draw(st.floats(0.0, 1.0 - values["rb85_fraction"]))
    return with_keys(CellConfig(geometry=geometry), **values)


def criterion_07_model(rng) -> NoiseModel:
    """A noise model drawn from acceptance criterion 07's ranges."""
    return NoiseModel(
        n_sig=float(rng.uniform(0.05, 1.0)),
        eta_s=float(rng.uniform(0.1, 0.9)),
        eta_as=float(rng.uniform(0.1, 0.9)),
        b_fluorescence=float(rng.uniform(0.0, 0.8)),
        b_leakage=float(rng.uniform(0.0, 0.8)),
        intensifier_per_frame=float(rng.uniform(0.0, 3.0)),
    )


def frame_arrays_held(batch) -> list:
    """The arrays with one row per frame that a CountsBatch holds, directly or
    in a tuple."""
    held = list(vars(batch).values())
    held += [item for value in held if isinstance(value, tuple) for item in value]
    return [a for a in held if isinstance(a, np.ndarray) and a.shape[0] == batch.n_frames]
