"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from rbfilter.lineshape import CELL_KEYS, CellConfig


@st.composite
def cell_configs(draw, geometry):
    """A cell of the given geometry with every CELL_KEYS value drawn from its range."""
    values = {name: draw(st.floats(key.lo, key.hi)) for name, key in CELL_KEYS.items()
              if not key.choices and name != "rb87_fraction"}
    values["rb87_fraction"] = draw(st.floats(0.0, 1.0 - values["rb85_fraction"]))
    return CellConfig(geometry=geometry,
                      **{CELL_KEYS[name].field: CELL_KEYS[name].to_field(x)
                         for name, x in values.items()})
