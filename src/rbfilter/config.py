"""Run configuration: JSON schema, validation, presets, and hashing.

Config keys carry explicit unit suffixes (temperature_c, b_field_mt,
length_cm, polarization_angle_deg).  Every key and what it accepts is in
SCHEMA; a cell key's range and SI conversion is its entry in
lineshape.CELL_KEYS, which SCHEMA uses as is and with_keys applies; the search
box's keys and default ranges are optimize.OPERATING_KEYS, which ChainParams
and ParamBox are built from.  Validation is one walk over SCHEMA and is total:
every problem in the file is reported in one pass with its dotted key path,
and no partially built object escapes a failed load.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError
from .lineshape import CELL_KEYS, CellConfig, default_grid, with_keys
from .optimize import OPERATING_KEYS, PAPER_OPTIMUM, FomSpec, ParamBox, build_cells
from .photon_stats import NoiseModel, RegionLayout, filtered_preset, unfiltered_preset
from .propagation import WOLLASTON_EXTINCTION

# frames x n_regions bound: two int16 count arrays of 1e8 entries take 400 MB
MAX_COUNTS_PER_ARM = 10**8


@dataclass(frozen=True)
class Key:
    """What one non-cell config key accepts, read like lineshape.CellKey: a
    number in [lo, hi] (bounds included), an integer if integer, or one of
    choices."""

    lo: float | None = None
    hi: float | None = None
    integer: bool = False
    choices: tuple[str, ...] = ()


@dataclass(frozen=True)
class Pair:
    """Two numbers in [lo, hi]; if ordered, the first may not exceed the second."""

    lo: float
    hi: float
    ordered: bool = False


# Every key a run config accepts: section -> key -> what it accepts.  A key the
# preset (preset_paper_optimum) leaves out is optional: it is resolved only
# when given.  The only place a config key's name and range are written.
SCHEMA = {
    "seed": Key(0, 2**64 - 1, integer=True),
    "grid": {"points": Key(2, 10_000_000, integer=True),
             "lo_ghz": Key(-1e4, 1e4), "hi_ghz": Key(-1e4, 1e4)},
    "cells": {"absorption": CELL_KEYS, "faraday": CELL_KEYS},
    "chain": {"wollaston_extinction": Key(0.0, 0.999)},
    "fom": {"signal_detunings_ghz": Pair(-1e4, 1e4), "noise_detunings_ghz": Pair(-1e4, 1e4),
            "min_suppression_db": Key(1.0, 300.0)},
    "noise": {"preset": Key(choices=("filtered", "unfiltered", "custom")),
              "frames": Key(1, 10**8, integer=True), "n_regions": Key(1, 1000, integer=True),
              "n_sig": Key(0.0, 100.0), "eta_s": Key(0.0, 1.0), "eta_as": Key(0.0, 1.0),
              "b_fluorescence": Key(0.0, 1e3), "b_leakage": Key(0.0, 1e3),
              "intensifier_per_frame": Key(0.0, 1e4)},
    "optimizer": {"budget": Key(100, 10**7, integer=True), "restarts": Key(1, 20, integer=True),
                  "box": {name: Pair(key.lo, key.hi, ordered=True)
                          for name, (_, key, _) in OPERATING_KEYS.items()}},
}


def _cell_section(cell: CellConfig) -> dict:
    """A cell in config units; _cell converts it back exactly."""
    return {key.name: key.from_field(getattr(cell, key.field)) for key in CELL_KEYS.values()}


def preset_paper_optimum() -> dict:
    """Reference operating point: both filters on, Faraday cell at 102 C and
    10 mT, absorption cell at 100 C, signal detunings -2.3 / +7.8 GHz.

    Cells, chain, figure of merit and search box come from build_cells at
    PAPER_OPTIMUM and the FomSpec / ParamBox defaults."""
    absorption, faraday = build_cells(PAPER_OPTIMUM)
    fom, box = FomSpec(), ParamBox()
    return {
        "seed": 12345,
        "grid": {"points": 4001, "lo_ghz": -15.0, "hi_ghz": 15.0},
        "cells": {"absorption": _cell_section(absorption), "faraday": _cell_section(faraday)},
        "chain": {"wollaston_extinction": WOLLASTON_EXTINCTION},
        "fom": {
            "signal_detunings_ghz": list(fom.signal_detunings_ghz),
            "noise_detunings_ghz": list(fom.noise_detunings_ghz),
            "min_suppression_db": fom.min_suppression_db,
        },
        "noise": {
            "preset": "filtered",
            "frames": 100000,
            "n_regions": 10,
        },
        "optimizer": {
            "budget": 2000,
            "restarts": 3,
            "box": {name: list(pair) for name, pair in box._asdict().items()},
        },
    }


@dataclass
class RunConfig:
    seed: int
    grid_points: int
    grid_lo_ghz: float
    grid_hi_ghz: float
    cells: dict[str, CellConfig]
    wollaston_extinction: float
    fom: FomSpec
    noise: NoiseModel
    layout: RegionLayout
    frames: int
    optimizer_budget: int
    optimizer_restarts: int
    optimizer_box: ParamBox
    resolved: dict = field(repr=False, default_factory=dict)

    def grid(self) -> np.ndarray:
        return default_grid(self.grid_points, self.grid_lo_ghz, self.grid_hi_ghz)


# what a config key given an invalid value resolves to
_INVALID = object()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _number(v, leaf, path: str, errors: list[str], integer: bool = False) -> bool:
    """Check one number against leaf's range, appending any problem to errors."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.append(f"{path}: expected a number, got {type(v).__name__}")
    elif (isinstance(v, float) and not math.isfinite(v)
          or not integer and abs(v) > sys.float_info.max):  # an int past the float range
        errors.append(f"{path}: must be finite")
    elif integer and int(v) != v:
        errors.append(f"{path}: expected an integer, got {v}")
    elif not leaf.lo <= v <= leaf.hi:
        errors.append(f"{path}: value {v} outside valid range [{leaf.lo}, {leaf.hi}]")
    else:
        return True
    return False


def _valid(leaf, v, path: str, errors: list[str]) -> bool:
    """Check a given value against its schema leaf (a Key, a Pair or a
    lineshape.CellKey), appending each problem to errors."""
    n_errors = len(errors)
    if isinstance(leaf, Pair):
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            errors.append(f"{path}: expected a pair of numbers")
        elif all([_number(x, leaf, path, errors) for x in v]) and leaf.ordered and v[0] > v[1]:
            errors.append(f"{path}: lower bound {float(v[0])} exceeds upper bound {float(v[1])}")
    elif leaf.choices:
        if v not in leaf.choices:
            errors.append(f"{path}: must be one of {sorted(leaf.choices)}, got {v!r}")
    else:
        _number(v, leaf, path, errors, integer=isinstance(leaf, Key) and leaf.integer)
    return len(errors) == n_errors


def _walk(schema: dict, data, defaults: dict, path: str, errors: list[str]) -> dict:
    """Check one config section against its schema, appending each problem to
    errors under its dotted path, and return the section resolved: each valid
    given value, and the preset default for each key not given.  A key given an
    invalid value resolves to _INVALID, so that the cross-key rules read only
    values that validated.  Preset keys keep the preset's order; optional keys
    follow as given."""
    if not isinstance(data, dict):
        errors.append(f"{path}: expected an object, got {type(data).__name__}")
        data = {}
    errors += [f"{_join(path, key)}: unknown key" for key in data if key not in schema]
    out = {}
    for key, leaf in schema.items():
        if isinstance(leaf, dict):
            out[key] = _walk(leaf, data.get(key, {}), defaults[key], _join(path, key), errors)
        elif key in data:
            valid = _valid(leaf, data[key], _join(path, key), errors)
            out[key] = data[key] if valid else _INVALID
        elif key in defaults:
            out[key] = defaults[key]
    return {key: out[key] for key in [*defaults, *data] if key in out}


def _cell(name: str, section: dict) -> CellConfig:
    return with_keys(CellConfig(name=name), **{
        key.name: section[key.name] if key.choices else float(section[key.name])
        for key in CELL_KEYS.values()})


def _floats(pair) -> tuple[float, float]:
    return tuple(float(x) for x in pair)


def validate_config(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, reporting all problems."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])
    defaults = preset_paper_optimum()
    errors: list[str] = []
    resolved = _walk(SCHEMA, data, defaults, "", errors)

    grid, cells, noise = resolved["grid"], resolved["cells"], resolved["noise"]
    lo, hi = grid["lo_ghz"], grid["hi_ghz"]
    if _INVALID not in (lo, hi) and lo >= hi:
        errors.append(f"grid: lo_ghz {float(lo)} must be below hi_ghz {float(hi)}")
    for name, cell in cells.items():
        f85, f87 = cell["rb85_fraction"], cell["rb87_fraction"]
        if _INVALID not in (f85, f87) and float(f85) + float(f87) > 1.0 + 1e-12:
            errors.append(f"cells.{name}: rb85_fraction + rb87_fraction = "
                          f"{float(f85) + float(f87)} exceeds 1")
    frames, n_regions = noise["frames"], noise["n_regions"]
    if _INVALID not in (frames, n_regions) and int(frames) * int(n_regions) > MAX_COUNTS_PER_ARM:
        errors.append(f"noise.frames: frames x n_regions = {int(frames) * int(n_regions)} "
                      f"exceeds {MAX_COUNTS_PER_ARM} counts per arm")
    noise_fields = {key: v for key, v in noise.items() if key not in defaults["noise"]}
    if noise["preset"] == "custom" and not noise_fields:
        errors.append("noise: preset 'custom' requires explicit noise fields")
    if errors:
        raise ConfigError(errors)

    presets = {"filtered": filtered_preset, "unfiltered": unfiltered_preset}
    base = presets[noise["preset"]]()[0] if noise["preset"] in presets else NoiseModel()
    fom, optimizer = resolved["fom"], resolved["optimizer"]
    extinction = float(resolved["chain"]["wollaston_extinction"])
    return RunConfig(
        seed=int(resolved["seed"]),
        grid_points=int(grid["points"]),
        grid_lo_ghz=float(lo),
        grid_hi_ghz=float(hi),
        cells={name: _cell(name, cell) for name, cell in cells.items()},
        wollaston_extinction=extinction,
        fom=FomSpec(
            signal_detunings_ghz=_floats(fom["signal_detunings_ghz"]),
            noise_detunings_ghz=_floats(fom["noise_detunings_ghz"]),
            min_suppression_db=float(fom["min_suppression_db"]),
            wollaston_extinction=max(extinction, 1e-300),
        ),
        noise=replace(base, **{key: float(v) for key, v in noise_fields.items()}),
        layout=RegionLayout(n_regions=int(n_regions)),
        frames=int(frames),
        optimizer_budget=int(optimizer["budget"]),
        optimizer_restarts=int(optimizer["restarts"]),
        optimizer_box=ParamBox(**{name: _floats(pair) for name, pair in optimizer["box"].items()}),
        resolved=resolved,
    )


def read_config(path: str | None) -> dict:
    """Read and parse a JSON config without validating it; None gives {}."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc


def load_config(path: str | None = None) -> RunConfig:
    """Read, parse, and fully validate a JSON config; None loads the preset."""
    return validate_config(read_config(path))


def config_hash(resolved: dict) -> str:
    """Stable digest of a resolved config for report provenance."""
    import hashlib  # loads OpenSSL: only commands that write a JSON report pay for it

    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
