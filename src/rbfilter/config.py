"""Run configuration: JSON schema, validation, presets, and hashing.

Config keys carry explicit unit suffixes (temperature_c, b_field_mt,
length_cm, polarization_angle_deg); each cell key's range and SI conversion
is its entry in lineshape.CELL_KEYS.  Validation is total: every problem in
the file is reported in one pass with its dotted key path, and no partially
built object escapes a failed load.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError, DataError
from .lineshape import CELL_KEYS, CellConfig
from .optimize import PAPER_OPTIMUM, FomSpec, ParamBox, build_cells
from .photon_stats import NoiseModel, RegionLayout, filtered_preset, unfiltered_preset
from .propagation import WOLLASTON_EXTINCTION

# frames x n_regions bound: two int16 count arrays of 1e8 entries take 400 MB
MAX_COUNTS_PER_ARM = 10**8

_TEMPERATURE, _FIELD = CELL_KEYS["temperature_c"], CELL_KEYS["b_field_mt"]
# optimizer.box key -> the cell key whose range bounds it
_BOX_KEYS = {"t_abs_c": _TEMPERATURE, "t_far_c": _TEMPERATURE, "b_abs_mt": _FIELD, "b_far_mt": _FIELD}


def _cell_section(cell: CellConfig) -> dict:
    """A cell in config units; _validate_cell converts it back exactly."""
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
            "box": {
                "t_abs_c": list(box.t_abs_c),
                "t_far_c": list(box.t_far_c),
                "b_abs_mt": [_FIELD.from_field(x) for x in box.b_abs_t],
                "b_far_mt": [_FIELD.from_field(x) for x in box.b_far_t],
            },
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

    def grid(self):
        import numpy as np

        return np.linspace(self.grid_lo_ghz, self.grid_hi_ghz, self.grid_points)


class _Validator:
    """Collects every error with its dotted path before raising."""

    def __init__(self, data: dict):
        self.data = data
        self.errors: list[str] = []

    def fail(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}" if path else msg)

    def section(self, data, path, known: set[str]) -> dict:
        if not isinstance(data, dict):
            self.fail(path, f"expected an object, got {type(data).__name__}")
            return {}
        for key in data:
            if key not in known:
                self.fail(f"{path}.{key}" if path else key, "unknown key")
        return data

    def number(self, data, path, key, default=None, lo=None, hi=None, integer=False):
        dotted = f"{path}.{key}" if path else key
        if key not in data:
            if default is None:
                self.fail(dotted, "missing required key")
                return None
            return default
        return self._value(dotted, data[key], default, lo, hi, integer)

    def _value(self, dotted, v, default, lo, hi, integer=False):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail(dotted, f"expected a number, got {type(v).__name__}")
            return default
        if isinstance(v, float) and not math.isfinite(v):
            self.fail(dotted, "must be finite")
            return default
        if integer and int(v) != v:
            self.fail(dotted, f"expected an integer, got {v}")
            return default
        if lo is not None and v < lo or hi is not None and v > hi:
            self.fail(dotted, f"value {v} outside valid range [{lo}, {hi}]")
            return default
        return int(v) if integer else float(v)

    def choice(self, data, path, key, options, default=None):
        v = data.get(key, default)
        if v not in options:
            self.fail(f"{path}.{key}", f"must be one of {sorted(options)}, got {v!r}")
            return default
        return v

    def pair(self, data, path, key, default, lo=None, hi=None):
        dotted = f"{path}.{key}"
        v = data.get(key, default)
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            self.fail(dotted, "expected a pair of numbers")
            return default
        n_before = len(self.errors)
        values = [self._value(dotted, x, None, lo, hi) for x in v]
        return default if len(self.errors) > n_before else values


def _validate_cell(v: _Validator, data: dict, path: str, defaults: dict) -> CellConfig | None:
    merged = {**defaults, **v.section(data, path, set(CELL_KEYS))}
    n_before = len(v.errors)
    values = {name: v.choice(merged, path, name, key.choices) if key.choices
              else v.number(merged, path, name, lo=key.lo, hi=key.hi)
              for name, key in CELL_KEYS.items()}
    f85, f87 = values["rb85_fraction"], values["rb87_fraction"]
    if f85 is not None and f87 is not None and f85 + f87 > 1.0 + 1e-12:
        v.fail(path, f"rb85_fraction + rb87_fraction = {f85 + f87} exceeds 1")
    if len(v.errors) > n_before:
        return None
    fields = {CELL_KEYS[name].field: CELL_KEYS[name].to_field(x) for name, x in values.items()}
    return CellConfig(name=path.rsplit(".", 1)[-1], **fields)


def validate_config(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, reporting all problems."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])
    defaults = preset_paper_optimum()
    v = _Validator(data)
    v.section(data, "", {"seed", "grid", "cells", "chain", "fom", "noise", "optimizer"})

    seed = v.number(data, "", "seed", defaults["seed"], 0, 2**64 - 1, integer=True)

    grid = v.section(data.get("grid", {}), "grid", {"points", "lo_ghz", "hi_ghz"})
    points = v.number(grid, "grid", "points", defaults["grid"]["points"], 2, 10_000_000, integer=True)
    lo = v.number(grid, "grid", "lo_ghz", defaults["grid"]["lo_ghz"], -1e4, 1e4)
    hi = v.number(grid, "grid", "hi_ghz", defaults["grid"]["hi_ghz"], -1e4, 1e4)
    if lo is not None and hi is not None and lo >= hi:
        v.fail("grid", f"lo_ghz {lo} must be below hi_ghz {hi}")

    cells_in = v.section(data.get("cells", {}), "cells", {"absorption", "faraday"})
    cells: dict[str, CellConfig] = {}
    for name in ("absorption", "faraday"):
        cell = _validate_cell(v, cells_in.get(name, {}), f"cells.{name}", defaults["cells"][name])
        if cell is not None:
            cells[name] = cell

    chain = v.section(data.get("chain", {}), "chain", {"wollaston_extinction"})
    extinction = v.number(chain, "chain", "wollaston_extinction",
                          defaults["chain"]["wollaston_extinction"], 0.0, 0.999)

    fom_in = v.section(data.get("fom", {}), "fom",
                       {"signal_detunings_ghz", "noise_detunings_ghz", "min_suppression_db"})
    sig = v.pair(fom_in, "fom", "signal_detunings_ghz", defaults["fom"]["signal_detunings_ghz"])
    noi = v.pair(fom_in, "fom", "noise_detunings_ghz", defaults["fom"]["noise_detunings_ghz"])
    min_supp = v.number(fom_in, "fom", "min_suppression_db",
                        defaults["fom"]["min_suppression_db"], 1.0, 300.0)

    noise_in = v.section(data.get("noise", {}), "noise",
                         {"preset", "frames", "n_regions", "n_sig", "eta_s", "eta_as",
                          "b_fluorescence", "b_leakage", "intensifier_per_frame"})
    noise_preset = v.choice(noise_in, "noise", "preset", {"filtered", "unfiltered", "custom"},
                            defaults["noise"]["preset"])
    frames = v.number(noise_in, "noise", "frames", defaults["noise"]["frames"], 1, 10**8, integer=True)
    n_regions = v.number(noise_in, "noise", "n_regions", defaults["noise"]["n_regions"], 1, 1000, integer=True)
    if frames * n_regions > MAX_COUNTS_PER_ARM:
        v.fail("noise.frames", f"frames x n_regions = {frames * n_regions} exceeds "
               f"{MAX_COUNTS_PER_ARM} counts per arm")
    custom_fields = {}
    for key, lo_k, hi_k in (("n_sig", 0.0, 100.0), ("eta_s", 0.0, 1.0), ("eta_as", 0.0, 1.0),
                            ("b_fluorescence", 0.0, 1e3), ("b_leakage", 0.0, 1e3),
                            ("intensifier_per_frame", 0.0, 1e4)):
        if key in noise_in:
            val = v.number(noise_in, "noise", key, 0.0, lo_k, hi_k)
            if val is not None:
                custom_fields[key] = val
    if noise_preset == "custom" and not custom_fields:
        v.fail("noise", "preset 'custom' requires explicit noise fields")

    opt_in = v.section(data.get("optimizer", {}), "optimizer", {"budget", "restarts", "box"})
    budget = v.number(opt_in, "optimizer", "budget", defaults["optimizer"]["budget"], 100, 10**7, integer=True)
    restarts = v.number(opt_in, "optimizer", "restarts", defaults["optimizer"]["restarts"], 1, 20, integer=True)
    box_in = v.section(opt_in.get("box", {}), "optimizer.box",
                       {"t_abs_c", "t_far_c", "b_abs_mt", "b_far_mt"})
    box_vals = {}
    for key, valid in _BOX_KEYS.items():
        lo_hi = box_vals[key] = v.pair(box_in, "optimizer.box", key,
                                       defaults["optimizer"]["box"][key], valid.lo, valid.hi)
        if lo_hi[0] > lo_hi[1]:
            v.fail(f"optimizer.box.{key}", f"lower bound {lo_hi[0]} exceeds upper bound {lo_hi[1]}")

    if v.errors:
        raise ConfigError(v.errors)

    presets = {"filtered": filtered_preset, "unfiltered": unfiltered_preset}
    base = presets[noise_preset]()[0] if noise_preset in presets else NoiseModel()
    noise_model = replace(base, **custom_fields)
    layout = RegionLayout(n_regions=n_regions)

    fom = FomSpec(
        signal_detunings_ghz=tuple(sig),
        noise_detunings_ghz=tuple(noi),
        min_suppression_db=min_supp,
        wollaston_extinction=max(extinction, 1e-300),
    )
    box = ParamBox(
        t_abs_c=tuple(box_vals["t_abs_c"]),
        t_far_c=tuple(box_vals["t_far_c"]),
        b_abs_t=tuple(map(_FIELD.to_field, box_vals["b_abs_mt"])),
        b_far_t=tuple(map(_FIELD.to_field, box_vals["b_far_mt"])),
    )

    resolved = _resolve(defaults, data)
    return RunConfig(
        seed=seed,
        grid_points=points,
        grid_lo_ghz=lo,
        grid_hi_ghz=hi,
        cells=cells,
        wollaston_extinction=extinction,
        fom=fom,
        noise=noise_model,
        layout=layout,
        frames=frames,
        optimizer_budget=budget,
        optimizer_restarts=restarts,
        optimizer_box=box,
        resolved=resolved,
    )


def _resolve(defaults: dict, overrides: dict) -> dict:
    out = {}
    for key, dval in defaults.items():
        oval = overrides.get(key)
        if isinstance(dval, dict) and isinstance(oval, dict):
            out[key] = _resolve(dval, oval)
        elif oval is not None:
            out[key] = oval
        else:
            out[key] = dval
    for key, oval in overrides.items():
        if key not in defaults:
            out[key] = oval
    return out


def read_config(path: str | None) -> dict:
    """Read and parse a JSON config without validating it; None gives {}."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
