"""Config loading/validation and CSV/JSON file round trips."""

import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import frames_csv_bytes, simulate_frames_serial
from strategies import frame_arrays_held

from rbfilter import __version__, photon_stats
from rbfilter.config import (
    MAX_COUNTS_PER_ARM,
    SCHEMA,
    Pair,
    config_hash,
    load_config,
    preset_paper_optimum,
    validate_config,
)
from rbfilter.errors import ConfigError, DataError
from rbfilter.lineshape import CELL_KEYS
from rbfilter.io import (
    read_measured_csv,
    read_spectrum_csv,
    write_frames_csv,
    write_json_report,
    write_lines_csv,
    write_spectrum_csv,
)
from rbfilter.optimize import PAPER_OPTIMUM, ParamBox, build_cells
from rbfilter.photon_stats import (
    COUNT_MAX,
    CountsBatch,
    RegionLayout,
    filtered_preset,
    simulate_frames,
)
from rbfilter.zeeman import zeeman_lines


# ------------------------------------------------------------- defaults

def test_default_config_matches_reference_preset():
    cfg = load_config(None)
    assert cfg.seed == 12345
    assert cfg.grid_points == 4001
    assert (cfg.grid_lo_ghz, cfg.grid_hi_ghz) == (-15.0, 15.0)
    assert cfg.cells["absorption"].temperature_k == pytest.approx(373.15)
    assert cfg.cells["absorption"].geometry == "transverse"
    assert cfg.cells["faraday"].temperature_k == pytest.approx(375.15)
    assert cfg.cells["faraday"].rb87_fraction == 1.0
    assert cfg.wollaston_extinction == pytest.approx(1.0e-5)
    assert cfg.noise == filtered_preset()[0]
    assert cfg.optimizer_box.b_abs_mt == (5.0, 20.0)
    grid = cfg.grid()
    assert grid.size == 4001 and grid[0] == -15.0 and grid[-1] == 15.0


def test_partial_override_keeps_other_defaults():
    cfg = validate_config({
        "grid": {"points": 101},
        "cells": {"faraday": {"temperature_c": 95.0}},
    })
    assert cfg.grid_points == 101
    assert (cfg.grid_lo_ghz, cfg.grid_hi_ghz) == (-15.0, 15.0)
    assert cfg.cells["faraday"].temperature_k == pytest.approx(368.15)
    assert cfg.cells["absorption"].temperature_k == pytest.approx(373.15)
    assert cfg.resolved["grid"]["points"] == 101
    assert cfg.resolved["cells"]["faraday"]["temperature_c"] == 95.0
    assert cfg.resolved["cells"]["faraday"]["length_cm"] == 30.0


# ----------------------------------------------------------- validation

def test_every_error_reported_with_its_path():
    bad = {
        "seed": -1,
        "grid": {"points": 1},
        "cells": {"absorption": {"temperature_c": 200.0}},
        "noise": {"preset": "loud"},
        "bogus": 1,
    }
    with pytest.raises(ConfigError) as exc_info:
        validate_config(bad)
    messages = exc_info.value.errors
    assert len(messages) >= 5
    joined = "\n".join(messages)
    assert "seed" in joined
    assert "grid.points" in joined
    assert "cells.absorption.temperature_c" in joined
    assert "140" in joined          # the named temperature range bound
    assert "bogus" in joined
    assert "noise.preset" in joined


NUMERIC_CELL_KEYS = [key for key in CELL_KEYS.values() if not key.choices]


def one_cell_key(key, value) -> dict:
    """A cells section setting one key; the other isotope fraction is zeroed so
    that any fraction in range keeps the sum at or below 1."""
    partner = {"rb85_fraction": "rb87_fraction", "rb87_fraction": "rb85_fraction"}.get(key.name)
    return {key.name: value, **({partner: 0.0} if partner else {})}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cell_table_ranges_are_the_validated_ranges(data):
    """Every value in a key's range validates and converts by the table; the
    next float past either bound is rejected under the key's dotted path."""
    key = data.draw(st.sampled_from(NUMERIC_CELL_KEYS), label="key")
    cell = data.draw(st.sampled_from(["absorption", "faraday"]), label="cell")
    value = data.draw(st.floats(key.lo, key.hi), label="value")
    cfg = validate_config({"cells": {cell: one_cell_key(key, value)}})
    assert getattr(cfg.cells[cell], key.field) == key.to_field(value)
    for past in (math.nextafter(key.lo, -math.inf), math.nextafter(key.hi, math.inf)):
        with pytest.raises(ConfigError) as info:
            validate_config({"cells": {cell: one_cell_key(key, past)}})
        assert info.value.errors == [
            f"cells.{cell}.{key.name}: value {past} outside valid range [{key.lo}, {key.hi}]"]


def numeric_leaves(schema=SCHEMA, path=""):
    """(dotted path, leaf) for every SCHEMA leaf with a range."""
    for key, leaf in schema.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(leaf, dict):
            yield from numeric_leaves(leaf, dotted)
        elif leaf.lo is not None:
            yield dotted, leaf


NUMERIC_LEAVES = list(numeric_leaves())
# settings that keep a cross-key rule from firing at the key's own path
PARTNERS = {"noise.frames": {"n_regions": 1}, "noise.n_regions": {"frames": 1}}


def config_at(path: str, value) -> dict:
    *sections, key = path.split(".")
    cfg = node = {}
    for name in sections:
        node = node.setdefault(name, {})
    node.update({key: value, **PARTNERS.get(path, {})})
    return cfg


def errors_of(cfg: dict) -> list[str]:
    try:
        validate_config(cfg)
    except ConfigError as exc:
        return exc.errors
    return []


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_schema_ranges_are_the_validated_ranges(data):
    """Every value in a SCHEMA key's range passes that key's check, bounds
    included; the first value past either bound is rejected with exactly the
    range message.  Past an integer key's bound that value is the next integer
    (math.nextafter of an integer bound is no integer and fails that check
    first); a pair is tested one element at a time."""
    path, leaf = data.draw(st.sampled_from(NUMERIC_LEAVES), label="key")
    if getattr(leaf, "integer", False):
        value = data.draw(st.integers(leaf.lo, leaf.hi), label="value")
        below, above = leaf.lo - 1, leaf.hi + 1
    else:
        value = data.draw(st.floats(leaf.lo, leaf.hi), label="value")
        below, above = math.nextafter(leaf.lo, -math.inf), math.nextafter(leaf.hi, math.inf)
    pair = isinstance(leaf, Pair)
    errors = errors_of(config_at(path, [value, value] if pair else value))
    assert not [e for e in errors if e.startswith(f"{path}:")]
    for past, past_pair in ((below, [below, leaf.hi]), (above, [leaf.lo, above])):
        assert errors_of(config_at(path, past_pair if pair else past)) == [
            f"{path}: value {past} outside valid range [{leaf.lo}, {leaf.hi}]"]


@pytest.mark.parametrize("config, error", [
    ({"cells": {"absorption": {"rb85_fraction": "x", "rb87_fraction": 1.0}}},
     "cells.absorption.rb85_fraction: expected a number, got str"),
    ({"grid": {"lo_ghz": False, "hi_ghz": -20.0}}, "grid.lo_ghz: expected a number, got bool"),
    ({"noise": {"frames": 10**8, "n_regions": 1001}},
     "noise.n_regions: value 1001 outside valid range [1, 1000]"),
    ({"noise": {"preset": "custom", "n_sig": -1.0}},
     "noise.n_sig: value -1.0 outside valid range [0.0, 100.0]"),
    ({"fom": {"signal_detunings_ghz": 3}}, "fom.signal_detunings_ghz: expected a pair of numbers"),
])
def test_cross_key_rules_read_only_values_that_validated(config, error):
    """A key given an invalid value reports that alone: the isotope sum, grid
    order, count bound and custom-noise rules do not run on a default put in
    its place."""
    assert errors_of(config) == [error]


def test_resolved_keeps_given_values_in_preset_order_then_optional_keys_as_given():
    cfg = validate_config({"noise": {"eta_as": 0.5, "n_sig": 1, "frames": 50},
                           "cells": {"faraday": {"rb87_fraction": 1, "rb85_fraction": 0}}})
    assert list(cfg.resolved["noise"]) == ["preset", "frames", "n_regions", "eta_as", "n_sig"]
    assert list(cfg.resolved["cells"]["faraday"]) == list(CELL_KEYS)
    assert cfg.resolved["cells"]["faraday"]["rb87_fraction"] == 1
    assert type(cfg.resolved["cells"]["faraday"]["rb87_fraction"]) is int
    assert type(cfg.cells["faraday"].rb87_fraction) is float
    assert type(cfg.noise.n_sig) is float and cfg.noise.n_sig == 1.0


def test_readme_config_example_resolves_to_the_preset():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert example["cells"]["faraday"]["geometry"] == "longitudinal"
    assert validate_config(example) == validate_config({})
    assert validate_config(example).resolved == validate_config({}).resolved


def test_optimizer_box_checked_against_cell_ranges():
    with pytest.raises(ConfigError) as info:
        validate_config({"optimizer": {"box": {"t_abs_c": [0, 400], "b_far_mt": [1, 301],
                                               "t_far_c": [110, 70]}}})
    assert info.value.errors == [
        "optimizer.box.t_abs_c: value 0 outside valid range [20.0, 140.0]",
        "optimizer.box.t_abs_c: value 400 outside valid range [20.0, 140.0]",
        "optimizer.box.t_far_c: lower bound 110.0 exceeds upper bound 70.0",
        "optimizer.box.b_far_mt: value 301 outside valid range [0.0, 300.0]",
    ]
    box = validate_config({"optimizer": {"box": {"b_abs_mt": [0, 300]}}}).optimizer_box
    assert box.b_abs_mt == (0.0, 300.0)
    assert box == ParamBox(b_abs_mt=(0.0, 300.0))  # the other three ranges are the defaults


@pytest.mark.parametrize("fom", [{"signal_detunings_ghz": [float("nan"), 7.8]},
                                 {"noise_detunings_ghz": [1.0, float("inf")]},
                                 {"signal_detunings_ghz": [10**400, 7.8]},
                                 {"noise_detunings_ghz": [1.0, -(10**400)]}])
def test_detuning_pairs_must_be_finite(fom):
    with pytest.raises(ConfigError, match="must be finite"):
        validate_config({"fom": fom})


@pytest.mark.parametrize("seed, error", [
    pytest.param(float("inf"), "must be finite", id="inf"),
    pytest.param(float("nan"), "must be finite", id="nan"),
    pytest.param(2**70, r"value \d+ outside valid range", id=str(2**70)),
    pytest.param(10**400, r"value \d+ outside valid range", id=str(10**400)),
    pytest.param(1.5, "expected an integer, got 1.5", id="1.5"),
])
def test_seed_outside_u64_is_a_config_error(seed, error):
    with pytest.raises(ConfigError, match=f"^seed: {error}"):
        validate_config({"seed": seed})


@pytest.mark.parametrize("frames, n_regions", [(10**8, 1), (10**5, 1000)])
def test_frame_arrays_up_to_the_count_bound_are_accepted(frames, n_regions):
    cfg = validate_config({"noise": {"frames": frames, "n_regions": n_regions}})
    assert cfg.frames * cfg.layout.n_regions == MAX_COUNTS_PER_ARM


@pytest.mark.parametrize("frames, n_regions", [(10**8, 1000), (10**8, 2), (10**5 + 1, 1000)])
def test_frame_arrays_past_the_count_bound_are_rejected(frames, n_regions):
    """Each int16 count array would hold frames x n_regions entries (computed, not run)."""
    with pytest.raises(ConfigError, match=r"noise\.frames: frames x n_regions"):
        validate_config({"noise": {"frames": frames, "n_regions": n_regions}})


def test_unknown_cell_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        validate_config({"cells": {"absorption": {"volume_ml": 5.0}}})


def test_isotope_fractions_must_sum_to_one():
    with pytest.raises(ConfigError, match="fraction"):
        validate_config({"cells": {"absorption": {
            "rb85_fraction": 0.7, "rb87_fraction": 0.7}}})


def test_geometry_choice_checked():
    with pytest.raises(ConfigError, match="geometry"):
        validate_config({"cells": {"faraday": {"geometry": "diagonal"}}})


def test_grid_bounds_ordering_checked():
    with pytest.raises(ConfigError, match="lo_ghz"):
        validate_config({"grid": {"lo_ghz": 5.0, "hi_ghz": -5.0}})


def test_custom_noise_preset_requires_fields():
    with pytest.raises(ConfigError, match="custom"):
        validate_config({"noise": {"preset": "custom"}})
    cfg = validate_config({"noise": {"preset": "custom", "n_sig": 0.3,
                                     "eta_s": 0.5, "eta_as": 0.5}})
    assert cfg.noise.n_sig == 0.3
    assert cfg.noise.eta_s == 0.5 and cfg.noise.eta_as == 0.5


def test_named_preset_accepts_field_overrides():
    cfg = validate_config({"noise": {"preset": "filtered", "n_sig": 0.3}})
    base = filtered_preset()[0]
    assert cfg.noise.n_sig == 0.3
    assert cfg.noise.eta_s == base.eta_s
    assert cfg.noise.intensifier_per_frame == base.intensifier_per_frame


def test_top_level_must_be_object():
    with pytest.raises(ConfigError):
        validate_config([1, 2, 3])


# ----------------------------------------------------------- file layer

def test_load_config_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_reports_parse_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "seed": 1,\n}\n')
    with pytest.raises(ConfigError, match=r"line 3, column 1"):
        load_config(str(p))


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 7, "grid": {"points": 51}}))
    cfg = load_config(str(p))
    assert cfg.seed == 7
    assert cfg.grid_points == 51


def test_config_hash_stable_and_sensitive():
    a = validate_config({}).resolved
    b = validate_config({}).resolved
    c = validate_config({"seed": 99}).resolved
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64


def test_default_config_hash_is_pinned():
    # any drift in a value the preset derives from build_cells, FomSpec or ParamBox moves it
    assert config_hash(validate_config({}).resolved) == (
        "728b96e503d2b555c9264c33edfd03799ffd330894f49867ded80b2334659a14")


def test_default_cells_are_the_reference_cells():
    cells = validate_config({}).cells
    absorption, faraday = build_cells(PAPER_OPTIMUM)
    assert cells["absorption"] == absorption
    assert cells["faraday"] == faraday


# ------------------------------------------------------------- CSV I/O

def test_spectrum_csv_round_trip(tmp_path):
    p = str(tmp_path / "spec.csv")
    grid = np.linspace(-3.0, 3.0, 41)
    t = 1.0 / (1.0 + grid ** 2)
    db = -10.0 * np.log10(np.maximum(t, 1e-15))
    write_spectrum_csv(p, grid, {"transmission": t, "transmission_db": db})
    grid2, cols = read_spectrum_csv(p)
    assert np.allclose(grid2, grid, rtol=0, atol=1e-12)
    assert set(cols) == {"transmission", "transmission_db"}
    assert np.allclose(cols["transmission"], t, rtol=1e-12, atol=0)
    assert np.allclose(cols["transmission_db"], db, rtol=1e-12, atol=0)


def test_spectrum_csv_shape_mismatch(tmp_path):
    with pytest.raises(DataError, match="shape"):
        write_spectrum_csv(str(tmp_path / "x.csv"), np.arange(5.0),
                           {"transmission": np.arange(4.0)})


def test_spectrum_csv_read_errors(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(DataError):
        read_spectrum_csv(str(missing))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_spectrum_csv(str(empty))

    wrong_header = tmp_path / "hdr.csv"
    wrong_header.write_text("frequency,transmission\n0,1\n")
    with pytest.raises(DataError, match="detuning_ghz"):
        read_spectrum_csv(str(wrong_header))

    header_only = tmp_path / "ho.csv"
    header_only.write_text("detuning_ghz,transmission\n")
    with pytest.raises(DataError, match="no data rows"):
        read_spectrum_csv(str(header_only))

    bad_value = tmp_path / "nan.csv"
    bad_value.write_text("detuning_ghz,transmission\n0,one\n")
    with pytest.raises(DataError, match="non-numeric"):
        read_spectrum_csv(str(bad_value))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("detuning_ghz,transmission\n0,1\n1\n")
    with pytest.raises(DataError, match="row 3 has 1 fields, header has 2"):
        read_spectrum_csv(str(ragged))


def test_read_measured_sorts_and_checks_column(tmp_path):
    p = str(tmp_path / "m.csv")
    grid = np.array([2.0, -1.0, 0.0, 1.0, -2.0])
    t = np.array([0.2, 0.9, 0.5, 0.7, 0.95])
    write_spectrum_csv(p, grid, {"transmission": t})
    meas = read_measured_csv(p)
    assert np.all(np.diff(meas.detuning_ghz) > 0)
    assert meas.transmission[0] == pytest.approx(0.95)
    with pytest.raises(DataError, match="no column"):
        read_measured_csv(p, column="reflectance")


def test_lines_csv_layout(tmp_path):
    p = tmp_path / "lines.csv"
    table = zeeman_lines("Rb87", 1.0e-2)
    write_lines_csv(str(p), table)
    rows = p.read_text().strip().splitlines()
    assert rows[0] == "offset_ghz,component,strength"
    assert len(rows) == 1 + table.n_lines
    components = {r.split(",")[1] for r in rows[1:]}
    assert components <= {"sigma+", "sigma-", "pi"}
    strengths = [float(r.split(",")[2]) for r in rows[1:]]
    assert sum(strengths) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("b_field_t", [1.0e-2, 0.0])
@pytest.mark.parametrize("isotope", ["Rb85", "Rb87"])
def test_lines_csv_rows_run_sigma_minus_then_pi_then_sigma_plus(tmp_path, isotope, b_field_t):
    """Every sigma- line, then every pi line, then every sigma+ line, each row
    the exact digits of its component's arrays."""
    p = tmp_path / f"lines_{isotope.lower()}.csv"
    table = zeeman_lines(isotope, b_field_t)
    write_lines_csv(str(p), table)
    header, body = p.read_bytes().decode().split("\r\n", 1)
    assert header == "offset_ghz,component,strength"
    rows = [r.split(",") for r in body.split("\r\n")[:-1]]
    order = ("sigma-", "pi", "sigma+")
    assert [name for name, _ in itertools.groupby(r[1] for r in rows)] == list(order)
    assert body == "".join("%.16g,%s,%.16g\r\n" % (offset, name, strength) for name in order
                           for offset, strength in zip(*table.lines[name]))
    for name in order:
        strengths = [float(r[2]) for r in rows if r[1] == name]
        assert math.fsum(strengths) == pytest.approx(1 / 6, rel=1e-12)


def _counts_batch(frames, n_regions, high, dtype=np.int16, seed=0):
    rng = np.random.default_rng(seed)
    n_s, n_as = (rng.integers(0, high, size=(frames, n_regions), endpoint=True).astype(dtype)
                 for _ in range(2))
    return CountsBatch(n_s=n_s, n_as=n_as, layout=RegionLayout(n_regions))


@pytest.mark.parametrize("batch", [
    _counts_batch(1, 10, 9),
    _counts_batch(3000, 1, 20),
    _counts_batch(700, 13, 300),
    # blocks of 315 frames at 13 regions: frame 1000 lies inside the fourth
    _counts_batch(1100, 13, 5),
    # every count 0, then COUNT_MAX beside 0
    _counts_batch(40, 10, 0),
    CountsBatch(n_s=np.array([[0, COUNT_MAX], [COUNT_MAX, 0]], dtype=np.int16),
                n_as=np.array([[COUNT_MAX, COUNT_MAX], [0, 0]], dtype=np.int16),
                layout=RegionLayout(2)),
    # built by hand with int64 counts, up to the count limit
    _counts_batch(50, 7, COUNT_MAX, dtype=np.int64),
], ids=["one-frame", "one-region", "13-regions", "frame-crosses-1000-in-a-block",
        "all-zero", "zero-and-count-max", "int64-counts"])
def test_frames_csv_bytes_match_the_percent_d_rows(tmp_path, batch):
    p = tmp_path / "frames.csv"
    write_frames_csv(str(p), batch)
    assert p.read_bytes() == frames_csv_bytes(batch.n_s, batch.n_as)


def test_frames_csv_of_a_simulated_batch_is_drawn_chunk_by_chunk(tmp_path):
    """Three chunks, the last one 7 frames long, drawn again from the seed as
    they are written: the bytes of the serial oracle's counts, and the batch
    still holds no count arrays."""
    chunk = photon_stats._chunk_frames(4)
    frames = 2 * chunk + 7
    noise, _ = filtered_preset()
    batch = simulate_frames(frames, noise, seed=19, layout=RegionLayout(4))
    p = tmp_path / "frames.csv"
    write_frames_csv(str(p), batch)
    assert frame_arrays_held(batch) == []
    assert p.read_bytes() == frames_csv_bytes(*simulate_frames_serial(frames, noise, 19, 4,
                                                                      chunk))


def test_frames_csv_writer_memory_stays_flat_at_200_regions(tmp_path):
    """Blocks of CHUNK_ROWS rows, not frames: at 200 regions the writer's peak
    is a few blocks of bytes, not a Python list of the fields of 4096 frames
    (26 MB once, for these 200,000 rows)."""
    noise, _ = filtered_preset()
    batch = simulate_frames(1000, noise, seed=5, layout=RegionLayout(200))
    tracemalloc.start()
    try:
        write_frames_csv(str(tmp_path / "frames.csv"), batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


# ------------------------------------------------------------ JSON I/O

def test_json_report_embeds_provenance(tmp_path):
    p = tmp_path / "report.json"
    resolved = validate_config({}).resolved
    payload = {
        "objective": np.float64(0.25),
        "spectrum": np.array([1.0, 0.5]),
        "window": (1.0, 2.0),
    }
    write_json_report(str(p), payload, resolved_config=resolved)
    doc = json.loads(p.read_text())
    assert doc["version"] == __version__
    assert doc["config_hash"] == config_hash(resolved)
    assert doc["config"]["seed"] == 12345
    assert doc["objective"] == 0.25
    assert doc["spectrum"] == [1.0, 0.5]
    assert doc["window"] == [1.0, 2.0]


def test_json_report_without_config_omits_hash(tmp_path):
    p = tmp_path / "r.json"
    write_json_report(str(p), {"ok": True})
    doc = json.loads(p.read_text())
    assert doc == {"version": __version__, "numpy": np.__version__, "ok": True}
