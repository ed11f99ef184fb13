"""End-to-end command-line runs through cli.main; the import floor in fresh interpreters."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rbfilter
from rbfilter import cli, io, lineshape, photon_stats, propagation
from rbfilter.config import load_config
from rbfilter.errors import NumericalError
from rbfilter.fitting import model_transmission
from rbfilter.io import read_spectrum_csv, write_spectrum_csv
from rbfilter.lineshape import CellConfig, TRANSVERSE
from rbfilter.optimize import PAPER_OPTIMUM
from rbfilter.photon_stats import simulate_frames


def run(*argv) -> int:
    return cli.main(list(argv))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------ subcommands

def test_constants_command(tmp_path):
    assert run("constants", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "constants.json").read_text())
    assert doc["reference_frequency_thz"] == pytest.approx(377.107, abs=0.01)
    assert set(doc["isotopes"]) == {"Rb85", "Rb87"}
    assert doc["isotopes"]["Rb87"]["nuclear_spin"] == 1.5
    assert doc["vapor_pressure_pa_at_config_temperature"] > 0


def test_constants_report_carries_the_config_and_its_hash(tmp_path):
    """The vapor pressure depends on the config, so the report says which config."""
    docs = []
    for temperature_c in (100.0, 120.0):
        cfg = tmp_path / f"cfg_{temperature_c:g}.json"
        cfg.write_text(json.dumps({"cells": {"absorption": {"temperature_c": temperature_c}}}))
        out = tmp_path / f"out_{temperature_c:g}"
        assert run("constants", "--config", str(cfg), "--out", str(out)) == 0
        docs.append(json.loads((out / "constants.json").read_text()))
    assert [doc["config"]["cells"]["absorption"]["temperature_c"] for doc in docs] == [100.0, 120.0]
    assert docs[0]["config_hash"] != docs[1]["config_hash"]
    assert docs[0]["version"] == rbfilter.__version__


def test_lines_command_writes_one_file_per_present_isotope(tmp_path):
    assert run("lines", "--out", str(tmp_path), "--cell", "absorption") == 0
    assert (tmp_path / "lines_rb85.csv").exists()
    assert (tmp_path / "lines_rb87.csv").exists()

    faraday_dir = tmp_path / "faraday"
    assert run("lines", "--out", str(faraday_dir), "--cell", "faraday") == 0
    assert (faraday_dir / "lines_rb87.csv").exists()
    assert not (faraday_dir / "lines_rb85.csv").exists()
    header = (faraday_dir / "lines_rb87.csv").read_text().splitlines()[0]
    assert header == "offset_ghz,component,strength"


@pytest.mark.xfail(strict=True, reason="lines names its files lines_<isotope>.csv without the "
                   "cell, so a second cell's lines overwrite the first's; the rename waits for "
                   "the benchmark, whose cli-session check reads lines_rb85.csv and lines_rb87.csv")
def test_lines_of_both_cells_share_an_out_directory(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cells": {"faraday": {"b_field_mt": 12}}}))
    out = tmp_path / "out"

    def written():
        return {path.read_bytes() for path in out.glob("lines*.csv")}

    assert run("lines", "--cell", "absorption", "--out", str(out), "--config", str(cfg)) == 0
    absorption = written()
    assert run("lines", "--cell", "faraday", "--out", str(out), "--config", str(cfg)) == 0
    assert absorption < written() and len(written()) == len(absorption) + 1


def test_spectrum_command_absorption(tmp_path):
    assert run("spectrum", "--out", str(tmp_path), "--grid-points", "101") == 0
    grid, cols = read_spectrum_csv(str(tmp_path / "spectrum_absorption.csv"))
    assert grid.size == 101
    assert set(cols) == {"transmission", "transmission_db"}
    assert np.all((cols["transmission"] >= 0) & (cols["transmission"] <= 1 + 1e-9))


def test_spectrum_command_faraday_adds_rotation_columns(tmp_path):
    assert run("spectrum", "--out", str(tmp_path), "--cell", "faraday",
               "--grid-points", "101") == 0
    _, cols = read_spectrum_csv(str(tmp_path / "spectrum_faraday.csv"))
    assert {"transmission", "transmission_db",
            "rotation_rad", "rotation_transmission"} == set(cols)


def test_cascade_command(tmp_path):
    assert run("cascade", "--out", str(tmp_path), "--grid-points", "101") == 0
    grid, cols = read_spectrum_csv(str(tmp_path / "cascade.csv"))
    assert grid.size == 101 and "transmission" in cols


def test_cascade_psi_sweep(tmp_path):
    assert run("cascade", "--out", str(tmp_path), "--grid-points", "51",
               "--psi-sweep") == 0
    _, cols = read_spectrum_csv(str(tmp_path / "cascade_psi_sweep.csv"))
    assert len(cols) == 7
    assert "transmission_psi_0_deg" in cols
    assert "transmission_psi_90_deg" in cols
    for arr in cols.values():
        assert np.all((arr >= 0) & (arr <= 1 + 1e-9))


def test_cascade_psi_sweep_columns_match_cascade_at_each_angle(tmp_path):
    """Each sweep column, computed from the shared spectra, is the CSV text that
    cascade writes with the absorption cell at that angle."""
    assert run("cascade", "--out", str(tmp_path), "--grid-points", "51", "--psi-sweep") == 0
    header, *rows = _csv_rows(tmp_path / "cascade_psi_sweep.csv")
    for deg in cli.PSI_SWEEP_DEG:
        cfg = tmp_path / f"psi_{deg:g}.json"
        cfg.write_text(json.dumps({"cells": {"absorption": {"polarization_angle_deg": deg}}}))
        out = tmp_path / f"psi_{deg:g}"
        assert run("cascade", "--out", str(out), "--config", str(cfg), "--grid-points", "51") == 0
        one_header, *one_rows = _csv_rows(out / "cascade.csv")
        col = header.index(f"transmission_psi_{deg:g}_deg")
        one_col = one_header.index("transmission")
        assert [r[col] for r in rows] == [r[one_col] for r in one_rows]


def test_cascade_psi_sweep_computes_each_susceptibility_once(tmp_path, monkeypatch):
    """Both cells in one susceptibilities call (one Voigt block), shared by every angle."""
    calls = []
    real = lineshape.susceptibilities

    def counting(cells, grid_ghz):
        cells = list(cells)
        calls.append([cell.name for cell in cells])
        return real(cells, grid_ghz)

    # lineshape.susceptibility goes through lineshape.susceptibilities, so this sees it too
    for module in (cli, propagation, lineshape):
        monkeypatch.setattr(module, "susceptibilities", counting)
    assert run("cascade", "--out", str(tmp_path), "--grid-points", "51", "--psi-sweep") == 0
    assert [names for names in calls if names] == [["absorption", "faraday"]]


def test_spectrum_faraday_computes_one_susceptibility(tmp_path, monkeypatch):
    cells = []
    real = propagation.susceptibility

    def counting(cell, grid_ghz, *args, **kwargs):
        cells.append(cell.name)
        return real(cell, grid_ghz, *args, **kwargs)

    monkeypatch.setattr(cli, "susceptibility", counting)
    monkeypatch.setattr(propagation, "susceptibility", counting)
    assert run("spectrum", "--out", str(tmp_path), "--cell", "faraday", "--grid-points", "51") == 0
    assert cells == ["faraday"]


def test_optimize_command_with_trace(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "optimizer": {
            "budget": 150,
            "box": {"t_abs_c": [100, 100], "t_far_c": [102, 102],
                    "b_abs_mt": [10, 10], "b_far_mt": [10, 10]},
        },
    }))
    assert run("optimize", "--out", str(tmp_path), "--config", str(cfg),
               "--trace") == 0
    doc = json.loads((tmp_path / "optimize.json").read_text())
    assert doc["best_params"]["t_abs_c"] == pytest.approx(100.0)
    assert doc["best_params"]["b_far_mt"] == pytest.approx(10.0)
    assert doc["objective"] == pytest.approx(0.27792, abs=2e-4)
    assert doc["signal_transmissions"]["-2.3"] == pytest.approx(0.66871, abs=2e-4)
    assert "config_hash" in doc
    header, *rows = _csv_rows(tmp_path / "optimize_trace.csv")
    assert header == ["evaluation", "t_abs_c", "t_far_c", "b_abs_mt", "b_far_mt", "objective"]
    assert len(rows) == doc["trace_length"]


def test_optimize_report_keys_each_detuning_by_its_full_value(tmp_path):
    """Two signal detunings that agree to six digits keep a key each, and every
    key reads back as the detuning it was configured as."""
    signal = [1.2345671, 1.2345672]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fom": {"signal_detunings_ghz": signal},
                               "optimizer": {"budget": 100}}))
    assert run("optimize", "--out", str(tmp_path), "--config", str(cfg)) == 0
    doc = json.loads((tmp_path / "optimize.json").read_text())
    noise = doc["config"]["fom"]["noise_detunings_ghz"]
    assert [float(k) for k in doc["signal_transmissions"]] == signal
    assert [float(k) for k in doc["noise_suppressions_db"]] == noise


def test_optimize_scores_the_config_cells(tmp_path):
    """The search sets temperatures and fields; every other cell key is the config's."""
    box = {"t_abs_c": [100, 100], "t_far_c": [102, 102], "b_abs_mt": [10, 10], "b_far_mt": [10, 10]}
    docs = {}
    for length_cm in (30, 20):
        cfg = tmp_path / f"cfg_{length_cm}.json"
        cfg.write_text(json.dumps({"cells": {"faraday": {"length_cm": length_cm}},
                                   "optimizer": {"budget": 100, "box": box}}))
        out = tmp_path / str(length_cm)
        assert run("optimize", "--out", str(out), "--config", str(cfg)) == 0
        docs[length_cm] = json.loads((out / "optimize.json").read_text())
    assert docs[30]["objective"] == pytest.approx(0.27792, abs=2e-4)
    assert docs[20]["objective"] != pytest.approx(docs[30]["objective"], abs=1e-3)
    assert docs[20]["signal_transmissions"] != docs[30]["signal_transmissions"]


def test_photon_sim_command(tmp_path):
    frames = 5000
    assert frames % io.CHUNK_ROWS != 0  # a short last chunk is written too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"frames": frames}}))
    assert run("photon-sim", "--out", str(tmp_path), "--config", str(cfg),
               "--frames-csv") == 0
    doc = json.loads((tmp_path / "photon_summary.json").read_text())
    assert doc["summary"]["n_frames"] == 5000
    assert doc["summary"]["analytic_pair_correlation"] == pytest.approx(0.38529, abs=1e-4)
    assert abs(doc["summary"]["mean_on_pair"] - 0.38529) < 0.05
    header, *rows = _csv_rows(tmp_path / "correlation_map.csv")
    assert header[0] == "stokes_region"
    assert len(header[1:]) == 10

    lines = (tmp_path / "frames.csv").read_text().splitlines()
    assert lines[0] == "frame,region,n_s,n_as"
    assert len(lines) == 1 + frames * 10
    resolved = load_config(str(cfg))
    batch = simulate_frames(resolved.frames, resolved.noise, seed=resolved.seed,
                            layout=resolved.layout)
    frame, region = np.divmod(np.arange(frames * 10), 10)
    expected = np.column_stack([frame, region, batch.n_s.ravel(), batch.n_as.ravel()])
    assert lines[1:] == [",".join(map(str, row)) for row in expected.tolist()]


@pytest.mark.parametrize("flags, draws", [([], 8), (["--frames-csv"], 16)],
                         ids=["summary", "frames-csv"])
def test_photon_sim_draws_each_chunk_once_per_pass(tmp_path, monkeypatch, flags, draws):
    """The preset's 1e5 frames of 10 regions are 8 chunks.  simulate_frames
    draws each once and reduces it to block sums, which nothing computes again
    after it returns; --frames-csv draws every chunk a second time for the file."""
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append(name)
            return out
        return call

    monkeypatch.setattr(photon_stats, "_draw_chunk", counted("draw", photon_stats._draw_chunk))
    monkeypatch.setattr(photon_stats, "_run_sums", counted("moments", photon_stats._run_sums))
    monkeypatch.setattr(cli, "simulate_frames", counted("returned", cli.simulate_frames))
    assert run("photon-sim", "--preset", "paper-optimum", "--seed", "5", *flags,
               "--out", str(tmp_path)) == 0
    returned = calls.index("returned")
    assert calls[:returned].count("draw") == 8 and "moments" in calls[:returned]
    assert calls.count("draw") == draws
    assert "moments" not in calls[returned:]


def _photon_sim_peak_rss_mb(tmp_path, frames) -> float:
    """Peak RSS of a fresh photon-sim --frames-csv process at this frame count.

    The child reads its own VmHWM, the high-water mark of the address space it
    runs in: its ru_maxrss would start from this test process's RSS, which
    the kernel folds in at exec.
    """
    cfg = tmp_path / f"frames-{frames}.json"
    cfg.write_text(json.dumps({"noise": {"frames": frames}}))
    code = ("import sys; from rbfilter.cli import main; rc = main(sys.argv[1:]); "
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); sys.exit(rc)")
    src = str(Path(rbfilter.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, "photon-sim", "--frames-csv",
                           "--config", str(cfg), "--out", str(tmp_path / str(frames))],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024  # VmHWM is in kB


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's /proc")
def test_photon_sim_frames_csv_memory_does_not_grow_with_frames(tmp_path):
    """frames.csv is written as each chunk is drawn again: four times the frames
    (whose count arrays would be 12 MB more) peak within a few MB."""
    assert _photon_sim_peak_rss_mb(tmp_path, 400_000) <= _photon_sim_peak_rss_mb(tmp_path, 100_000) + 6


def test_every_csv_parses_by_the_readme_recipe_and_ends_rows_in_crlf(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"points": 51}, "noise": {"frames": 300},
                               "optimizer": {"budget": 100}}))
    common = ("--out", str(tmp_path), "--config", str(cfg))
    for argv in (["lines"], ["spectrum"], ["cascade", "--psi-sweep"], ["optimize", "--trace"],
                 ["photon-sim", "--frames-csv"]):
        assert run(*argv, *common) == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["cascade_psi_sweep.csv", "correlation_map.csv", "frames.csv",
                     "lines_rb85.csv", "lines_rb87.csv", "optimize_trace.csv",
                     "spectrum_absorption.csv"]
    for name in names:
        path = tmp_path / name
        data = np.genfromtxt(path, delimiter=",", names=True)
        text = path.read_bytes()
        assert data.size == text.count(b"\n") - 1 > 0, name
        assert text.count(b"\r\n") == text.count(b"\n") and text.endswith(b"\r\n"), name


@pytest.mark.parametrize("argv, name", [(["spectrum", "--grid-points", "51"],
                                         "spectrum_absorption.csv"),
                                        (["constants"], "constants.json")])
def test_exit_3_when_the_output_path_is_a_directory(tmp_path, capsys, argv, name):
    (tmp_path / name).mkdir()
    assert run(*argv, "--out", str(tmp_path)) == 3
    assert name in capsys.readouterr().err


def test_photon_sim_seed_override_changes_sample_not_analytic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"frames": 2000}}))
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert run("photon-sim", "--out", str(a_dir), "--config", str(cfg),
               "--seed", "1") == 0
    assert run("photon-sim", "--out", str(b_dir), "--config", str(cfg),
               "--seed", "2") == 0
    a = json.loads((a_dir / "photon_summary.json").read_text())["summary"]
    b = json.loads((b_dir / "photon_summary.json").read_text())["summary"]
    assert a["analytic_pair_correlation"] == b["analytic_pair_correlation"]
    assert a["mean_on_pair"] != b["mean_on_pair"]


def test_fit_command_round_trip(tmp_path):
    template = CellConfig(name="absorption", length_m=0.30, temperature_k=373.15,
                          b_field_t=1.0e-2, geometry=TRANSVERSE,
                          rb85_fraction=0.985, rb87_fraction=0.015)
    grid = np.linspace(-12.0, 12.0, 201)
    data = str(tmp_path / "measured.csv")
    write_spectrum_csv(data, grid, {"transmission": model_transmission(template, grid)})

    assert run("fit", "--out", str(tmp_path), "--data", data,
               "--free", "temperature_c", "--initial", "temperature_c=95") == 0
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["fitted_params"]["temperature_c"] == pytest.approx(100.0, abs=0.05)
    assert doc["rms_transmission_error"] < 1e-6
    assert doc["degenerate"] is False
    assert doc["free_params"] == ["temperature_c"]
    assert doc["n_rows"] == 201


@pytest.mark.parametrize("config", [["--preset", "paper-optimum"],
                                    {"chain": {"wollaston_extinction": 0.01}}],
                         ids=["preset-extinction", "extinction-0.01"])
def test_fit_recovers_the_faraday_cell_from_its_spectrum(tmp_path, config):
    """fit models a longitudinal cell behind the config's analyzer, as
    spectrum does, so the noiseless spectrum gives back the cell exactly."""
    if isinstance(config, dict):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        config = ["--config", str(tmp_path / "cfg.json")]
    common = [*config, "--out", str(tmp_path), "--cell", "faraday"]
    assert run("spectrum", *common) == 0
    assert run("fit", *common, "--data", str(tmp_path / "spectrum_faraday.csv"),
               "--free", "temperature_c,b_field_mt", "--initial", "temperature_c=96,b_field_mt=12") == 0
    fitted = json.loads((tmp_path / "fit.json").read_text())["fitted_params"]
    assert fitted["temperature_c"] == pytest.approx(PAPER_OPTIMUM.t_far_c, rel=1e-6)
    assert fitted["b_field_mt"] == pytest.approx(PAPER_OPTIMUM.b_far_mt, rel=1e-6)


@pytest.mark.parametrize("argv", [
    pytest.param(["constants"], id="constants"),
    pytest.param(["lines", "--cell", "absorption"], id="lines"),
    pytest.param(["spectrum", "--cell", "faraday"], id="spectrum"),
    pytest.param(["cascade", "--psi-sweep"], id="cascade"),
    pytest.param(["optimize", "--trace"], id="optimize"),
    pytest.param(["photon-sim", "--frames-csv"], id="photon-sim"),
    pytest.param(["fit", "--data", "measured.csv", "--free", "temperature_c",
                  "--initial", "temperature_c=95"], id="fit"),
])
def test_stdout_is_each_file_written_in_write_order(tmp_path, monkeypatch, capsys, argv):
    """A command prints the path of every file it creates in --out, one per
    line, in the order it wrote them, and nothing else."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"frames": 2000}, "grid": {"points": 101},
                               "optimizer": {"budget": 100}}))
    grid = np.linspace(-12.0, 12.0, 101)
    write_spectrum_csv(tmp_path / "measured.csv", grid,
                       {"transmission": model_transmission(load_config().cells["absorption"], grid)})
    monkeypatch.chdir(tmp_path)
    written = []

    def recording_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            written.append(str(path))
        return open(path, mode, *args, **kwargs)

    # every writer in rbfilter.io opens its file through this name
    monkeypatch.setattr(io, "open", recording_open, raising=False)
    assert run(*argv, "--config", str(cfg), "--out", "out") == 0
    assert capsys.readouterr().out.splitlines() == written
    assert sorted(written) == sorted(str(p) for p in Path("out").iterdir())


def test_preset_flag_accepted(tmp_path):
    assert run("cascade", "--out", str(tmp_path), "--grid-points", "51",
               "--preset", "paper-optimum") == 0
    assert (tmp_path / "cascade.csv").exists()


# ----------------------------------------------------------- import floor

# Imports the CLI in a fresh interpreter, runs the command given (if any) and
# prints the modules loaded.
CHILD = """
import sys
import rbfilter.cli
code = rbfilter.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(sys.modules))
sys.exit(code)
"""


def modules_loaded_by(*argv) -> set[str]:
    src = str(Path(rbfilter.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def scipy_loaded_by(*argv) -> set[str]:
    return {m for m in modules_loaded_by(*argv) if m == "scipy" or m.startswith("scipy.")}


def test_importing_the_cli_loads_no_scipy():
    assert scipy_loaded_by() == set()


def test_importing_the_cli_loads_no_thread_pool():
    assert "concurrent.futures" not in modules_loaded_by()


@pytest.mark.parametrize("argv", [
    pytest.param(["constants"], id="constants"),
    pytest.param(["lines"], id="lines"),
    pytest.param(["photon-sim", "--frames-csv"], id="photon-sim"),
    pytest.param(["spectrum", "--cell", "absorption"], id="spectrum-absorption"),
    pytest.param(["spectrum", "--cell", "faraday"], id="spectrum-faraday"),
    pytest.param(["cascade"], id="cascade"),
    pytest.param(["cascade", "--psi-sweep"], id="cascade-psi-sweep"),
    pytest.param(["fit", "--data", "measured.csv", "--free", "temperature_c,b_field_mt",
                  "--initial", "temperature_c=96,b_field_mt=12"], id="fit"),
    pytest.param(["optimize"], id="optimize"),
])
def test_commands_that_need_no_scipy_load_none(tmp_path, monkeypatch, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"frames": 2000}, "grid": {"points": 101},
                               "optimizer": {"budget": 100}}))
    grid = np.linspace(-12.0, 12.0, 101)
    absorption = load_config().cells["absorption"]
    write_spectrum_csv(tmp_path / "measured.csv", grid,
                       {"transmission": model_transmission(absorption, grid)})
    monkeypatch.chdir(tmp_path)  # the child reads measured.csv from its working directory
    assert scipy_loaded_by(*argv, "--config", str(cfg), "--out", str(tmp_path)) == set()


@pytest.mark.parametrize("buffer_pressure_pa", [0.0, 1e6])
@pytest.mark.parametrize("b_field_mt", [0.0, 300.0])
def test_extreme_cells_on_the_widest_grid_exit_0(tmp_path, b_field_mt, buffer_pressure_pa):
    """20 C cells on the +-1e4 GHz grid put |Re z| near 3.5e4, and 1e6 Pa of
    buffer gas Im z near 2e2: under the CLI's errstate the Faddeeva kernel
    must stay finite and raise nothing."""
    cell = {"temperature_c": 20.0, "b_field_mt": b_field_mt, "buffer_pressure_pa": buffer_pressure_pa}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"points": 401, "lo_ghz": -1e4, "hi_ghz": 1e4},
                               "cells": {"absorption": cell, "faraday": cell}}))
    for argv, name in ((["cascade", "--psi-sweep"], "cascade_psi_sweep.csv"),
                       (["spectrum", "--cell", "faraday"], "spectrum_faraday.csv")):
        assert run(*argv, "--config", str(cfg), "--out", str(tmp_path)) == 0
        _, cols = read_spectrum_csv(str(tmp_path / name))
        assert all(np.all(np.isfinite(col)) for col in cols.values())


# ------------------------------------------------------------- exit codes

def test_exit_2_on_bad_grid_points(tmp_path):
    assert run("spectrum", "--out", str(tmp_path), "--grid-points", "1") == 2


def test_exit_2_on_negative_seed(tmp_path):
    assert run("constants", "--out", str(tmp_path), "--seed", "-5") == 2


@pytest.mark.parametrize("flag, value, path", [("--grid-points", "10000001", "grid.points"),
                                               ("--seed", str(2**70), "seed")])
def test_exit_2_on_override_outside_config_range(tmp_path, capsys, flag, value, path):
    """CLI overrides go through the config's own ranges (constants allocates no grid)."""
    assert run("constants", "--out", str(tmp_path), flag, value) == 2
    assert f"config error: {path}: value {value} outside valid range" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", '{"grid": 5}'])
def test_exit_2_when_overrides_meet_a_malformed_config(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run("constants", "--out", str(tmp_path), "--config", str(cfg),
               "--seed", "1", "--grid-points", "51") == 2


def test_exit_2_on_optimizer_box_outside_cell_range(tmp_path, capsys):
    cfg = tmp_path / "box.json"
    cfg.write_text(json.dumps({"optimizer": {"budget": 400, "box": {"t_abs_c": [0, 400]}}}))
    assert run("optimize", "--out", str(tmp_path), "--config", str(cfg)) == 2
    assert "optimizer.box.t_abs_c: value 400 outside valid range" in capsys.readouterr().err
    assert not (tmp_path / "optimize.json").exists()


def test_exit_2_on_nan_detuning(tmp_path):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"fom": {"signal_detunings_ghz": [NaN, 7.8]}}')
    assert run("constants", "--out", str(tmp_path), "--config", str(cfg)) == 2


def test_exit_2_on_detuning_outside_the_grid_range(tmp_path, capsys):
    """A huge detuning is a config error, not an overflow in the search."""
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({"fom": {"signal_detunings_ghz": [1e300, 7.8]}}))
    assert run("optimize", "--out", str(tmp_path), "--config", str(cfg)) == 2
    assert ("config error: fom.signal_detunings_ghz: value 1e+300 outside valid range"
            in capsys.readouterr().err)
    assert not (tmp_path / "optimize.json").exists()


def test_exit_2_on_frame_arrays_past_the_count_bound(tmp_path, capsys):
    cfg = tmp_path / "frames.json"
    cfg.write_text(json.dumps({"noise": {"frames": 10**8, "n_regions": 1000}}))
    assert run("photon-sim", "--out", str(tmp_path), "--config", str(cfg)) == 2
    assert "config error: noise.frames: frames x n_regions" in capsys.readouterr().err
    assert not (tmp_path / "photon_summary.json").exists()


@pytest.mark.parametrize("preset", [["filtered"], {"name": "filtered"}, 1])
def test_exit_2_on_noise_preset_that_is_not_a_name(tmp_path, capsys, preset):
    cfg = tmp_path / "preset.json"
    cfg.write_text(json.dumps({"noise": {"preset": preset}}))
    assert run("constants", "--out", str(tmp_path), "--config", str(cfg)) == 2
    assert "config error: noise.preset: must be one of" in capsys.readouterr().err


def test_exit_2_on_malformed_config(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run("constants", "--out", str(tmp_path), "--config", str(cfg)) == 2


def test_exit_2_on_invalid_config_value(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"cells": {"absorption": {"temperature_c": 500}}}))
    assert run("spectrum", "--out", str(tmp_path), "--config", str(cfg)) == 2
    # a cell the validator accepts, but with no line to list
    cfg.write_text(json.dumps({"cells": {"faraday": {"rb85_fraction": 0, "rb87_fraction": 0}}}))
    assert run("lines", "--cell", "faraday", "--out", str(tmp_path), "--config", str(cfg)) == 2
    assert "config error: cells.faraday: both isotope fractions are zero" in capsys.readouterr().err
    assert not list(tmp_path.glob("lines_*.csv"))


def test_exit_2_on_preset_config_conflict(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert run("constants", "--out", str(tmp_path), "--preset", "paper-optimum",
               "--config", str(cfg)) == 2


def test_exit_3_on_missing_config_file(tmp_path):
    assert run("constants", "--out", str(tmp_path),
               "--config", str(tmp_path / "absent.json")) == 3


def test_exit_3_on_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b'\xff\xfe{"seed": 1}')
    assert run("constants", "--out", str(tmp_path), "--config", str(cfg)) == 3
    assert f"cannot read config {cfg}" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"detuning_ghz,transmission\n0,\xff\n",
                                     b"detuning_ghz,transmission\n0,\"" + b"1" * 131073 + b"\"\n"])
def test_exit_3_on_unreadable_fit_data(tmp_path, capsys, content):
    """A byte that is not UTF-8, and a field past csv's 131 072-character limit."""
    data = tmp_path / "m.csv"
    data.write_bytes(content)
    assert run("fit", "--out", str(tmp_path), "--data", str(data),
               "--free", "temperature_c", "--initial", "temperature_c=95") == 3
    assert f"{data}: unreadable CSV" in capsys.readouterr().err


def test_exit_3_on_missing_fit_data(tmp_path):
    assert run("fit", "--out", str(tmp_path), "--data", str(tmp_path / "no.csv"),
               "--free", "temperature_c", "--initial", "temperature_c=95") == 3


def test_exit_2_on_unknown_fit_parameter(tmp_path, capsys):
    grid = np.linspace(-5.0, 5.0, 60)
    data = str(tmp_path / "m.csv")
    write_spectrum_csv(data, grid, {"transmission": np.full(60, 0.5)})
    assert run("fit", "--out", str(tmp_path), "--data", data,
               "--free", "pressure_pa", "--initial", "pressure_pa=1") == 2
    # every fit parameter is a cell key in config units: the length is length_cm
    assert run("fit", "--out", str(tmp_path), "--data", data,
               "--free", "length_m", "--initial", "length_m=0.3") == 2
    err = capsys.readouterr().err
    assert "fit: unknown free parameter 'length_m'" in err and "'length_cm'" in err
    assert run("fit", "--out", str(tmp_path), "--data", data,
               "--free", "temperature_c", "--initial", "temperature_c:95") == 2
    assert run("fit", "--out", str(tmp_path), "--data", data,
               "--free", "temperature_c", "--initial", "temperature_c=abc") == 2
    assert "config error: --initial temperature_c: not a number: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("initial", ["temperature_c=98,b_field_mt=12",
                                     "temperature_c=98,length_cm=12",
                                     "temperature_c=98,length_m=0.3"])
def test_exit_2_on_an_initial_value_for_a_parameter_not_free(tmp_path, capsys, initial):
    grid = np.linspace(-5.0, 5.0, 60)
    data = str(tmp_path / "m.csv")
    write_spectrum_csv(data, grid, {"transmission": np.full(60, 0.5)})
    assert run("fit", "--out", str(tmp_path), "--data", data, "--free", "temperature_c",
               "--initial", initial) == 2
    extra = initial.split(",")[1].split("=")[0]
    assert f"fit: initial value for {extra!r}, which is not free" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_exit_2_on_repeated_fit_parameter(tmp_path, capsys):
    grid = np.linspace(-5.0, 5.0, 60)
    data = str(tmp_path / "m.csv")
    write_spectrum_csv(data, grid, {"transmission": np.full(60, 0.5)})
    assert run("fit", "--out", str(tmp_path), "--data", data, "--free", "temperature_c,temperature_c",
               "--initial", "temperature_c=95") == 2
    assert "fit: free parameter 'temperature_c' listed more than once" in capsys.readouterr().err


def test_exit_2_on_repeated_initial_key(tmp_path, capsys):
    grid = np.linspace(-5.0, 5.0, 60)
    data = str(tmp_path / "m.csv")
    write_spectrum_csv(data, grid, {"transmission": np.full(60, 0.5)})
    assert run("fit", "--out", str(tmp_path), "--data", data, "--free", "temperature_c",
               "--initial", "temperature_c=60,temperature_c=98") == 2
    assert "--initial temperature_c given more than once" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def _raise_numerical_error(*args, **kwargs):
    raise NumericalError("objective returned non-finite value")


def _overflow(*args, **kwargs):
    return np.exp(np.float64(1e3))  # a FloatingPointError under main's errstate


@pytest.mark.parametrize("callee, message", [(_raise_numerical_error, "non-finite value"),
                                             (_overflow, "overflow")],
                         ids=["numerical", "floating-point"])
def test_exit_4_on_numerical_failure(tmp_path, capsys, monkeypatch, callee, message):
    monkeypatch.setattr(cli, "optimize", callee)
    assert run("optimize", "--out", str(tmp_path)) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and message in err
    assert not (tmp_path / "optimize.json").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc_info:
        run("--version")
    assert exc_info.value.code == 0
