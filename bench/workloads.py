"""The four benchmark workloads: seeded inputs, timed operations and their gates.

Every input comes from ``np.random.default_rng([seed, ...])`` keyed by the
workload seed and the operation index, so one seed always yields the same
inputs.  Operations call rbfilter through module attributes at call time, so
the wrappers in ``tracing.py`` see them when installed.

An operation is "short" or "long" (the workload's big item).  Both kinds
recur through the run, so a run's median of each rests on more than one
sample.  ``items`` is the work an operation completed, for the throughput metric.  The
first ``period`` operations of ``ops()`` hold every kind of operation the
workload has and are what a traced run executes.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import rbfilter.fitting as rfit
import rbfilter.lineshape as rls
import rbfilter.photon_stats as rph
import rbfilter.propagation as rprop
from rbfilter.zeeman import zeeman_lines  # the cached function itself: owns cache_clear()

# the package re-exports the optimize() function under the submodule's name
ropt = importlib.import_module("rbfilter.optimize")

SPECTRUM_GRID = np.linspace(-15.0, 15.0, 4001)
WIDE_GRID = np.linspace(-400.0, 400.0, 1 << 17)  # acceptance criterion 08's grid
FIT_GRID = np.linspace(-12.0, 12.0, 201)  # acceptance criterion 10's grid
PAPER_SIGNAL_T = {-2.3: 0.65, 7.8: 0.40}  # acceptance criterion 05, each +-0.15


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def derived_seed(seed: int, *keys: int) -> int:
    return int(rng_for(seed, *keys).integers(2**32))


@dataclass
class Op:
    """One timed operation.  check(result, elapsed_s) -> (items, failures)."""

    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object, float], tuple[float, list[str]]]
    group: int = 0
    program_seed: int | None = None
    run_traced: Callable[[], object] | None = None  # replaces run in a traced pass
    inputs: tuple = ()  # the generated inputs, for the determinism self-test


def _in_unit_interval(name: str, t) -> list[str]:
    t = np.asarray(t)
    if not np.all(np.isfinite(t)):
        return [f"{name}: non-finite transmission"]
    if t.min() < 0.0 or t.max() > 1.0:
        return [f"{name}: transmission outside [0, 1] ({t.min():.3g}..{t.max():.3g})"]
    return []


# ---------------------------------------------------------------------------
# design-search


def _fit_template() -> rls.CellConfig:
    absorption, _ = ropt.build_cells(ropt.PAPER_OPTIMUM)
    return replace(absorption, name="fit")


class DesignSearch:
    """optimize(budget=2000) from a cold Zeeman cache, alternating with fit pairs."""

    name = "design-search"
    period = 2
    whole_groups = False
    BUDGET = 2000

    def __init__(self, seed: int, work: Path, launcher=None):
        self.seed = seed
        self.reference = ropt.score(ropt.PAPER_OPTIMUM).objective
        self.box = ropt.ParamBox()

    def ops(self) -> Iterator[Op]:
        k = 0
        while True:
            yield self._design(k)
            yield self._fit_pair(k)
            k += 1

    def _design(self, k: int) -> Op:
        opt_seed = derived_seed(self.seed, 1, k)

        def run():
            zeeman_lines.cache_clear()
            return ropt.optimize(budget=self.BUDGET, seed=opt_seed)

        def check(res, elapsed):
            bad = []
            if not res.best_objective >= self.reference:
                bad.append(f"design: best {res.best_objective} below reference {self.reference}")
            if not self.box.contains(res.best_params):
                bad.append(f"design: best point {res.best_params} outside the box")
            if not res.wall_time_s <= elapsed:
                bad.append(f"design: wall_time_s {res.wall_time_s} exceeds outside time {elapsed}")
            return res.n_evaluations, bad

        return Op("design", "long", run, check, program_seed=opt_seed, inputs=(opt_seed,))

    def _fit_pair(self, k: int) -> Op:
        rng = rng_for(self.seed, 2, k)
        t_c = float(rng.uniform(95.0, 105.0))
        b_mt = float(rng.uniform(8.0, 12.0))
        template = _fit_template()
        truth = rfit.model_transmission(
            replace(template, temperature_k=273.15 + t_c, b_field_t=b_mt * 1e-3), FIT_GRID)
        noisy = np.clip(truth + rng.normal(0.0, 0.01, truth.size), 0.0, 1.0)

        def run():
            zeeman_lines.cache_clear()
            both = rfit.fit_spectrum(rfit.MeasuredSpectrum(FIT_GRID, truth),
                                     ["temperature_c", "b_field_mt"],
                                     {"temperature_c": t_c - 4.0, "b_field_mt": b_mt + 2.0}, template)
            t_only = rfit.fit_spectrum(rfit.MeasuredSpectrum(FIT_GRID, noisy), ["temperature_c"],
                                       {"temperature_c": t_c - 5.0}, template)
            return both, t_only

        def check(res, elapsed):
            both, t_only = res
            bad = []
            t_rel = abs(both.params["temperature_c"] - t_c) / t_c
            b_rel = abs(both.params["b_field_mt"] - b_mt) / b_mt
            if not (t_rel < 0.01 and b_rel < 0.01):
                bad.append(f"fit T,B: relative errors {t_rel:.2e}, {b_rel:.2e} (tol 1e-2)")
            t_err = abs(t_only.params["temperature_c"] - t_c)
            if not t_err <= 2.0:
                bad.append(f"fit T with 1% noise: error {t_err:.3f} C (tol 2 C)")
            return 0, bad  # the throughput metric counts objective evaluations only

        return Op("fit_pair", "short", run, check, inputs=(t_c, b_mt, truth.tobytes(), noisy.tobytes()))


# ---------------------------------------------------------------------------
# spectrum-sweep


class SpectrumSweep:
    """4001-point dual-filter spectra over the box; a wide-grid spectrum every 24."""

    name = "spectrum-sweep"
    period = 25  # the wide spectrum, the paper point, 23 drawn operating points
    whole_groups = False

    def __init__(self, seed: int, work: Path, launcher=None):
        self.seed = seed
        self.box = ropt.ParamBox()

    def ops(self) -> Iterator[Op]:
        yield self._wide()
        yield self._spectrum(ropt.PAPER_OPTIMUM, paper=True)
        k = 1
        while True:
            if k % (self.period - 1) == 0:
                yield self._wide()
            x = self.box.lower() + rng_for(self.seed, 3, k).random(4) * (
                self.box.upper() - self.box.lower())
            yield self._spectrum(ropt.ChainParams.from_array(x), paper=False)
            k += 1

    def _spectrum(self, params: ropt.ChainParams, paper: bool) -> Op:
        absorption, faraday = ropt.build_cells(params)

        def run():
            zeeman_lines.cache_clear()
            t = rprop.dual_filter(absorption, faraday).transmission(SPECTRUM_GRID)
            theta, t_rot = rprop.faraday_rotation(faraday, SPECTRUM_GRID)
            return t, theta, t_rot

        def check(res, elapsed):
            t, theta, t_rot = res
            bad = _in_unit_interval(f"spectrum at {params}", t)
            if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(t_rot))):
                bad.append(f"spectrum at {params}: non-finite Faraday rotation")
            if paper:
                for d, want in PAPER_SIGNAL_T.items():
                    got = float(np.interp(d, SPECTRUM_GRID, t))
                    if not abs(got - want) <= 0.15:
                        bad.append(f"paper point: T({d} GHz) = {got:.3f}, want {want}+-0.15")
            return 1, bad

        return Op("spectrum", "short", run, check, inputs=(params,))

    def _wide(self) -> Op:
        absorption, faraday = ropt.build_cells(ropt.PAPER_OPTIMUM)

        def run():
            zeeman_lines.cache_clear()
            return rprop.dual_filter(absorption, faraday).transmission(WIDE_GRID)

        return Op("wide_spectrum", "long", run,
                  lambda t, elapsed: (0, _in_unit_interval("wide spectrum", t)))


# ---------------------------------------------------------------------------
# photon-stats


def criterion_07_model(rng: np.random.Generator) -> rph.NoiseModel:
    """A noise model drawn the way acceptance criterion 07 draws them."""
    return rph.NoiseModel(
        n_sig=float(rng.uniform(0.05, 1.0)),
        eta_s=float(rng.uniform(0.1, 0.9)),
        eta_as=float(rng.uniform(0.1, 0.9)),
        b_fluorescence=float(rng.uniform(0.0, 0.8)),
        b_leakage=float(rng.uniform(0.0, 0.8)),
        intensifier_per_frame=float(rng.uniform(0.0, 3.0)),
    )


class PhotonStats:
    """Frames simulated and fully summarised: 1e5-frame batches, 1e6-frame filtered batches."""

    name = "photon-stats"
    period = 8  # unfiltered preset, six drawn models, the filtered preset at 1e6 frames
    whole_groups = False
    BATCH = 100_000
    BIG_BATCH = 1_000_000

    def __init__(self, seed: int, work: Path, launcher=None):
        self.seed = seed

    def ops(self) -> Iterator[Op]:
        k = 0
        while True:
            if k == 0:
                yield self._batch(k, rph.unfiltered_preset()[0], self.BATCH, "short")
            elif k % self.period == self.period - 1:
                yield self._batch(k, rph.filtered_preset()[0], self.BIG_BATCH, "long", filtered=True)
            else:
                yield self._batch(k, criterion_07_model(rng_for(self.seed, 4, k)), self.BATCH, "short")
            k += 1

    def _batch(self, k: int, noise: rph.NoiseModel, frames: int, kind: str,
               filtered: bool = False) -> Op:
        layout = rph.RegionLayout()
        sim_seed = derived_seed(self.seed, 5, k)
        analytic = rph.analytic_pair_correlation(noise, layout)

        def summarise(seed):
            batch = rph.simulate_frames(frames, noise, seed=seed, layout=layout)
            return rph.pair_correlation_summary(batch), rph.correlation_map(batch)

        def deviation(summary):
            return abs(summary["mean_on_pair"] - analytic) / summary["se_on_pair"]

        def check(res, elapsed):
            summary, cmap = res
            bad = []
            if cmap.shape != (layout.n_regions, layout.n_regions) or not np.all(np.isfinite(cmap)):
                bad.append("correlation map has the wrong shape or non-finite entries")
            # A 3-standard-error gate fires by chance on 0.27 % of correct batches.
            # It counts as a failure only when an independent re-draw (untimed)
            # misses it as well, which a real bias does and chance almost never.
            if deviation(summary) >= 3.0:
                again = summarise(derived_seed(self.seed, 6, k))[0]
                if deviation(again) >= 3.0:
                    bad.append(f"C_MC {summary['mean_on_pair']:.4f} vs analytic {analytic:.4f}: "
                               f"{deviation(summary):.2f} and {deviation(again):.2f} SE (< 3)")
            if filtered and not abs(summary["mean_on_pair"] - 0.38) <= 0.05:
                bad.append(f"filtered preset C = {summary['mean_on_pair']:.3f}, want 0.38+-0.05")
            return frames, bad

        return Op(f"frames_{frames}", kind, lambda: summarise(sim_seed), check,
                  program_seed=sim_seed, inputs=(noise, frames, sim_seed))


# ---------------------------------------------------------------------------
# cli-session


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path.name}: no data rows")
    return rows[0], rows[1:]


def _numeric_csv(path: Path) -> dict[str, np.ndarray]:
    header, body = _read_csv(path)
    data = np.array(body, dtype=float)
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} fields, header has {len(header)}")
    return {name: data[:, j] for j, name in enumerate(header)}


CLI_LABELS = ("constants", "lines", "spectrum_absorption", "spectrum_faraday", "cascade",
              "cascade_psi_sweep", "photon_sim", "fit", "optimize")


class CliSession:
    """Every subcommand once, each as a fresh interpreter, one after another."""

    name = "cli-session"
    period = len(CLI_LABELS)
    whole_groups = True  # a session is timed whole, so the run stops between sessions
    OPTIMIZE_BUDGET = 200

    def __init__(self, seed: int, work: Path, launcher=None):
        self.seed = seed
        self.work = work
        self.launcher = launcher  # a launch.Launcher; needed to run commands
        self.root = Path(__file__).resolve().parent.parent
        self.shim_dir = work / "shim"  # span totals of traced CLI children
        self.children_peak_rss_mb = 0.0
        self.reference = ropt.score(ropt.PAPER_OPTIMUM).objective
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def ops(self) -> Iterator[Op]:
        k = 0
        while True:
            yield from self._session(k)
            k += 1

    def _session(self, k: int) -> list[Op]:
        out = self.work / f"session_{k}"
        out.mkdir(parents=True, exist_ok=True)
        rng = rng_for(self.seed, 7, k)
        t_c = float(rng.uniform(95.0, 105.0))
        b_mt = float(rng.uniform(8.0, 12.0))
        template = _fit_template()
        truth = rfit.model_transmission(
            replace(template, temperature_k=273.15 + t_c, b_field_t=b_mt * 1e-3), FIT_GRID)
        data = out / "measured.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detuning_ghz", "transmission"])
            writer.writerows(zip(FIT_GRID.tolist(), truth.tolist()))
        sim_seed = derived_seed(self.seed, 8, k)
        opt_seed = derived_seed(self.seed, 9, k)
        config = out / "optimize_config.json"
        config.write_text(json.dumps({"seed": opt_seed,
                                      "optimizer": {"budget": self.OPTIMIZE_BUDGET}}))
        preset = ["--preset", "paper-optimum", "--out", str(out)]

        def spectrum_check(name):
            return lambda: _in_unit_interval(name, _numeric_csv(out / name)["transmission"])

        def cascade_sweep_check():
            cols = _numeric_csv(out / "cascade_psi_sweep.csv")
            if len(cols) != 8:
                return [f"cascade_psi_sweep.csv: {len(cols) - 1} sweep columns, want 7"]
            return [e for name, t in cols.items() if name != "detuning_ghz"
                    for e in _in_unit_interval(name, t)]

        def lines_check():
            bad = []
            for iso in ("rb85", "rb87"):
                header, body = _read_csv(out / f"lines_{iso}.csv")
                if header != ["offset_ghz", "component", "strength"]:
                    bad.append(f"lines_{iso}.csv: header {header}")
                elif min(float(r[2]) for r in body) < 0.0 or not all(math.isfinite(float(r[0])) for r in body):
                    bad.append(f"lines_{iso}.csv: bad offset or negative strength")
            return bad

        def constants_check():
            doc = json.loads((out / "constants.json").read_text())
            return [] if set(doc["isotopes"]) == {"Rb85", "Rb87"} else ["constants.json: isotopes"]

        def photon_check():
            json.loads((out / "photon_summary.json").read_text())
            cmap = _numeric_csv(out / "correlation_map.csv")
            frames = np.loadtxt(out / "frames.csv", delimiter=",", skiprows=1, dtype=np.int64)
            bad = [] if len(cmap) == 11 else ["correlation_map.csv: want 10 region columns"]
            if frames.shape != (1_000_000, 4) or frames.min() < 0:
                bad.append(f"frames.csv: shape {frames.shape}, want 1e6 rows of 4 counts >= 0")
            return bad

        def fit_check():
            params = json.loads((out / "fit.json").read_text())["fitted_params"]
            t_rel = abs(params["temperature_c"] - t_c) / t_c
            b_rel = abs(params["b_field_mt"] - b_mt) / b_mt
            return [] if t_rel < 0.01 and b_rel < 0.01 else [f"fit: relative errors {t_rel:.2e}, {b_rel:.2e}"]

        def optimize_check():
            doc = json.loads((out / "optimize.json").read_text())
            if not doc["objective"] >= self.reference:
                return [f"optimize: objective {doc['objective']} below reference {self.reference}"]
            return []

        commands = [  # (argv, output check, seed passed to the program), in CLI_LABELS order
            (["constants", *preset], constants_check, None),
            (["lines", *preset], lines_check, None),
            (["spectrum", "--cell", "absorption", *preset], spectrum_check("spectrum_absorption.csv"),
             None),
            (["spectrum", "--cell", "faraday", *preset], spectrum_check("spectrum_faraday.csv"), None),
            (["cascade", *preset], spectrum_check("cascade.csv"), None),
            (["cascade", "--psi-sweep", *preset], cascade_sweep_check, None),
            (["photon-sim", "--frames-csv", "--seed", str(sim_seed), *preset], photon_check,
             sim_seed),
            (["fit", "--data", str(data), "--free", "temperature_c,b_field_mt",
              "--initial", f"temperature_c={t_c - 4.0},b_field_mt={b_mt + 2.0}", *preset],
             fit_check, None),
            (["optimize", "--config", str(config), "--out", str(out)], optimize_check, opt_seed),
        ]
        inputs = (t_c, b_mt, data.read_bytes(), sim_seed, opt_seed)
        return [self._command(k, i, label, *command, inputs)
                for i, (label, command) in enumerate(zip(CLI_LABELS, commands))]

    def _command(self, k: int, i: int, label: str, argv: list[str], files_check,
                 program_seed: int | None, inputs: tuple) -> Op:
        def run(cmd=(sys.executable, "-m", "rbfilter.cli")):
            reply = self.launcher.run([*cmd, *argv], str(self.root), self.env)
            self.children_peak_rss_mb = max(self.children_peak_rss_mb, reply["peak_rss_mb"])
            return reply

        def run_traced():
            self.shim_dir.mkdir(exist_ok=True)
            dump = self.shim_dir / f"{k}_{i}_{label}.json"
            return run((sys.executable, str(Path(__file__).with_name("cli_shim.py")), str(dump)))

        def check(reply, elapsed):
            if reply["returncode"] != 0:
                return 1, [f"cli {label}: exit code {reply['returncode']}: {reply['stderr'].strip()[-300:]}"]
            try:
                return 1, files_check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return 1, [f"cli {label}: output does not parse: {exc!r}"]

        return Op(label, "short", run, check, group=k, program_seed=program_seed,
                  run_traced=run_traced, inputs=inputs)


WORKLOADS = {w.name: w for w in (DesignSearch, SpectrumSweep, PhotonStats, CliSession)}
