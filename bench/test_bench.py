"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import rbfilter.fitting as rfit  # noqa: E402
import rbfilter.io as rio  # noqa: E402
import rbfilter.lineshape as rls  # noqa: E402
import rbfilter.photon_stats as rph  # noqa: E402
import rbfilter.propagation as rprop  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ropt, zeeman_lines  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _calls(out_dir: Path):
    """A small call of every wrapped function family; returns comparable outputs."""
    zeeman_lines.cache_clear()
    absorption, faraday = ropt.build_cells(ropt.PAPER_OPTIMUM)
    grid = np.linspace(-12.0, 12.0, 201)
    spec = rprop.susceptibility(absorption, grid)
    chain_t = rprop.dual_filter(absorption, faraday).transmission(grid)
    opt = ropt.optimize(budget=100, seed=3)
    truth = rfit.model_transmission(absorption, grid)
    fit = rfit.fit_spectrum(rfit.MeasuredSpectrum(grid, truth), ["temperature_c"],
                            {"temperature_c": 97.0}, absorption)
    batch = rph.simulate_frames(2000, rph.filtered_preset()[0], seed=5)
    summary = rph.pair_correlation_summary(batch)
    cmap = rph.correlation_map(batch)
    path = out_dir / "spectrum.csv"
    rio.write_spectrum_csv(str(path), grid, {"transmission": chain_t})
    return {
        "faddeeva": rls.faddeeva(np.array([0.5 + 0.1j, 3.0 + 2.0j])),
        "chi": np.concatenate([spec.chi[m] for m in spec.modes]),
        "cascade": chain_t,
        "optimize": (opt.best_params, opt.best_objective, [(x.tolist(), v) for x, v in opt.trace]),
        "fit": (fit.params, fit.rms, fit.n_evaluations),
        "frames": np.concatenate([batch.n_s, batch.n_as]),
        "summary": summary,
        "map": cmap,
        "csv": path.read_bytes(),
    }


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def test_wrapped_calls_return_bit_identical_outputs(tmp_path):
    plain = _calls(tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = _calls(tmp_path)
    assert tracer.spans, "the wrappers recorded nothing"
    for key in plain:
        assert _same(plain[key], traced[key]), key
    # and the originals are back in place
    assert rprop.susceptibility is rls.susceptibility
    assert ropt.score.__module__ == "rbfilter.optimize" and not hasattr(ropt.score, "__wrapped__")


def test_exact_counts_repeat(tmp_path):
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            _calls(tmp_path)
        metrics = tracing.layer_metrics(tracer.totals())
        counts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    for name in ("zeeman.cache_misses", "lineshape.faddeeva_points", "optimize.evals",
                 "fitting.model_evals", "photon_stats.pearson_calls"):
        assert counts[0][name] > 0, name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    n = cls.period + 3

    def inputs(seed, sub):
        ops = islice(cls(seed, tmp_path / sub).ops(), n)
        return [(op.label, op.kind, op.program_seed, op.inputs) for op in ops]

    first = inputs(11, "a")
    assert first == inputs(11, "b")
    assert any(op[3] for op in first)
    assert inputs(12, "c") != first
    assert {op[1] for op in first[:cls.period]} >= ({"short"} if cls.whole_groups else {"short", "long"})


def test_metric_names_match_benchmark_json():
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)

    probes = {k for k in run.layer_probes()}
    cli = {f"cli.{label}_s" for label in workloads.CLI_LABELS} | {"cli.import_s"}
    trace = {"trace.overhead_s", "trace.overhead_ratio", "trace.span_cost_us"}
    assert set(tracing.layer_metrics({})) | probes | cli | trace == set(per_layer)


def test_printed_metrics_are_named_in_benchmark_json():
    """One short untraced run: every printed metric line and the JSON last line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "spectrum-sweep", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    known = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert printed and all(NAME.fullmatch(n) and n in known for n in printed)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
