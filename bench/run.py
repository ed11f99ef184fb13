"""rbfilter benchmark: one workload per invocation, result as a JSON last line.

    python3 bench/run.py --workload design-search --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced for ``--seconds``
seconds (an operation, or for cli-session a session, is not started when the
last one of its kind says it would end past the deadline).  ``--trace 1`` runs the workload's first period of operations
twice, untraced and then with the wrappers of ``tracing.py`` installed, and
prints the per-layer metrics plus the tracing overhead.  Lines before the last
are a human-readable summary and a ``meta`` line; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from launch import Launcher

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    n = len(samples)
    if n < 11:
        return None
    return f"p{100 * (n - 10) // n}", sorted(samples)[n - 11]


def measure_setup(env: dict) -> float:
    """Wall time of one fresh interpreter importing rbfilter.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rbfilter.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def run_op(op, tracing_on=None) -> tuple[tuple, list[str]]:
    """Time one op and check its result: ((op, seconds, items, failed), messages).

    tracing_on, a ``tracing.installed`` context, wraps the timed call only.
    """
    run = op.run_traced if tracing_on and op.run_traced else op.run
    t0 = time.perf_counter()
    try:
        with tracing_on or contextlib.nullcontext():
            result = run()
    except Exception as exc:  # a failing operation is counted, not fatal
        return (op, time.perf_counter() - t0, 0, True), [f"{op.label}: raised {exc!r}"]
    elapsed = time.perf_counter() - t0
    items, bad = op.check(result, elapsed)
    return (op, elapsed, items, bool(bad)), bad


def run_ops(workload, seconds: float, setup_env: dict):
    """Run the workload's ops until the deadline, but at least its first period.

    The set-up samples are spread evenly over the run, between ops, after one
    untimed warm-up.  The run ends before an op that would end past the
    deadline if it took as long as the last op with its label; with
    whole_groups it ends only between groups, judged by the last group.
    """
    records, messages, setup = [], [], []
    last_s: dict = {}  # label (or group) -> wall time of the last one
    measure_setup(setup_env)
    start = time.perf_counter()
    last_group, group_start = None, start
    for i, op in enumerate(workload.ops()):
        now = time.perf_counter()
        if len(setup) < SETUP_REPEATS and now - start >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(measure_setup(setup_env))
            now = time.perf_counter()
        new_group = op.group != last_group
        if new_group:
            last_s["group"], group_start = now - group_start, now
        key = "group" if workload.whole_groups else op.label
        if i >= workload.period and (new_group or not workload.whole_groups):
            if now - start + last_s.get(key, 0.0) >= seconds:
                break
        last_group = op.group
        record, bad = run_op(op)
        records.append(record)
        messages.extend(bad)
        last_s[op.label] = record[1]
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(setup_env))
    return records, messages, setup


def end_to_end(records, workload, setup: list[float], rss_mb: float) -> dict:
    """Samples of each end-to-end metric; the reported value is their median.

    A rate sample is one op's items per second (with whole_groups, one group's).
    """
    short = [t for op, t, _, _ in records if op.kind == "short"]
    if workload.whole_groups:
        groups: dict[int, list[tuple[float, float]]] = {}
        for op, t, items, _ in records:
            groups.setdefault(op.group, []).append((t, items))
        whole = [g for g in groups.values() if len(g) == workload.period]
        long = [sum(t for t, _ in g) for g in whole]
        rates = [sum(i for _, i in g) / sum(t for t, _ in g) for g in whole]
    else:
        long = [t for op, t, _, _ in records if op.kind == "long"]
        rates = [items / t for _, t, items, _ in records if items]
    return {
        "setup_s": setup,
        "short_op_s": short,
        "long_op_s": long,
        "throughput_per_s": rates,
        "peak_rss_mb": [rss_mb],
    }


def layer_probes() -> dict:
    """Fixed-input timings of single layers (ms, median of repeats, cold cache)."""
    import numpy as np

    import rbfilter.lineshape as rls
    from workloads import SPECTRUM_GRID, ropt, zeeman_lines

    def median_ms(fn, repeats):
        times = []
        for _ in range(repeats):
            zeeman_lines.cache_clear()
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times)

    rng = np.random.default_rng(0)
    z = rng.uniform(-30.0, 30.0, 100_000) + 1j * rng.uniform(1e-4, 10.0, 100_000)
    absorption, faraday = ropt.build_cells(ropt.PAPER_OPTIMUM)
    return {
        "zeeman.cold_table_ms.rb85": median_ms(lambda: zeeman_lines("Rb85", 1e-2, "transverse"), 9),
        "zeeman.cold_table_ms.rb87": median_ms(lambda: zeeman_lines("Rb87", 1e-2, "longitudinal"), 9),
        "lineshape.faddeeva_1e5_ms": median_ms(lambda: rls.faddeeva(z), 7),
        "lineshape.susceptibility_ms.absorption": median_ms(
            lambda: rls.susceptibility(absorption, SPECTRUM_GRID), 5),
        "lineshape.susceptibility_ms.faraday": median_ms(
            lambda: rls.susceptibility(faraday, SPECTRUM_GRID), 5),
    }


def traced(workload) -> tuple[dict, list, list[str]]:
    """Per-layer metrics from one period of ops, each run untraced and traced.

    The two runs of an op alternate in order, so warm-up and drift do not land
    on one side of the tracing overhead.
    """
    import tracing
    from workloads import CLI_LABELS

    probes = layer_probes()
    ops = [op for _, op in zip(range(workload.period), workload.ops())]
    tracer = tracing.Tracer()
    plain, with_trace, messages = [], [], []
    for i, op in enumerate(ops):
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if use_trace:
                record, bad = run_op(op, tracing.installed(tracer))
                with_trace.append(record)
            else:
                record, bad = run_op(op)
                plain.append(record)
            messages.extend(bad)
    totals = tracer.totals()
    metrics = {f"cli.{label}_s": 0.0 for label in CLI_LABELS}
    import_s = []
    if workload.name == "cli-session":
        for dump in sorted(workload.shim_dir.glob("*.json")):
            child = json.loads(dump.read_text())
            import_s.append(child.pop("import_s"))
            totals = tracing.add_totals(totals, child)
        for op, t, _, _ in plain:
            metrics[f"cli.{op.label}_s"] = t
    untraced_s = sum(t for _, t, _, _ in plain)
    traced_s = sum(t for _, t, _, _ in with_trace)
    metrics.update(tracing.layer_metrics(totals))
    metrics.update(probes)
    metrics["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.span_cost_us"] = 1e6 * tracing.span_cost_s()
    return metrics, plain + with_trace, messages


def run_metadata(seed: int, program_seeds: list[int], overhead: float | None) -> dict:
    import numpy
    import scipy

    def command(args, **kw):
        try:
            proc = subprocess.run(args, capture_output=True, text=True, timeout=30, **kw)
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return proc.stdout if proc.returncode == 0 else ""

    lscpu = {}
    for line in command(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        lscpu[key.strip()] = value.strip()
    # stop git at the checkout so an enclosing repository is never reported
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": lscpu.get("Model name", "unknown"),
        "llc": lscpu.get("L3 cache") or lscpu.get("L2 cache", "unknown"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": command(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env).strip() or "unknown",
        "seed": seed,
        "program_seeds": program_seeds,
        "trace_overhead_s": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["design-search", "spectrum-sweep", "photon-stats", "cli-session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "rbfilter" / "__init__.py").is_file():
        print(f"bench: no rbfilter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # one process, no extra threads: pin BLAS/OpenMP pools before NumPy loads
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    launcher = Launcher() if args.workload == "cli-session" else None
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, work, launcher)
        if args.trace:
            metrics, records, messages = traced(workload)
            overhead = metrics["trace.overhead_s"]
            lines = [f"metric {name} = {metrics[name]:.6g} {units[name]}" for name in units]
        else:
            setup_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            records, messages, setup = run_ops(workload, args.seconds, setup_env)
            rss = (workload.children_peak_rss_mb if launcher
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            samples = end_to_end(records, workload, setup, rss)
            overhead = None
            metrics, lines = {}, []
            for name, values in samples.items():
                metrics[name] = statistics.median(values)
                tail = tail_percentile(values)
                extra = f", {tail[0]} = {tail[1]:.6g}" if tail else ""
                lines.append(f"metric {name} = {metrics[name]:.6g} {units[name]}"
                             f" (median of {len(values)}{extra})")
    finally:
        if launcher:
            launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")

    failed = sum(1 for record in records if record[3])
    program_seeds = [op.program_seed for op, *_ in records if op.program_seed is not None]
    for msg in messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# {workload.name} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    print(f"failed {failed} of {len(records)} operations")
    print("meta " + json.dumps(run_metadata(args.seed, program_seeds, overhead)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
