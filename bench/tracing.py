"""Spans and counters recorded from outside rbfilter by wrapping its public functions.

Callers inside rbfilter look these functions up as module globals at call
time, so replacing the module attribute is enough to see every call made
through it.  A module that did ``from x import name`` binds the name when it is
imported: ``rbfilter.cli`` therefore sees the wrappers only when they are
installed before it is imported (``cli_shim.py`` does that).

Each wrapper records a span (name, start, end, parent) in memory; self time is
computed from the spans afterwards.  Counts come from argument and result sizes
and from ``zeeman_lines.cache_info()`` read around each call (the benchmark
clears that cache, which also resets its statistics), so they repeat exactly
for a fixed input.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

import numpy as np

# (module, attribute, span name, counting hook name or None)
WRAPPED = (
    ("rbfilter.zeeman", "zeeman_lines", "zeeman", "_count_zeeman"),
    ("rbfilter.lineshape", "zeeman_lines", "zeeman", "_count_zeeman"),
    ("rbfilter.lineshape", "faddeeva", "faddeeva", "_count_faddeeva"),
    ("rbfilter.propagation", "susceptibility", "susceptibility", None),
    ("rbfilter.propagation", "cascade", "cascade", "_count_cascade"),
    ("rbfilter.optimize", "optimize", "optimize", "_count_optimize"),
    ("rbfilter.optimize", "score", "score", None),
    ("rbfilter.optimize", "minimize", "minimize", None),
    ("rbfilter.fitting", "fit_spectrum", "fit_spectrum", None),
    ("rbfilter.fitting", "model_transmission", "model_transmission", None),
    ("rbfilter.photon_stats", "simulate_frames", "simulate", "_count_frames"),
    ("rbfilter.photon_stats", "pair_correlation_summary", "summary", None),
    ("rbfilter.photon_stats", "correlation_standard_error", "jackknife", None),
    ("rbfilter.photon_stats", "correlation_coefficient", "pearson", None),
    ("rbfilter.photon_stats", "correlation_map", "map", None),
    ("rbfilter.io", "write_spectrum_csv", "io_write", "_count_spectrum_csv"),
    ("rbfilter.io", "write_lines_csv", "io_write", "_count_lines_csv"),
    ("rbfilter.io", "write_json_report", "io_write", "_count_json"),
)

# Counts a tracer accumulates.  Every total it reports is a sum, so the totals
# of several tracers (one per CLI child) add up to valid totals.
COUNTS = ("zeeman_calls", "zeeman_misses", "faddeeva_points", "block_bytes", "grid_points",
          "evals", "duplicate_evals", "count_bytes", "io_rows", "io_bytes")


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[tuple[int, str, float, int]] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((self._next_id, name, time.perf_counter(), parent))
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, parent = self._stack.pop()
        self.spans.append((span_id, name, start, end, parent))

    # counting hooks: (tracer, function, args, misses before the call, result)
    def _count_zeeman(self, fn, args, misses_before, out):
        self.counts["zeeman_calls"] += 1
        self.counts["zeeman_misses"] += fn.cache_info().misses - misses_before

    def _count_faddeeva(self, fn, args, misses_before, out):
        out = np.asarray(out)
        self.counts["faddeeva_points"] += int(out.size)
        self.counts["block_bytes"] += int(out.nbytes)

    def _count_cascade(self, fn, args, misses_before, out):
        self.counts["grid_points"] += int(np.asarray(out).size)

    def _count_optimize(self, fn, args, misses_before, out):
        seen = set()
        for x, _ in out.trace:
            key = tuple(x.tolist())
            if key in seen:
                self.counts["duplicate_evals"] += 1
            seen.add(key)
        self.counts["evals"] += int(out.n_evaluations)

    def _count_frames(self, fn, args, misses_before, out):
        self.counts["count_bytes"] += int(out.n_s.nbytes + out.n_as.nbytes)

    def _count_written(self, path, rows):
        self.counts["io_rows"] += int(rows)
        self.counts["io_bytes"] += os.path.getsize(path)

    def _count_spectrum_csv(self, fn, args, misses_before, out):
        self._count_written(args[0], np.asarray(args[1]).size)

    def _count_lines_csv(self, fn, args, misses_before, out):
        self._count_written(args[0], args[1].n_lines)

    def _count_json(self, fn, args, misses_before, out):
        self._count_written(args[0], 0)

    def totals(self) -> dict:
        """Counts plus, per span name, calls and time (inclusive and self)."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        by_id = {s[0]: s for s in self.spans}
        out = dict(self.counts)
        out["spans"] = len(self.spans)
        for span_id, name, start, end, parent in self.spans:
            dur = end - start
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child_time.get(span_id, 0.0)
            if parent >= 0 and by_id[parent][1] == "minimize" and name == "score":
                out["nm_evals"] = out.get("nm_evals", 0) + 1
        return out


def _wrap(fn, name: str, tracer: Tracer, hook):
    cached = hasattr(fn, "cache_info")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        misses_before = fn.cache_info().misses if cached else 0
        tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, fn, args, misses_before, out)
        return out

    return wrapper


class installed:
    """Context manager: wrap every function in WRAPPED, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, attr, name, hook_name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            hook = getattr(Tracer, hook_name) if hook_name else None
            self._saved.append((module, attr, fn))
            setattr(module, attr, _wrap(fn, name, self.tracer, hook))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def span_cost_s(calls: int = 20_000) -> float:
    """Added time per wrapped call, from a no-op function with and without a wrapper."""
    def noop():
        return None

    wrapped = _wrap(noop, "noop", Tracer(), None)
    times = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return (times[1] - times[0]) / calls


def add_totals(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def layer_metrics(t: dict) -> dict:
    """Per-layer metric values (module-prefixed names) from summed totals."""
    g = lambda k: t.get(k, 0)
    calls, misses = g("zeeman_calls"), g("zeeman_misses")
    evals = g("evals")
    return {
        "zeeman.calls": calls,
        "zeeman.cache_misses": misses,
        "zeeman.hit_ratio": (calls - misses) / calls if calls else 0.0,
        "zeeman.s": g("zeeman.s"),
        "lineshape.susceptibility_calls": g("susceptibility.calls"),
        "lineshape.susceptibility_s": g("susceptibility.s"),
        "lineshape.faddeeva_points": g("faddeeva_points"),
        "lineshape.faddeeva_s": g("faddeeva.s"),
        "lineshape.faddeeva_mpts_per_s": (g("faddeeva_points") / g("faddeeva.s") / 1e6
                                          if g("faddeeva.s") else 0.0),
        "lineshape.block_bytes_computed": g("block_bytes"),
        "propagation.cascade_calls": g("cascade.calls"),
        "propagation.cascade_self_s": g("cascade.self_s"),
        "propagation.grid_points": g("grid_points"),
        "optimize.score_calls": g("score.calls"),
        "optimize.score_self_s": g("score.self_s"),
        "optimize.evals": evals,
        "optimize.nm_restarts": g("minimize.calls"),
        "optimize.nm_evals": g("nm_evals"),
        "optimize.nm_self_s": g("minimize.self_s"),
        "optimize.duplicate_eval_ratio": g("duplicate_evals") / evals if evals else 0.0,
        "fitting.model_evals": g("model_transmission.calls"),
        "fitting.self_s": g("fit_spectrum.self_s") + g("model_transmission.self_s"),
        "photon_stats.simulate_s": g("simulate.s"),
        "photon_stats.summary_s": g("summary.s"),
        "photon_stats.jackknife_s": g("jackknife.s"),
        "photon_stats.pearson_calls": g("pearson.calls"),
        "photon_stats.map_s": g("map.s"),
        "photon_stats.bytes_computed": g("count_bytes"),
        "io.rows_written": g("io_rows"),
        "io.bytes_written": g("io_bytes"),
        "io.write_s": g("io_write.s"),
        "trace.spans": g("spans"),
    }
