"""Command-line interface.

Subcommands:
  constants   dump physical constants and isotope data as JSON
  lines       emit the Zeeman-resolved line table of a cell as CSV
  spectrum    single-cell transmission spectrum as CSV
  cascade     dual-filter chain transmission as CSV (optionally over a psi sweep)
  optimize    search the operating-parameter box, write a JSON report
  photon-sim  Monte Carlo photon statistics: JSON summary + correlation map CSV
  fit         least-squares fit of a measured spectrum, write a JSON report

Each subcommand is cmd_x(cfg, args), run on the validated config; it returns
the paths of the files it wrote into --out, which main prints one per line in
write order.  Exit codes: 0 success, 2 configuration error, 3 data/file
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import numpy as np

from . import __version__
from .config import SCHEMA, RunConfig, read_config, validate_config
from .constants import DEFAULT_DETUNINGS, ISOTOPES, REFERENCE, vapor_pressure_pa
from .errors import ConfigError, DataError, NumericalError
from .fitting import FIT_PARAM_RANGES, fit_spectrum
from .io import (
    read_measured_csv,
    write_frames_csv,
    write_json_report,
    write_lines_csv,
    write_spectrum_csv,
)
from .lineshape import LONGITUDINAL, with_keys
from .optimize import OPERATING_KEYS, optimize
from .photon_stats import (
    analytic_pair_correlation,
    correlation_map,
    pair_correlation_summary,
    simulate_frames,
)
from .propagation import (
    cell_transmission,
    dual_filter,
    faraday_rotation,
    susceptibilities,
    susceptibility,
    transmission_db,
)
from .zeeman import zeeman_lines

PSI_SWEEP_DEG = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)



def _load(args) -> RunConfig:
    """The config with --seed and --grid-points written into it, validated once."""
    if args.preset and args.config:
        raise ConfigError(["--preset and --config are mutually exclusive"])
    data = read_config(args.config)
    if isinstance(data, dict):
        if args.seed is not None:
            data["seed"] = args.seed
        grid = data.get("grid", {})
        if args.grid_points is not None and isinstance(grid, dict):
            data["grid"] = {**grid, "points": args.grid_points}
    return validate_config(data)


def _write(args, name: str, write, *data, **options) -> str:
    """write(path, *data, **options) to the file name in --out; returns the path."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    write(path, *data, **options)
    return path


def cmd_constants(cfg: RunConfig, args) -> list[str]:
    doc = {
        "reference_frequency_thz": REFERENCE.reference_frequency_hz * 1e-12,
        "reference_detunings_ghz": {
            "stokes": DEFAULT_DETUNINGS.stokes,
            "anti_stokes": DEFAULT_DETUNINGS.anti_stokes,
            "write_laser": DEFAULT_DETUNINGS.write_laser,
            "read_laser": DEFAULT_DETUNINGS.read_laser,
        },
        "isotopes": {},
    }
    for name, iso in ISOTOPES.items():
        doc["isotopes"][name] = {
            "mass_kg": iso.mass_kg,
            "nuclear_spin": iso.nuclear_spin,
            "natural_abundance": iso.natural_abundance,
            "a_ground_mhz": iso.a_ground_mhz,
            "a_excited_mhz": iso.a_excited_mhz,
            "centroid_offset_ghz": REFERENCE.centroid_offset_ghz(iso),
            "natural_linewidth_mhz": iso.natural_linewidth_mhz,
        }
    temp = cfg.cells["absorption"].effective_temperature_k
    doc["vapor_pressure_pa_at_config_temperature"] = vapor_pressure_pa(temp)
    return [_write(args, "constants.json", write_json_report, doc, cfg.resolved)]


def cmd_lines(cfg: RunConfig, args) -> list[str]:
    cell = cfg.cells[args.cell]
    isotopes = [iso for iso in ISOTOPES if cell.fraction(iso) > 0.0]
    if not isotopes:
        raise ConfigError([f"cells.{args.cell}: both isotope fractions are zero"])
    return [_write(args, f"lines_{iso.lower()}.csv", write_lines_csv,
                   zeeman_lines(iso, cell.b_field_t)) for iso in isotopes]


def cmd_spectrum(cfg: RunConfig, args) -> list[str]:
    cell = cfg.cells[args.cell]
    grid = cfg.grid()
    spectrum = susceptibility(cell, grid)
    t = cell_transmission(spectrum, grid, extinction=cfg.wollaston_extinction)
    out = {"transmission": t, "transmission_db": transmission_db(t)}
    if cell.geometry == LONGITUDINAL:
        out["rotation_rad"], out["rotation_transmission"] = faraday_rotation(spectrum, grid)
    return [_write(args, f"spectrum_{args.cell}.csv", write_spectrum_csv, grid, out)]


def cmd_cascade(cfg: RunConfig, args) -> list[str]:
    grid = cfg.grid()
    absorption = cfg.cells["absorption"]
    faraday = cfg.cells["faraday"]
    if not args.psi_sweep:
        chain = dual_filter(absorption, faraday, extinction=cfg.wollaston_extinction)
        t = chain.transmission(grid)
        return [_write(args, "cascade.csv", write_spectrum_csv, grid,
                       {"transmission": t, "transmission_db": transmission_db(t)})]
    # the angle moves no line, so both susceptibilities serve every column
    abs_spec, far_spec = susceptibilities([absorption, faraday], grid)
    columns = {}
    for deg in PSI_SWEEP_DEG:
        cell = with_keys(absorption, polarization_angle_deg=deg)
        chain = dual_filter(dataclasses.replace(abs_spec, cell=cell), far_spec,
                            extinction=cfg.wollaston_extinction)
        columns[f"transmission_psi_{deg:g}_deg"] = chain.transmission(grid)
    return [_write(args, "cascade_psi_sweep.csv", write_spectrum_csv, grid, columns)]


def cmd_optimize(cfg: RunConfig, args) -> list[str]:
    result = optimize(
        cfg.optimizer_box,
        cfg.fom,
        budget=cfg.optimizer_budget,
        seed=cfg.seed,
        restarts=cfg.optimizer_restarts,
        cells=(cfg.cells["absorption"], cfg.cells["faraday"]),
    )
    written = []
    if args.trace:
        xs, objectives = zip(*result.trace)
        columns = dict(zip(OPERATING_KEYS, np.array(xs).T))
        written.append(_write(args, "optimize_trace.csv", write_spectrum_csv,
                              np.arange(len(result.trace), dtype=float),
                              {**columns, "objective": np.array(objectives)},
                              index_name="evaluation"))
    payload = {
        "best_params": result.best_params._asdict(),
        "objective": result.best_objective,
        "signal_transmissions": {repr(k): v for k, v in result.best_fom.signal_transmissions.items()},
        "noise_suppressions_db": {repr(k): v for k, v in result.best_fom.noise_suppressions_db.items()},
        "n_evaluations": result.n_evaluations,
        "trace_length": len(result.trace),
        "wall_time_s": result.wall_time_s,
    }
    return [*written, _write(args, "optimize.json", write_json_report, payload, cfg.resolved)]


def cmd_photon_sim(cfg: RunConfig, args) -> list[str]:
    batch = simulate_frames(cfg.frames, cfg.noise, seed=cfg.seed, layout=cfg.layout)
    summary, cmap = pair_correlation_summary(batch), correlation_map(batch)
    summary["analytic_pair_correlation"] = analytic_pair_correlation(cfg.noise, cfg.layout)
    written = [_write(args, "frames.csv", write_frames_csv, batch)] if args.frames_csv else []
    written.append(_write(args, "correlation_map.csv", write_spectrum_csv,
                          np.arange(cmap.shape[0], dtype=float),
                          {f"region_{j}": cmap[:, j] for j in range(cmap.shape[1])},
                          index_name="stokes_region"))
    payload = {"summary": summary, "correlation_map_csv": os.path.basename(written[-1])}
    return [*written, _write(args, "photon_summary.json", write_json_report, payload, cfg.resolved)]


def cmd_fit(cfg: RunConfig, args) -> list[str]:
    measured = read_measured_csv(args.data, column=args.column)
    free = [s.strip() for s in args.free.split(",") if s.strip()]
    initial = {}
    for item in filter(None, (s.strip() for s in args.initial.split(","))):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError([f"--initial entries must be key=value, got {item!r}"])
        if key in initial:
            raise ConfigError([f"--initial {key} given more than once"])
        try:
            initial[key] = float(value)
        except ValueError:
            raise ConfigError([f"--initial {key}: not a number: {value!r}"]) from None
    result = fit_spectrum(measured, free, initial, template=cfg.cells[args.cell],
                          extinction=cfg.wollaston_extinction)
    payload = {
        "fitted_params": result.params,
        "rms_transmission_error": result.rms,
        "covariance": result.covariance,
        "degenerate": result.degenerate,
        "n_evaluations": result.n_evaluations,
        "free_params": list(result.params),
        "n_rows": measured.n_rows,
    }
    return [_write(args, "fit.json", write_json_report, payload, cfg.resolved)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbfilter",
        description="Magneto-optical rubidium filter simulator and design tools",
    )
    parser.add_argument("--version", action="version", version=f"rbfilter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags every subcommand takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--preset", choices=["paper-optimum"],
                        help="start from the built-in reference operating point")
    common.add_argument("--seed", type=int, metavar="U64", help="override RNG seed")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")
    common.add_argument("--grid-points", type=int, metavar="N",
                        help="override detuning-grid point count")

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[common])
        p.set_defaults(func=func)
        return p

    command("constants", cmd_constants, "dump physical constants as JSON")
    p = command("lines", cmd_lines, "emit Zeeman line tables as CSV")
    p.add_argument("--cell", choices=list(SCHEMA["cells"]), default="absorption")
    p = command("spectrum", cmd_spectrum, "single-cell transmission spectrum as CSV")
    p.add_argument("--cell", choices=list(SCHEMA["cells"]), default="absorption")
    p = command("cascade", cmd_cascade, "dual-filter chain transmission as CSV")
    p.add_argument("--psi-sweep", action="store_true",
                   help="sweep the absorption-cell polarization angle 0..90 deg")
    p = command("optimize", cmd_optimize, "search the operating-parameter box")
    p.add_argument("--trace", action="store_true", help="also dump the evaluation trace CSV")
    p = command("photon-sim", cmd_photon_sim, "Monte Carlo photon-statistics run")
    p.add_argument("--frames-csv", action="store_true",
                   help="also export per-frame counts (frame, region, n_s, n_as)")
    p = command("fit", cmd_fit, "fit a measured transmission spectrum")
    p.add_argument("--data", required=True, metavar="CSV", help="measured spectrum file")
    p.add_argument("--column", default="transmission", help="data column to fit")
    p.add_argument("--free", required=True, metavar="LIST",
                   help=f"comma-separated subset of {sorted(FIT_PARAM_RANGES)}")
    p.add_argument("--initial", default="", metavar="K=V,...",
                   help="initial guesses for free parameters")
    p.add_argument("--cell", choices=list(SCHEMA["cells"]), default="absorption",
                   help="template cell for the model")
    return parser


def main(argv=None) -> int:
    """Run one subcommand on its validated config; print the paths it wrote,
    one per line in write order, and return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="ignore", under="ignore"):
            for path in args.func(_load(args), args):
                print(path)
            return 0
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
