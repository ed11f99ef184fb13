"""Command-line interface.

Subcommands:
  constants   dump physical constants and isotope data as JSON
  lines       emit the Zeeman-resolved line table of a cell as CSV
  spectrum    single-cell transmission spectrum as CSV
  cascade     dual-filter chain transmission as CSV (optionally over a psi sweep)
  optimize    search the operating-parameter box, write a JSON report
  photon-sim  Monte Carlo photon statistics: JSON summary + correlation map CSV
  fit         least-squares fit of a measured spectrum, write a JSON report

Exit codes: 0 success, 2 configuration error, 3 data/file error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import numpy as np

from . import __version__
from .config import RunConfig, read_config, validate_config
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
from .photon_stats import analytic_pair_correlation, simulate_frames, summary_and_map
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--preset", choices=["paper-optimum"],
                        help="start from the built-in reference operating point")
    parser.add_argument("--seed", type=int, metavar="U64", help="override RNG seed")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    parser.add_argument("--grid-points", type=int, metavar="N",
                        help="override detuning-grid point count")


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


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_constants(args) -> int:
    cfg = _load(args)
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
    path = _outpath(args, "constants.json")
    write_json_report(path, doc, cfg.resolved)
    print(path)
    return 0


def cmd_lines(args) -> int:
    cfg = _load(args)
    cell = cfg.cells[args.cell]
    written = []
    for iso in ("Rb85", "Rb87"):
        if cell.fraction(iso) <= 0.0:
            continue
        table = zeeman_lines(iso, cell.b_field_t, cell.geometry)
        path = _outpath(args, f"lines_{iso.lower()}.csv")
        write_lines_csv(path, table)
        written.append(path)
    if not written:
        raise ConfigError([f"cells.{args.cell}: both isotope fractions are zero"])
    for p in written:
        print(p)
    return 0


def cmd_spectrum(args) -> int:
    cfg = _load(args)
    cell = cfg.cells[args.cell]
    grid = cfg.grid()
    spectrum = susceptibility(cell, grid)
    t = cell_transmission(spectrum, grid, extinction=cfg.wollaston_extinction)
    out = {"transmission": t, "transmission_db": transmission_db(t)}
    if cell.geometry == LONGITUDINAL:
        out["rotation_rad"], out["rotation_transmission"] = faraday_rotation(spectrum, grid)
    path = _outpath(args, f"spectrum_{args.cell}.csv")
    write_spectrum_csv(path, grid, out)
    print(path)
    return 0


def cmd_cascade(args) -> int:
    cfg = _load(args)
    grid = cfg.grid()
    absorption = cfg.cells["absorption"]
    faraday = cfg.cells["faraday"]
    if args.psi_sweep:
        # the angle moves no line, so both susceptibilities serve every column
        abs_spec, far_spec = susceptibilities([absorption, faraday], grid)
        columns = {}
        for deg in PSI_SWEEP_DEG:
            cell = with_keys(absorption, polarization_angle_deg=deg)
            chain = dual_filter(dataclasses.replace(abs_spec, cell=cell), far_spec,
                                extinction=cfg.wollaston_extinction)
            columns[f"transmission_psi_{deg:g}_deg"] = chain.transmission(grid)
        path = _outpath(args, "cascade_psi_sweep.csv")
        write_spectrum_csv(path, grid, columns)
    else:
        chain = dual_filter(absorption, faraday, extinction=cfg.wollaston_extinction)
        t = chain.transmission(grid)
        path = _outpath(args, "cascade.csv")
        write_spectrum_csv(path, grid, {
            "transmission": t,
            "transmission_db": transmission_db(t),
        })
    print(path)
    return 0


def cmd_optimize(args) -> int:
    cfg = _load(args)
    result = optimize(
        cfg.optimizer_box,
        cfg.fom,
        budget=cfg.optimizer_budget,
        seed=cfg.seed,
        restarts=cfg.optimizer_restarts,
        cells=(cfg.cells["absorption"], cfg.cells["faraday"]),
    )
    payload = {
        "best_params": dataclasses.asdict(result.best_params),
        "objective": result.best_objective,
        "signal_transmissions": {repr(k): v for k, v in result.best_fom.signal_transmissions.items()},
        "noise_suppressions_db": {repr(k): v for k, v in result.best_fom.noise_suppressions_db.items()},
        "n_evaluations": result.n_evaluations,
        "trace_length": len(result.trace),
        "wall_time_s": result.wall_time_s,
    }
    path = _outpath(args, "optimize.json")
    write_json_report(path, payload, cfg.resolved)
    if args.trace:
        trace_path = _outpath(args, "optimize_trace.csv")
        xs, objectives = zip(*result.trace)
        columns = dict(zip(OPERATING_KEYS, np.array(xs).T))
        write_spectrum_csv(trace_path, np.arange(len(result.trace), dtype=float),
                           {**columns, "objective": np.array(objectives)}, index_name="evaluation")
        print(trace_path)
    print(path)
    return 0


def cmd_photon_sim(args) -> int:
    cfg = _load(args)
    batch = simulate_frames(cfg.frames, cfg.noise, seed=cfg.seed, layout=cfg.layout)
    summary, cmap = summary_and_map(batch)
    summary["analytic_pair_correlation"] = analytic_pair_correlation(cfg.noise, cfg.layout)
    map_path = _outpath(args, "correlation_map.csv")
    write_spectrum_csv(map_path, np.arange(cmap.shape[0], dtype=float),
                       {f"region_{j}": cmap[:, j] for j in range(cmap.shape[1])},
                       index_name="stokes_region")
    payload = {"summary": summary, "correlation_map_csv": os.path.basename(map_path)}
    path = _outpath(args, "photon_summary.json")
    write_json_report(path, payload, cfg.resolved)
    if args.frames_csv:
        frames_path = _outpath(args, "frames.csv")
        write_frames_csv(frames_path, batch)
        print(frames_path)
    print(map_path)
    print(path)
    return 0


def cmd_fit(args) -> int:
    cfg = _load(args)
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
    template = cfg.cells[args.cell]
    result = fit_spectrum(measured, free, initial, template=template)
    payload = {
        "fitted_params": result.params,
        "rms_transmission_error": result.rms,
        "covariance": result.covariance,
        "degenerate": result.degenerate,
        "n_evaluations": result.n_evaluations,
        "free_params": list(result.params),
        "n_rows": measured.n_rows,
    }
    path = _outpath(args, "fit.json")
    write_json_report(path, payload, cfg.resolved)
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbfilter",
        description="Magneto-optical rubidium filter simulator and design tools",
    )
    parser.add_argument("--version", action="version", version=f"rbfilter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="dump physical constants as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("lines", help="emit Zeeman line tables as CSV")
    _add_common(p)
    p.add_argument("--cell", choices=["absorption", "faraday"], default="absorption")
    p.set_defaults(func=cmd_lines)

    p = sub.add_parser("spectrum", help="single-cell transmission spectrum as CSV")
    _add_common(p)
    p.add_argument("--cell", choices=["absorption", "faraday"], default="absorption")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("cascade", help="dual-filter chain transmission as CSV")
    _add_common(p)
    p.add_argument("--psi-sweep", action="store_true",
                   help="sweep the absorption-cell polarization angle 0..90 deg")
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("optimize", help="search the operating-parameter box")
    _add_common(p)
    p.add_argument("--trace", action="store_true", help="also dump the evaluation trace CSV")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("photon-sim", help="Monte Carlo photon-statistics run")
    _add_common(p)
    p.add_argument("--frames-csv", action="store_true",
                   help="also export per-frame counts (frame, region, n_s, n_as)")
    p.set_defaults(func=cmd_photon_sim)

    p = sub.add_parser("fit", help="fit a measured transmission spectrum")
    _add_common(p)
    p.add_argument("--data", required=True, metavar="CSV", help="measured spectrum file")
    p.add_argument("--column", default="transmission", help="data column to fit")
    p.add_argument("--free", required=True, metavar="LIST",
                   help=f"comma-separated subset of {sorted(FIT_PARAM_RANGES)}")
    p.add_argument("--initial", default="", metavar="K=V,...",
                   help="initial guesses for free parameters")
    p.add_argument("--cell", choices=["absorption", "faraday"], default="absorption",
                   help="template cell for the model")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="ignore", under="ignore"):
            return args.func(args)
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
