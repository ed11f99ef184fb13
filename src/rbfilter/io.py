"""File input/output: spectrum CSV, line-table CSV, JSON reports.

CSV columns are written with %.16g so round trips through text preserve
doubles to the last bit that matters; JSON reports always embed the package
version, the fully resolved configuration, and its hash so a result file is
reproducible on its own.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import DataError
from .fitting import MeasuredSpectrum


def write_spectrum_csv(path: str, detuning_ghz, columns: dict, *,
                       index_name: str = "detuning_ghz") -> None:
    """Write a detuning grid plus named value columns to CSV.

    columns maps header name -> array of same length as detuning_ghz.  The
    first column is headed index_name, so another index can name itself.
    """
    detuning_ghz = np.asarray(detuning_ghz, dtype=float)
    names = list(columns)
    arrays = []
    for name in names:
        arr = np.asarray(columns[name], dtype=float)
        if arr.shape != detuning_ghz.shape:
            raise DataError(
                f"column {name!r} has shape {arr.shape}, grid has {detuning_ghz.shape}"
            )
        arrays.append(arr)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([index_name] + names)
            for i in range(detuning_ghz.size):
                writer.writerow(
                    [f"{detuning_ghz[i]:.16g}"] + [f"{a[i]:.16g}" for a in arrays]
                )
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def read_spectrum_csv(path: str) -> tuple[np.ndarray, dict]:
    """Read a CSV written by write_spectrum_csv; returns (grid, columns)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    if not header or header[0] != "detuning_ghz":
        raise DataError(f"{path}: first column must be detuning_ghz, got {header[:1]}")
    body = [r for r in rows[1:] if r]
    if not body:
        raise DataError(f"{path}: no data rows")
    try:
        data = np.array([[float(x) for x in row] for row in body])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric value: {exc}") from exc
    if data.shape[1] != len(header):
        raise DataError(
            f"{path}: rows have {data.shape[1]} fields, header has {len(header)}"
        )
    grid = data[:, 0]
    columns = {name: data[:, j + 1] for j, name in enumerate(header[1:])}
    return grid, columns


def read_measured_csv(path: str, column: str = "transmission") -> MeasuredSpectrum:
    """Load a measured transmission spectrum for fitting."""
    grid, columns = read_spectrum_csv(path)
    if column not in columns:
        raise DataError(f"{path}: no column {column!r}; have {sorted(columns)}")
    order = np.argsort(grid)
    return MeasuredSpectrum(detuning_ghz=grid[order], transmission=columns[column][order])


def write_lines_csv(path: str, table) -> None:
    """Write a resolved line table as offset/component/strength rows."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["offset_ghz", "component", "strength"])
            for off, component, s in table.rows():
                writer.writerow([f"{off:.16g}", component, f"{s:.16g}"])
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_json_report(path: str, payload: dict, resolved_config: dict | None = None) -> None:
    """Write a JSON result file with version and config provenance attached."""
    from . import __version__
    from .config import config_hash

    doc = {"version": __version__}
    if resolved_config is not None:
        doc["config"] = resolved_config
        doc["config_hash"] = config_hash(resolved_config)
    doc.update(payload)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, default=_jsonable)
            fh.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
