"""File input/output: spectrum, line-table and frame CSV, JSON reports.

Every CSV file is a header row, then one row per record ending in CRLF,
written in blocks of at most CHUNK_ROWS rows, so a file of any length needs a
few blocks of memory.  Floats are written with %.16g, so round trips through
text preserve doubles to the last bit that matters; the integer rows of
frames.csv are laid out as ASCII bytes in NumPy, the same bytes %d writes.
JSON reports always embed the package and NumPy versions, the fully resolved
configuration, and its hash.  That is not yet enough to reproduce one: the
photon frame stream depends on NumPy's samplers, and a change that moves the
stream on purpose does not yet bump the package version.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from . import __version__
from .config import config_hash
from .errors import DataError
from .fitting import MeasuredSpectrum

# rows formatted at once, in every file: memory stays flat on any grid or batch
CHUNK_ROWS = 4096


def _write_csv(path: str, header: list[str], chunks) -> None:
    """The header row, quoted where a name needs it, then each chunk: the text
    of its rows, each ending in CRLF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for text in chunks:
            fh.write(text)
            del text  # freed before the next chunk is built, not after


def write_spectrum_csv(path: str, detuning_ghz, columns: dict, *,
                       index_name: str = "detuning_ghz") -> None:
    """Write a detuning grid plus named value columns to CSV.

    columns maps header name -> array of same length as detuning_ghz.  The
    first column is headed index_name, so another index can name itself.
    """
    detuning_ghz = np.asarray(detuning_ghz, dtype=float)
    arrays = [detuning_ghz]
    for name, values in columns.items():
        arr = np.asarray(values, dtype=float)
        if arr.shape != detuning_ghz.shape:
            raise DataError(
                f"column {name!r} has shape {arr.shape}, grid has {detuning_ghz.shape}"
            )
        arrays.append(arr)
    line = ",".join(["%.16g"] * len(arrays)) + "\r\n"

    def chunks():
        for lo in range(0, detuning_ghz.size, CHUNK_ROWS):
            block = np.column_stack([a[lo:lo + CHUNK_ROWS] for a in arrays])
            yield line * len(block) % tuple(block.ravel().tolist())

    _write_csv(path, [index_name, *columns], chunks())


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
    for n, row in enumerate(rows[1:], start=2):
        if row and len(row) != len(header):
            raise DataError(f"{path}: row {n} has {len(row)} fields, header has {len(header)}")
    try:
        data = np.array([[float(x) for x in row] for row in body])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric value: {exc}") from exc
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
    """Write a resolved line table as offset/component/strength rows, one chunk,
    each component's lines in turn."""
    _write_csv(path, ["offset_ghz", "component", "strength"],
               ["".join("%.16g,%s,%.16g\r\n" % (offset, name, strength)
                        for name, (offsets, strengths) in table.lines.items()
                        for offset, strength in zip(offsets.tolist(), strengths.tolist()))])


def _digits(values: np.ndarray) -> np.ndarray:
    """(n, width) ASCII decimal digits of n non-negative integers, right-aligned
    with NUL on the left."""
    values = values.astype(np.int64, copy=False)[:, None]
    powers = 10 ** np.arange(len(str(int(values.max()))) - 1, -1, -1, dtype=np.int64)
    digits = (values // powers % 10 + ord("0")).astype(np.uint8)
    digits[(values < powers) & (powers > 1)] = 0  # leading zeros; a lone 0 stays
    return digits


def _ascii_rows(fields: list[np.ndarray]) -> str:
    """CSV text of the rows whose fields are (rows, width) arrays of NUL-padded
    ASCII digits: all rows are laid out in one uint8 array, then the NULs are
    masked out."""
    ends = np.cumsum([f.shape[1] + 1 for f in fields])
    text = np.zeros((len(fields[0]), ends[-1] + 1), np.uint8)
    for f, end in zip(fields, ends):
        text[:, end - 1 - f.shape[1]:end - 1] = f
        text[:, end - 1] = ord(",")
    text[:, -2:] = (ord("\r"), ord("\n"))
    return text[text != 0].tobytes().decode("ascii")


def write_frames_csv(path: str, batch) -> None:
    """Write a CountsBatch as one (frame, region, n_s, n_as) row per region of
    each frame.  The counts are read in the batch's runs of frames (a simulated
    batch draws them chunk by chunk, so the file never needs the whole arrays),
    each in blocks of whole frames of at most CHUNK_ROWS rows (one frame when a
    frame has more).  A frame's digits are built once and repeated over its
    regions."""
    m = batch.layout.n_regions
    step = max(1, CHUNK_ROWS // m)
    region = _digits(np.arange(m))

    def chunks():
        for n_s, n_as, first in batch._runs(lambda *run: run):
            for lo in range(0, len(n_s), step):
                frames = np.arange(first + lo, first + min(lo + step, len(n_s)))
                yield _ascii_rows([np.repeat(_digits(frames), m, axis=0),
                                   np.tile(region, (frames.size, 1)),
                                   _digits(n_s[lo:lo + step].ravel()),
                                   _digits(n_as[lo:lo + step].ravel())])

    _write_csv(path, ["frame", "region", "n_s", "n_as"], chunks())


def write_json_report(path: str, payload: dict, resolved_config: dict | None = None) -> None:
    """Write a JSON result file with version and config provenance attached."""
    doc = {"version": __version__, "numpy": np.__version__}
    if resolved_config is not None:
        doc["config"] = resolved_config
        doc["config_hash"] = config_hash(resolved_config)
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, default=_jsonable)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")
