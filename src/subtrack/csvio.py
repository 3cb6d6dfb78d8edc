"""CSV emission and ingestion for the experiment harness.

All files are UTF-8, comma-separated, with a mandatory header row.  One
formatting rule covers every cell: a float is written as ``"%.17g"`` (17
significant digits, so it round-trips bit-exactly), anything else as
``str``.  Complex quantities appear as ``_re``/``_im`` column pairs.  No cell
is quoted, because every emitted cell is a number, an algorithm name or
``all``.
"""

import csv
import hashlib
from pathlib import Path

import numpy as np

from .channel_sim import ChannelTrajectory
from .errors import ConfigError, InvalidInputError


def format_value(value) -> str:
    return "%.17g" % value if isinstance(value, float) else str(value)


def write_csv(path, header, rows) -> None:
    """Write rows (iterables matching ``header``), one line each, unquoted."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(format_value, row)) + "\n" for row in rows)


def read_csv(path):
    """Read back an emitted CSV: returns (header, rows) with numeric parsing.

    Every cell is returned as int when it parses as one, else float, else the
    raw string; with 17-significant-digit emission this reproduces the
    written values exactly.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"read_csv: {path} is empty") from None
        rows = []
        for raw in reader:
            row = []
            for cell in raw:
                try:
                    row.append(int(cell))
                except ValueError:
                    try:
                        row.append(float(cell))
                    except ValueError:
                        row.append(cell)
            rows.append(row)
    return header, rows


def file_digest(path) -> str:
    hasher = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def load_cir_csv(path) -> ChannelTrajectory:
    """Load a recorded tap trajectory from columns (n, k, h_re, h_im).

    Step and tap indices must be consecutive integers on a complete grid;
    each axis may start from any value, and its smallest index becomes 0.
    The numeric rows are parsed by numpy; a bad header, a non-numeric or
    non-finite cell, a fractional index, an index too far from the others to
    lie on a complete grid of the file's rows, or a row without exactly four
    cells is a ``ConfigError``, and so is a file that cannot be read.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"load_cir_csv: cannot read {path}: {exc}") from None
    header = next(csv.reader(lines[:1]), [])
    expected = ["n", "k", "h_re", "h_im"]
    if [h.strip() for h in header] != expected:
        raise ConfigError(f"load_cir_csv: header must be {expected}, got {header}")
    body = [line for line in lines[1:] if line.strip()]
    if not body:
        raise ConfigError("load_cir_csv: no data rows")
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"load_cir_csv: {path}: {exc}") from None
    if data.shape[1] != len(expected):
        raise ConfigError(
            f"load_cir_csv: rows must have {len(expected)} cells, got {data.shape[1]}")
    index = data[:, :2]
    base = index.min(axis=0)
    # No index of a complete grid of these rows lies more than len - 1 past its base.
    for ok, what in ((np.isfinite(data).all(axis=1), "non-finite cell"),
                     ((index == np.trunc(index)).all(axis=1), "non-integer index"),
                     ((index <= base + (len(data) - 1)).all(axis=1),
                      f"index off every complete grid of {len(data)} rows")):
        if not ok.all():
            row = int(np.argmin(ok))
            raise ConfigError(
                f"load_cir_csv: {path}: {what} in data row {row + 1}: {body[row]!r}")
    n_idx, k_idx = (index - base).astype(int).T
    n_steps, n_taps = n_idx.max() + 1, k_idx.max() + 1
    if len(data) != n_steps * n_taps:
        raise ConfigError(
            f"load_cir_csv: expected {n_steps * n_taps} rows for a complete "
            f"{n_steps} x {n_taps} grid, got {len(data)}")
    h = np.full((n_steps, n_taps), np.nan + 0j, dtype=np.complex128)
    h[n_idx, k_idx] = data[:, 2] + 1j * data[:, 3]
    if np.isnan(h.real).any():
        raise ConfigError("load_cir_csv: grid has missing (n, k) entries")
    return ChannelTrajectory(h=h)
