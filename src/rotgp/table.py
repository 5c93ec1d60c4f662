"""The file formats rotgp reads and writes: CSV tables and JSON documents.

A table is a header line of column names followed by comma-separated rows
with LF line ends. Floats are written as ``repr(float(v))``, the shortest
text that reads back to the same double, so a table round-trips exactly;
other cells are written with ``str``. A table read back must have a header
and at least one row, every row as wide as the header, and every cell a
finite number. A JSON document is written with sorted keys, two-space
indents and a final newline.
"""

import csv
import json
import math
from contextlib import contextmanager

import numpy as np


class DataFormatError(ValueError):
    """Malformed table file; the message names the path and line."""


def _cell(value):
    # float() first: numpy's float64 is a float whose repr names its type
    return repr(float(value)) if isinstance(value, float) else value


@contextmanager
def open_text(path, error=DataFormatError, newline=None):
    """``path`` opened to read as UTF-8 text. A directory, or bytes that are
    not UTF-8 met while the file is read, raise ``error`` naming the path."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except IsADirectoryError:
        raise error(f"{path}: is a directory") from None
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def write_table(path, header, rows, append=False) -> None:
    """Write ``header`` and ``rows``; with ``append``, add the rows to the
    end of ``path`` and write the header only if the file is new or empty."""
    with open(path, "a" if append else "w", encoding="utf-8",
              newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        if f.tell() == 0:
            writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def read_table(path) -> tuple[list[str], np.ndarray]:
    """The header cells and an (n_rows, n_columns) float array; a ragged,
    non-numeric or non-finite row fails with its line number, and so does
    a file without rows. Blank lines are skipped."""
    rows = []
    with open_text(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: file is empty")
        header = [c.strip() for c in header]
        for line, cells in _data_rows(reader):
            if len(cells) != len(header):
                raise DataFormatError(
                    f"{path}: line {line}: expected {len(header)} columns, "
                    f"got {len(cells)}")
            try:
                values = [float(c) for c in cells]
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {line}: non-numeric value") from None
            if not all(map(math.isfinite, values)):
                raise DataFormatError(f"{path}: line {line}: non-finite value")
            rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return header, np.array(rows)


def _data_rows(reader):
    """(line number, cells) of each row after the header; blank lines are
    skipped."""
    for cells in reader:
        if cells:
            yield reader.line_num, cells


def data_line(path, index: int) -> int:
    """The line number of data row ``index`` (from 0) of a table that
    ``read_table`` accepted."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for i, (line, _) in enumerate(_data_rows(reader)):
            if i == index:
                return line
    raise IndexError("data row out of range")


def dump_json(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
