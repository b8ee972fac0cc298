"""Strict line-oriented ASCII I/O shared by FRACFUN and FRACEXT, and CSV.

Both formats open with a fixed version line, go on with a geometry line
``dim [lead...] h origin... cells...`` and hold row-major value blocks.
Loaders run their body under ``strict``, so a parse error or a range error
from a validating constructor surfaces as a FormatError.  Every CSV line
of the analysis output is made by ``csv_line``.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, FracperimError


def g17(x) -> str:
    """17 significant digits: enough to round-trip any float64."""
    return format(float(x), ".17g")


def csv_line(fields) -> str:
    """One CSV line, without its terminator.

    A str field is written as it is, an int by ``str`` and any other number
    by ``g17``.  A field is quoted only where it holds a comma, a quote or a
    line break.
    """
    out = io.StringIO()
    csv.writer(out).writerow(
        x if isinstance(x, str)
        else str(x) if isinstance(x, (int, np.integer))
        else g17(x)
        for x in fields
    )
    # the default dialect ends its row in "\r\n"; with that terminator it
    # quotes a lone "\r" too, which a "\n" terminator would leave bare
    return out.getvalue()[:-2]


def csv_text(header: str, *lines) -> str:
    """The header and the csv_line lines, each ending in a newline."""
    return "".join(f"{line}\n" for line in (header, *lines))


def write_lines(path, lines) -> None:
    """Write each line of an iterable as it arrives, newline-terminated."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(line + "\n" for line in lines)


@contextmanager
def strict(what: str):
    """Re-raise parse and validation errors in the block as FormatError."""
    try:
        yield
    except FormatError:
        raise
    except (ValueError, IndexError, KeyError, OverflowError, FracperimError) as exc:
        raise FormatError(f"bad {what} file: {exc}") from exc


def read_ascii(path) -> str:
    """The text of a file; a non-ASCII byte is a FormatError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(
            f"{path}: line {line}: non-ASCII byte 0x{data[exc.start]:02x}"
        ) from exc


def read_lines(path, header: str) -> list[str]:
    """The nonblank lines after a first line that must equal ``header``."""
    lines = read_ascii(path).splitlines()
    if not lines or lines[0] != header:
        raise FormatError(f"{path}: first line does not match {header!r}")
    return [ln for ln in lines[1:] if ln.strip()]


def geometry_line(spec, *lead) -> str:
    """``dim [lead...] h origin... cells...``, floats in shortest repr."""
    floats = [repr(float(x)) for x in (*lead, spec.h, *spec.origin)]
    return " ".join([str(spec.dim), *floats, *map(str, spec.cells)])


def parse_geometry(line: str, nlead: int):
    """Inverse of geometry_line: GridSpec's ``(dim, cells, h, origin)``, lead."""
    fields = line.split()
    dim = int(fields[0])
    if len(fields) != 2 + nlead + 2 * dim:
        raise FormatError(f"geometry line has {len(fields)} fields: {line!r}")
    floats = [float(x) for x in fields[1 : 2 + nlead + dim]]
    cells = tuple(int(x) for x in fields[2 + nlead + dim :])
    return (dim, cells, floats[nlead], floats[nlead + 1 :]), floats[:nlead]


def bit(token: str) -> bool:
    """One cell of a 0/1 block."""
    if token not in ("0", "1"):
        raise FormatError(f"expected a 0/1 cell, got {token!r}")
    return token == "1"


def format_block(arr, fmt) -> list[str]:
    """Row-major text: one line per index along axis 0, values by ``fmt``."""
    return [" ".join(fmt(x) for x in row) for row in arr.reshape(len(arr), -1)]


def parse_block(rows, shape, conv) -> np.ndarray:
    """Inverse of format_block: an array of ``shape``, values read by ``conv``."""
    ncols = math.prod(shape[1:])
    if len(rows) != shape[0]:
        raise FormatError(f"expected {shape[0]} rows, found {len(rows)}")
    tokens = [row.split() for row in rows]
    if any(len(t) != ncols for t in tokens):
        raise FormatError(f"expected {ncols} values in every row")
    return np.array([[conv(x) for x in t] for t in tokens]).reshape(shape)
