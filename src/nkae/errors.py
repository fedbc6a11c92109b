"""Exception types shared across the package, the readers of input files, and the
CSV codec (`read_csv`, `write_csv`, `float_cell`) of every table the package keeps."""

import json
from pathlib import Path

import numpy as np


class ParameterError(ValueError):
    """A caller-supplied parameter violates a documented bound."""


class InapplicableTestError(ValueError):
    """A statistical test's preconditions are not met by the given sample."""


class InternalError(RuntimeError):
    """An internal invariant of the package failed: a bug, not bad input."""


def read_text(path) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 raise ParameterError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def read_json(path, what: str) -> dict:
    """A file's JSON object. ParameterError naming the file when it is not UTF-8,
    not JSON, or `what` (say "a landscape") is not a JSON object."""
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParameterError(f"{path}: {what} must be a JSON object")
    return payload


def json_array(value, what: str, integer: bool = False) -> np.ndarray:
    """JSON numbers nested in lists as a float64 array, or int64 when `integer`.
    Strings, booleans, null, non-integers where integers are due, uneven lists
    and numbers out of the array type's range raise ParameterError naming `what`."""
    kinds, dtype = ({int}, np.int64) if integer else ({int, float}, np.float64)
    cells = np.array(value, dtype=object)
    try:
        if set(map(type, cells.flat)) <= kinds:
            return cells.astype(dtype)
    except OverflowError:
        pass
    raise ParameterError(f"{what} must be JSON {'integers' if integer else 'numbers'}")


def float_cell(value) -> str:
    """A float cell: repr(float(value)), never numpy 2's `np.float64(...)`; empty for None."""
    return "" if value is None else repr(float(value))


def opt_float(cell: str) -> float | None:
    """Read back a `float_cell`: an empty cell is None."""
    return float(cell) if cell else None


def number(cell: str) -> float:
    """A cell's float value; ParameterError saying so when it is not a number."""
    try:
        return float(cell)
    except ValueError:
        raise ParameterError(f"must be numeric, got {cell!r}") from None


def finite_float(cell: str) -> float:
    """A cell's float value; ParameterError saying why when it is not a finite number."""
    value = number(cell)
    if not np.isfinite(value):
        raise ParameterError(f"must be finite, got {cell!r}")
    return value


def read_csv(path, header, parsers=None) -> list[list]:
    """The rows of a CSV file, cell i converted by parsers[i]; blank lines are skipped.

    `header` is the exact first line, or a function of the first line's names
    that checks them (raising ValueError with the reason) and returns the
    parsers. A wrong header, a row of the wrong width or a cell its parser
    rejects raises ParameterError naming the file and line; a parser that
    raises ParameterError gives the reason after the column's name.
    """
    lines = read_text(path).split("\n")
    names = lines[0].strip().split(",")
    if callable(header):
        try:
            parsers = header(names)
        except ValueError as exc:
            raise ParameterError(f"{path}:1: {exc}") from None
    elif lines[0] != header:
        raise ParameterError(f"{path}:1: expected header {header!r}, got {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ParameterError(f"{path}:{lineno}: expected {len(names)} cells, got {len(cells)}")
        row = []
        try:
            for parse, cell in zip(parsers, cells):
                row.append(parse(cell))
        except ValueError as exc:
            name, cell = names[len(row)], cells[len(row)]
            if isinstance(exc, ParameterError):
                raise ParameterError(f"{path}:{lineno}: {name} {exc}") from None
            raise ParameterError(f"{path}:{lineno}: invalid {name} {cell!r}") from None
        rows.append(row)
    return rows


def write_csv(path, header: str, rows) -> None:
    """Write a CSV table: the header line, then each row's str cells joined by commas."""
    lines = [header, *map(",".join, rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
