"""Exception types shared across the package, and the readers of input files."""

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
