"""Exception types shared across the package, and the reader of text input files."""

from pathlib import Path


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
