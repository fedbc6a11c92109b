"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A caller-supplied parameter violates a documented bound."""


class InapplicableTestError(ValueError):
    """A statistical test's preconditions are not met by the given sample."""


class InternalError(RuntimeError):
    """An internal invariant of the package failed: a bug, not bad input."""
