"""The exception types that the CLI maps to its exit codes.

:class:`ParseError` is malformed input (exit 2); :class:`ConsistencyError`
and :class:`DivisibilityError` are internal faults (exit 3).
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed text input; ``position`` is the 0-based offset of the offending character."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; this signals a modeling bug, not bad input."""


class DivisibilityError(ArithmeticError):
    """Exact division failed: the divisor does not divide the dividend in Z[t, t^-1]."""
