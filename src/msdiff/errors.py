"""Exceptions shared across the solver stack."""

import operator


class ValidationError(ValueError):
    """An input violates a documented precondition (CLI exit code 2)."""


class SolverError(RuntimeError):
    """A linear solve or a time step broke down (CLI exit code 3)."""


def require_integer(value, name: str, low=None, high=None) -> int:
    """operator.index(value): ValidationError for a non-integer such as
    8.5 or 16.0 (not truncated), or outside low..high (high needs low)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(
            f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low or high is not None and value > high:
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValidationError(f"need {name} {span}, got {value}")
    return value
