"""Exceptions shared across the solver stack."""

import operator


class ValidationError(ValueError):
    """An input violates a documented precondition (CLI exit code 2)."""


class SolverError(RuntimeError):
    """A linear solve or a time step broke down (CLI exit code 3)."""


def require_integer(value, name: str) -> None:
    """ValidationError unless operator.index accepts value, as it does
    ints and numpy integers: a size or index of 8.5 or 16.0 is refused,
    not truncated."""
    try:
        operator.index(value)
    except TypeError:
        raise ValidationError(
            f"{name} must be an integer, got {value!r}") from None
