"""Exception hierarchy shared across the package, and the checks that
turn an argument of the wrong kind into a DomainError.

Domain errors cover invalid arguments and malformed inputs (CLI exit
code 1); numeric errors cover runtime failures of the numerical routines
such as diverging losses or non-finite network outputs (CLI exit code 2).
`as_count`, `as_seed` and `as_real` refuse a value of the wrong type
instead of converting it; a bool is never a number here.  Every count in
the package (sizes, orders, depths, widths, epochs, replicates, workers)
is an integer >= 1, and `as_count` is the one place that says so.  Every
list field (hidden widths, grid shapes, candidate lists) is a list, a
tuple or a 1-D numpy array, and `as_list` is the one place that says so.
"""

import numbers

import numpy as np


class FdnetError(Exception):
    """Base class for all package errors."""


class DomainError(FdnetError, ValueError):
    """An argument or input violates a documented precondition."""


class FormatError(DomainError):
    """A serialized file is malformed.

    `offset` is the byte offset at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class NumericError(FdnetError, ArithmeticError):
    """A numerical routine failed at runtime (NaN loss, non-finite layer)."""


class AliasingWarning(UserWarning):
    """Requested projection order exceeds what the grid can resolve."""


def as_count(value, what: str) -> int:
    """`value` as an int, refused unless it is an integer >= 1: a Python or
    numpy integer passes, while a bool, float or string raises DomainError
    ("must be an integer") instead of being converted, and so does an
    integer below 1 ("must be >= 1")."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{what} must be >= 1, got {value}")
    return int(value)


def as_list(value, what: str, entry) -> tuple:
    """The tuple of `entry(v, what)` over the entries of `value`, refused
    unless it is a list, a tuple or a 1-D numpy array: a string, a dict, a
    set or a scalar raises DomainError ("must be a list") instead of being
    taken apart or iterated."""
    if not (isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1)):
        raise DomainError(f"{what} must be a list, got {value!r}")
    return tuple(entry(v, what) for v in value)


def as_seed(value) -> int:
    """`value` as an int seed: a non-negative integer, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise DomainError(f"a seed must be a non-negative integer, got {value!r}")
    return int(value)


def as_real(value, what: str) -> float:
    """`value` as a float, refused unless it is a real number (a bool,
    string or None raises DomainError, as does an integer too large for a
    float); its range is the caller's check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} is an integer too large for a float") from None
