"""Exception hierarchy shared across the package.

Domain errors cover invalid arguments and malformed inputs (CLI exit
code 1); numeric errors cover runtime failures of the numerical routines
such as diverging losses or non-finite network outputs (CLI exit code 2).
"""


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
