"""Exception types shared across the package, and the type check of config
values and artifact fields that raises them."""

import numbers
import sys
from collections.abc import Mapping


class FairpairError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FairpairError):
    """Invalid input data, configuration, or degenerate request."""


class ParseError(ValidationError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require_types(values: Mapping[str, object], ints=(), floats=()) -> dict:
    """Reject values that are not integers (``ints``) or finite reals (``floats``).

    ``values`` maps each name to its value; the error message names the
    offending entry.  Bools are rejected for both; integers are accepted as
    reals, but not one too large for a float.  Returns the values, each real
    as a float: numpy takes 2.0**64 but no integer beyond int64.
    """
    for name in ints:
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    for name in floats:
        value = values[name]
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # a NaN compares false
            raise ValidationError(f"{name} must be finite, got {value!r}")
    return {**values, **{name: float(values[name]) for name in floats}}
