"""Exception types shared across the package."""


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

