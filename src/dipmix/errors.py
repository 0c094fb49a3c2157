"""Exception types, and the one integer rule, seed rule and real-number
rule, shared across the package."""

import math
import numbers


def is_int(value) -> bool:
    """An integer that is not a bool, so that JSON true is not taken for 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_seed(value) -> bool:
    """A nonnegative integer, the seeds numpy's generators accept."""
    return is_int(value) and value >= 0


def is_real(value) -> bool:
    """A finite real number that is not a bool, so that JSON true, NaN and
    Infinity, and an integer beyond float range, are not taken for numbers."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class ConfigurationError(ValueError):
    """Invalid configuration value or combination of values."""


class ShapeError(ValueError):
    """Array arguments with incompatible dimensions."""


class DomainError(ValueError):
    """Scalar argument outside its mathematical domain."""


class NumericError(ValueError):
    """Non-finite values where finite arithmetic is required."""


class DivergenceError(RuntimeError):
    """Training whose loss became non-finite or grew past its divergence bound."""


class ParseError(ValueError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
