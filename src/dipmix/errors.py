"""Exception types, and the one integer rule and the one real-number rule,
shared across the package. Every bad-input class derives from InputError, so
the CLI maps one class to exit status 2."""

import math
import numbers


def is_int(value) -> bool:
    """An integer that is not a bool, so that JSON true is not taken for 1."""
    # exact type first: every training step checks counts, and the ABC test costs ~4x as much
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite real number that is not a bool, so that JSON true, NaN and
    Infinity, and an integer beyond float range, are not taken for numbers."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_INTERVALS = {
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


def check_int(name: str, value, interval: str) -> None:
    """An integer, not a bool, inside interval: "> 0" for a count, ">= 0" for a seed."""
    if not (is_int(value) and _INTERVALS[interval](value)):
        raise ConfigurationError(f"{name} must be an integer {interval}, got {value!r}")


def check_real(name: str, value, interval: str) -> None:
    """A finite real, not a bool, inside interval, one of the _INTERVALS keys."""
    if not (is_real(value) and _INTERVALS[interval](value)):
        raise ConfigurationError(f"{name} must be a finite number {interval}, got {value!r}")


class InputError(ValueError):
    """Input the caller can correct: a bad value, shape, file or combination."""


class ConfigurationError(InputError):
    """Invalid configuration value or combination of values."""


class ShapeError(InputError):
    """Array arguments with incompatible dimensions."""


class DomainError(InputError):
    """Scalar argument outside its mathematical domain."""


class NumericError(InputError):
    """Non-finite values where finite arithmetic is required."""


class DivergenceError(RuntimeError):
    """Training whose loss became non-finite or grew past its divergence bound."""


class ParseError(InputError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
