"""Exception types shared across the package, and the rules for user-given values."""

import numbers
import sys
from contextlib import contextmanager


class GridTradeError(Exception):
    """Base class for all package-specific errors."""


# --- market ---------------------------------------------------------------

class PriceOutOfEnvelope(GridTradeError):
    """Quotation price magnitude falls outside [feed_in, emergency]."""


class NegativeQuantity(GridTradeError):
    """Quotation quantity is negative (or not a number)."""


class CrossViolation(GridTradeError):
    """Mid-point price requested for a non-crossing bid/ask pair."""


# --- env / config ---------------------------------------------------------

class ConfigInvalid(GridTradeError, ValueError):
    """A run configuration violates a declared invariant."""


class EpisodeFinished(GridTradeError):
    """step() called on an environment whose episode already ended."""


class InvalidAction(GridTradeError, ValueError):
    """A joint action has the wrong agent count or a non-finite field."""


# --- marl -----------------------------------------------------------------

class ShapeMismatch(GridTradeError):
    """Parameter and gradient shapes do not line up."""


# --- cli ------------------------------------------------------------------

class ChecksumMismatch(GridTradeError):
    """A checkpoint file failed its integrity check."""


class UnknownFormat(GridTradeError):
    """Unrecognized export format name."""


class IoError(GridTradeError):
    """A file could not be read or written."""


@contextmanager
def file_errors(path, doing: str):
    """Turn an OSError, or bytes that are not text, into an IoError naming `path`.

    `doing` completes the message "cannot <doing> <path>", e.g. "read" or
    "write checkpoint".
    """
    try:
        yield
    except (OSError, UnicodeDecodeError) as e:
        raise IoError(f"cannot {doing} {path}: {e}") from e


# --- value rules ----------------------------------------------------------
# Every constructor that takes a value from a user checks it with these, so
# one rule holds everywhere: a bool or a str is never a number.

def _not_a(kind: str, name: str, value) -> ConfigInvalid:
    hint = (" (a string: a quoted number is text, and PyYAML reads 1e-3 as text"
            " too; write 1.0e-3)") if isinstance(value, str) else ""
    return ConfigInvalid(f"{name} must be {kind}, got {value!r}{hint}")


def whole(name: str, value, least: int, most: int | None = None):
    """`value` if it is an int (or numpy integer) in [least, most]; 3.0 is not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or most is not None and value > most):
        span = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise _not_a(f"a whole number {span}", name, value)
    return value


def real(name: str, value):
    """`value` if it is an int or float that is finite as a float64."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _not_a("a real number", name, value)
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigInvalid(f"{name} must be finite, got {value!r}")
    return value


def flag(name: str, value) -> bool:
    """`value` if it is a YAML boolean; the string 'no' is not."""
    if not isinstance(value, bool):
        raise ConfigInvalid(f"{name} must be true or false, got {value!r}")
    return value
