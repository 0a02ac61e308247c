"""Exception types shared across the package."""

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

class ConfigInvalid(GridTradeError):
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
