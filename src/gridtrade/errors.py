"""Exception types shared across the package."""


class GridTradeError(Exception):
    """Base class for all package-specific errors."""


# --- market ---------------------------------------------------------------

class PriceOutOfEnvelope(GridTradeError):
    """Quotation price magnitude falls outside [feed_in, emergency]."""


class NegativeQuantity(GridTradeError):
    """Quotation quantity is negative (or not a number)."""


class CrossViolation(GridTradeError):
    """Mid-point price requested for a non-crossing bid/ask pair."""


# --- scenario -------------------------------------------------------------

class EmptySeries(GridTradeError):
    """An input series contains no samples."""


class NonHourlyData(GridTradeError):
    """An input series is malformed: too short, non-finite, or not hourly."""


class IndexOutOfRange(GridTradeError):
    """Hour index outside the 24-hour schedule."""


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


class NonFiniteInput(GridTradeError):
    """A network received NaN or infinite input."""


# --- cli ------------------------------------------------------------------

class ChecksumMismatch(GridTradeError):
    """A checkpoint file failed its integrity check."""


class UnknownFormat(GridTradeError):
    """Unrecognized export format name."""


class IoError(GridTradeError):
    """A file could not be read or written."""
