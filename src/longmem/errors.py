"""Exception hierarchy and warning records shared across the toolkit.

Each exception class carries the exit code the CLI returns for it, as
``exit_code``: files that cannot be parsed (``ParseError``) exit with 2,
other validation problems (bad input shape, out-of-range parameters,
gaps, non-finite values) with 3, and numeric failures (zero variance,
empty neighborhoods) with 4.

Non-fatal conditions are reported as ``WarningRecord`` values with stable
codes so that table output and structured output carry the same
diagnostics. The codes are defined here, once.
"""

from dataclasses import dataclass

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])

# A fitted Hurst exponent outside (0, 1.5).
WARN_H_OUT_OF_RANGE = "H_OUT_OF_RANGE"
# Zero-variance blocks left out of the R/S table.
WARN_SKIPPED_BLOCKS = "SKIPPED_BLOCKS"
# A ``lyap --grid`` combination with too few neighbours; the others still report.
WARN_EPS_TOO_SMALL = "EPS_TOO_SMALL"
# A calendar range that reaches past the data.
WARN_RANGE_CLIPPED = "RANGE_CLIPPED"
# A series cut at its first interior gap.
WARN_TRUNCATED_AT_GAP = "TRUNCATED_AT_GAP"


@dataclass(frozen=True)
class WarningRecord:
    """A non-fatal diagnostic with a stable machine-readable code."""

    code: str
    message: str


class LongmemError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(LongmemError):
    """Input violates a precondition (length, range, format)."""

    exit_code = 3


class ParseError(ValidationError):
    """A data file could not be parsed.

    Carries the 1-based line number when the offending line is known.
    """

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericError(LongmemError):
    """Computation is undefined for this input (e.g. zero variance)."""

    exit_code = 4


class EpsTooSmallError(NumericError):
    """No reference point found enough neighbors within the radius.

    ``max_neighbors`` is the largest neighbor count observed, to guide
    the user toward a workable radius.
    """

    def __init__(self, message: str, max_neighbors: int = 0):
        self.max_neighbors = max_neighbors
        super().__init__(message)
