"""Parsers for the supported time-series file formats.

Three formats are understood:

* ``cpc_table``: the climate-center monthly layout, one row per year with
  13 whitespace-separated tokens (``year v1 .. v12``). Header or caption
  lines before the first data row are ignored; once data rows begin,
  malformed rows are errors.
* ``csv_pair``: ``YYYY-MM,value`` rows.
* ``column``: one value per line, ``#`` comments and blank lines allowed,
  no calendar anchor.

``format="auto"`` picks one of the three from the first data-looking line.

Values within 1e-6 of the missing sentinel (default -999.9; a tolerance
because files are decimal text) are absent, and so are the months a
``csv_pair`` file skips. Leading and trailing absences are dropped; an
interior absence is a gap, and gaps are never silently skipped: depending
on ``on_gap`` they either raise or truncate the series at the gap with a
warning record. A non-finite value is never absent, so it is refused as
data.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, calendar_month, format_month, month_number
from .errors import ParseError, ValidationError, WarningRecord
from .errors import WARN_RANGE_CLIPPED, WARN_TRUNCATED_AT_GAP

__all__ = [
    "IngestOptions",
    "ParseResult",
    "parse",
    "select_range",
    "serialize_column",
    "WARN_RANGE_CLIPPED",
    "WARN_TRUNCATED_AT_GAP",
]

FORMATS = ("auto", "cpc_table", "csv_pair", "column")
ON_GAP = ("error", "truncate_at_first_gap")

_SENTINEL_TOL = 1e-6
_DATE_RE = re.compile(r"^(\d{4})-(\d{1,2})$")
_NUMBER_START_RE = re.compile(r"[+-]?\.?\d")


@dataclass(frozen=True)
class IngestOptions:
    """How to interpret a raw document."""

    format: str
    missing_sentinel: float = -999.9
    range: tuple[tuple[int, int], tuple[int, int]] | None = None
    on_gap: str = "error"

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValidationError(f"unknown format {self.format!r}")
        if self.on_gap not in ON_GAP:
            raise ValidationError(f"unknown on_gap policy {self.on_gap!r}")
        if not math.isfinite(self.missing_sentinel):
            # no finite value is close to nan or inf: absences would read as data
            raise ValidationError(
                f"missing_sentinel must be finite, got {self.missing_sentinel!r}"
            )
        if self.range is not None:
            (y0, m0), (y1, m1) = self.range
            if not (1 <= m0 <= 12 and 1 <= m1 <= 12):
                raise ValidationError("range months must be in 1..12")
            if (y0, m0) > (y1, m1):
                raise ValidationError("range start must not be after range end")


@dataclass(frozen=True)
class ParseResult:
    """A parsed series plus any non-fatal diagnostics."""

    series: TimeSeries
    warnings: tuple[WarningRecord, ...] = ()


def _month_name(anchor: tuple[int, int] | None, index: int) -> str:
    if anchor is None:
        return f"index {index}"
    return format_month(calendar_month(month_number(anchor) + index))


def _span_name(span: tuple[tuple[int, int], tuple[int, int]]) -> str:
    return f"{format_month(span[0])}:{format_month(span[1])}"


def _resolve_gaps(
    values: np.ndarray,
    absent: np.ndarray,
    anchor: tuple[int, int] | None,
    on_gap: str,
) -> tuple[np.ndarray, tuple[int, int] | None, list[WarningRecord]]:
    """Strip leading/trailing absences and apply the interior-gap policy."""
    present = np.flatnonzero(~absent)
    if not present.size:
        raise ValidationError("document contains no usable values")
    first, last = int(present[0]), int(present[-1])
    if anchor is not None:
        anchor = calendar_month(month_number(anchor) + first)
    values = values[first : last + 1]
    gaps = np.flatnonzero(absent[first : last + 1])
    if not gaps.size:
        return values, anchor, []
    gap = int(gaps[0])
    where = _month_name(anchor, gap)
    if on_gap == "error":
        raise ValidationError(f"interior gap at {where}")
    truncated = WarningRecord(
        code=WARN_TRUNCATED_AT_GAP,
        message=f"series truncated at interior gap ({where}); "
        f"{values.size - gap} later values dropped",
    )
    return values[:gap], anchor, [truncated]


def _sniff_format(text: str) -> str:
    """Guess the file layout from its first data-looking line.

    When no line matches a layout, the first line that starts like a
    number decides: an integer year token leaves the file to the
    ``cpc_table`` parser, which reports what is wrong with the row; any
    other start is an unsupported layout.
    """
    first_data: tuple[int, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, sep, _ = line.partition(",")
        if sep and left.strip().count("-") == 1:
            return "csv_pair"
        tokens = line.split()
        if len(tokens) == 13:
            try:
                int(tokens[0])
                return "cpc_table"
            except ValueError:
                pass
        if len(tokens) == 1:
            try:
                float(tokens[0])
                return "column"
            except ValueError:
                pass
        if first_data is None and _NUMBER_START_RE.match(line):
            first_data = lineno, tokens[0]
    if first_data is None:
        raise ParseError("no data rows found")
    lineno, token = first_data
    try:
        int(token)
    except ValueError:
        raise ParseError(
            f"unsupported layout starting {token!r}; expected cpc_table rows "
            "'YEAR v1 .. v12', csv_pair rows 'YYYY-MM,value' or a column "
            "of one value per line",
            lineno,
        ) from None
    return "cpc_table"


def _parse_cpc_table(text: str) -> tuple[list[float], tuple[int, int]]:
    values: list[float] = []
    start_year: int | None = None
    prev_year: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            year = int(tokens[0])
        except ValueError:
            if prev_year is None:
                continue  # preamble / caption line
            raise ParseError(f"expected a year row, got {tokens[0]!r}", lineno)
        if len(tokens) != 13:
            raise ParseError(f"expected 13 tokens (year + 12 values), got {len(tokens)}", lineno)
        if prev_year is not None and year != prev_year + 1:
            raise ParseError(
                f"year {year} does not follow {prev_year}; if the file holds "
                "several tables, extract a single one",
                lineno,
            )
        try:
            row = [float(t) for t in tokens[1:]]
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if start_year is None:
            start_year = year
        prev_year = year
        values.extend(row)
    if start_year is None:
        raise ParseError("no data rows found")
    return values, (start_year, 1)


def _parse_csv_pair(text: str) -> tuple[list[int], list[float]]:
    """The month number and the value of each row."""
    months: list[int] = []
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"expected 'YYYY-MM,value', got {line!r}", lineno)
        match = _DATE_RE.match(parts[0])
        if not match or not 1 <= int(match.group(2)) <= 12:
            raise ParseError(f"bad date {parts[0]!r}", lineno)
        try:
            value = float(parts[1])
        except ValueError:
            raise ParseError(f"bad value {parts[1]!r}", lineno) from None
        month = month_number((int(match.group(1)), int(match.group(2))))
        if months and month <= months[-1]:
            raise ParseError("dates must be strictly increasing", lineno)
        months.append(month)
        values.append(value)
    if not months:
        raise ParseError("no data rows found")
    return months, values


def _parse_column(text: str) -> list[float]:
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise ParseError(f"bad value {line!r}", lineno) from None
        values.append(value)
    if not values:
        raise ParseError("no data rows found")
    return values


def select_range(
    ts: TimeSeries, start: tuple[int, int], end: tuple[int, int]
) -> TimeSeries:
    """Inclusive calendar slice of an anchored monthly series."""
    if ts.start is None:
        raise ValidationError("range selection requires a calendar anchor")
    base = month_number(ts.start)
    lo = max(month_number(start) - base, 0)
    hi = min(month_number(end) - base, len(ts) - 1)
    if lo > hi:
        raise ValidationError("range selection leaves no samples")
    return TimeSeries(
        values=ts.values[lo : hi + 1],
        start=calendar_month(base + lo),
        label=ts.label,
    )


def parse(text: str, opts: IngestOptions) -> ParseResult:
    """Parse a raw document into a contiguous monthly series.

    Returns the series together with warning records: truncation at an
    interior gap, and a range that reaches past the data. Range
    selection, when requested, is applied after gap resolution and is
    inclusive on both ends.
    """
    if not text.strip():
        raise ValidationError("document is empty")
    fmt = _sniff_format(text) if opts.format == "auto" else opts.format
    anchor: tuple[int, int] | None = None
    if fmt == "cpc_table":
        raw, anchor = _parse_cpc_table(text)
    elif fmt == "csv_pair":
        months, rows = _parse_csv_pair(text)
        anchor = calendar_month(months[0])
        # a month the file skips holds the sentinel, so it is absent too
        raw = np.full(months[-1] - months[0] + 1, opts.missing_sentinel, dtype=float)
        raw[np.asarray(months) - months[0]] = rows
    else:
        raw = _parse_column(text)
    values = np.asarray(raw, dtype=float)
    # the sentinel is finite, so nan and inf are never absent; a difference
    # that overflows is inf and so not absent either
    with np.errstate(over="ignore"):
        absent = np.abs(values - opts.missing_sentinel) <= _SENTINEL_TOL
    values, anchor, warnings = _resolve_gaps(values, absent, anchor, opts.on_gap)
    series = TimeSeries(values=values, start=anchor)
    if opts.range is not None:
        series = select_range(series, *opts.range)
        delivered = (series.start, series.time_of(len(series) - 1))
        if delivered != tuple(map(tuple, opts.range)):
            warnings.append(
                WarningRecord(
                    code=WARN_RANGE_CLIPPED,
                    message=f"range {_span_name(opts.range)} reaches past the "
                    f"data; delivered {_span_name(delivered)}",
                )
            )
    return ParseResult(series=series, warnings=tuple(warnings))


def serialize_column(ts: TimeSeries) -> str:
    """Column-format text for a series; values round-trip bit-exactly."""
    lines = []
    if ts.label:
        lines.append(f"# {ts.label}")
    if ts.start is not None:
        lines.append(f"# start {format_month(ts.start)}")
    lines.extend(repr(float(v)) for v in ts.values)
    return "\n".join(lines) + "\n"
