"""Parsers for the supported time-series file formats.

Three formats are understood:

* ``cpc_table``: the climate-center monthly layout, one row per year with
  13 whitespace-separated tokens (``year v1 .. v12``). Header or caption
  lines before the first data row are ignored, but not a row of twelve
  values with a bad year; once data rows begin, malformed rows are errors.
* ``csv_pair``: ``YYYY-MM,value`` rows.
* ``column``: one value per line, no calendar anchor.

A leading byte-order mark is dropped, and blank and ``#`` comment lines are
skipped in every layout, before, between and after the data rows.
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

import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import TimeSeries, _checked_start, _real, calendar_month, format_month
from .core import month_number, parse_month
from .errors import ParseError, ValidationError, WarningRecord
from .errors import WARN_RANGE_CLIPPED, WARN_TRUNCATED_AT_GAP

__all__ = list(_EXPORTS["ingest"])

FORMATS = ("auto", "cpc_table", "csv_pair", "column")
ON_GAP = ("error", "truncate_at_first_gap")

_SENTINEL_TOL = 1e-6
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
        # no finite value is close to nan or inf: absences would read as data
        object.__setattr__(
            self, "missing_sentinel", _real(self.missing_sentinel, "missing_sentinel")
        )
        if self.range is not None:
            if not isinstance(self.range, (tuple, list)) or len(self.range) != 2:
                raise ValidationError(f"range must be a (start, end) pair, got {self.range!r}")
            span = _calendar_span(*self.range)
            if span[0] > span[1]:
                raise ValidationError("range start must not be after range end")
            object.__setattr__(self, "range", span)


@dataclass(frozen=True)
class ParseResult:
    """A parsed series plus any non-fatal diagnostics."""

    series: TimeSeries
    warnings: tuple[WarningRecord, ...] = ()


def _calendar_span(start, end) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both ends of a calendar range, each checked by the one calendar rule."""
    return _checked_start(start, "range start"), _checked_start(end, "range end")


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


def _data_lines(lines: list[str]) -> Iterator[tuple[int, str]]:
    """``(1-based line number, stripped line)`` of each line that is neither
    blank nor a ``#`` comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _value(token: str, lineno: int) -> float:
    """``token`` read as a float; a ``ParseError`` naming it otherwise."""
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad value {token!r}", lineno) from None


def _sniff_format(lines: list[str]) -> str:
    """Guess the file layout from its first data-looking line.

    When no line matches a layout, the first line that starts like a
    number decides: an integer year token leaves the file to the
    ``cpc_table`` parser, which reports what is wrong with the row; any
    other start is an unsupported layout.
    """
    first_data: tuple[int, str] | None = None
    for lineno, line in _data_lines(lines):
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


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_cpc_table(lines: list[str]) -> tuple[list[float], tuple[int, int]]:
    values: list[float] = []
    start_year: int | None = None
    prev_year: int | None = None
    for lineno, line in _data_lines(lines):
        tokens = line.split()
        try:
            year = int(tokens[0])
        except ValueError:
            if prev_year is None and not (
                len(tokens) == 13 and all(map(_is_number, tokens[1:]))
            ):
                continue  # a caption line, not a year row with a bad year
            raise ParseError(f"expected a year row, got {tokens[0]!r}", lineno)
        if len(tokens) != 13:
            raise ParseError(f"expected 13 tokens (year + 12 values), got {len(tokens)}", lineno)
        if prev_year is not None and year != prev_year + 1:
            raise ParseError(
                f"year {year} does not follow {prev_year}; if the file holds "
                "several tables, extract a single one",
                lineno,
            )
        row = [_value(t, lineno) for t in tokens[1:]]
        if start_year is None:
            start_year = year
        prev_year = year
        values.extend(row)
    if start_year is None:
        raise ParseError("no data rows found")
    return values, (start_year, 1)


def _parse_csv_pair(
    lines: list[str], sentinel: float
) -> tuple[list[float], tuple[int, int] | None]:
    """Each month's value from the first row's month on, and that month; a
    month the file skips holds ``sentinel``, so it is absent too."""
    values: list[float] = []
    first, last = None, 0
    for lineno, line in _data_lines(lines):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"expected 'YYYY-MM,value', got {line!r}", lineno)
        date = parse_month(parts[0])
        if date is None or not 1 <= date[1] <= 12:
            raise ParseError(f"bad date {parts[0]!r}", lineno)
        value = _value(parts[1], lineno)
        month = month_number(date)
        if first is None:
            first, last = date, month - 1
        elif month <= last:
            raise ParseError("dates must be strictly increasing", lineno)
        values += [sentinel] * (month - last - 1)
        values.append(value)
        last = month
    return values, first


def _parse_column(lines: list[str]) -> list[float]:
    return [_value(line, lineno) for lineno, line in _data_lines(lines)]


def select_range(
    ts: TimeSeries, start: tuple[int, int], end: tuple[int, int]
) -> TimeSeries:
    """Inclusive calendar slice of an anchored monthly series."""
    start, end = _calendar_span(start, end)
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
    text = text.removeprefix("\ufeff")  # spreadsheet programs write a byte-order mark
    if not text.strip():
        raise ValidationError("document is empty")
    lines = text.splitlines()
    fmt = _sniff_format(lines) if opts.format == "auto" else opts.format
    if fmt == "cpc_table":
        raw, anchor = _parse_cpc_table(lines)
    elif fmt == "csv_pair":
        raw, anchor = _parse_csv_pair(lines, opts.missing_sentinel)
    else:
        raw, anchor = _parse_column(lines), None
    del lines  # held on while the values are built, they would raise the peak
    if not raw:
        raise ParseError("no data rows found")
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
        if delivered != opts.range:
            warnings.append(
                WarningRecord(
                    code=WARN_RANGE_CLIPPED,
                    message=f"range {_span_name(opts.range)} reaches past the "
                    f"data; delivered {_span_name(delivered)}",
                )
            )
    return ParseResult(series=series, warnings=tuple(warnings))


def serialize_column(ts: TimeSeries) -> str:
    """Column-format text for a series; values round-trip bit-exactly.

    The label, if any, is a comment line. The column layout has no
    calendar, so a series' anchor is not written: the text parses back
    unanchored.
    """
    lines = []
    if ts.label:
        lines.append(f"# {ts.label}")
    lines.extend(repr(float(v)) for v in ts.values)
    return "\n".join(lines) + "\n"
