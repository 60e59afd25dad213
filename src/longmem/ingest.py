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

Values equal to the missing sentinel (default -999.9, compared with a
small tolerance because files are decimal text) are treated as absent.
Trailing absences are dropped; an interior absence is a gap, and gaps are
never silently skipped: depending on ``on_gap`` they either raise or
truncate the series at the gap with a warning record.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries
from .errors import ParseError, ValidationError, WarningRecord

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

WARN_RANGE_CLIPPED = "RANGE_CLIPPED"
WARN_TRUNCATED_AT_GAP = "TRUNCATED_AT_GAP"

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


def _is_missing(value: float, sentinel: float) -> bool:
    return math.isclose(value, sentinel, rel_tol=0.0, abs_tol=_SENTINEL_TOL)


def _month_name(anchor: tuple[int, int] | None, index: int) -> str:
    if anchor is None:
        return f"index {index}"
    total = anchor[0] * 12 + anchor[1] - 1 + index
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


def _span_name(span: tuple[tuple[int, int], tuple[int, int]]) -> str:
    return f"{_month_name(span[0], 0)}:{_month_name(span[1], 0)}"


def _resolve_gaps(
    values: list[float | None],
    anchor: tuple[int, int] | None,
    on_gap: str,
) -> tuple[list[float], tuple[int, int] | None, list[WarningRecord]]:
    """Strip leading/trailing absences and apply the interior-gap policy."""
    first = next((i for i, v in enumerate(values) if v is not None), None)
    if first is None:
        raise ValidationError("document contains no usable values")
    last = max(i for i, v in enumerate(values) if v is not None)
    if anchor is not None and first > 0:
        total = anchor[0] * 12 + anchor[1] - 1 + first
        anchor = (total // 12, total % 12 + 1)
    trimmed = values[first : last + 1]
    warnings: list[WarningRecord] = []
    try:
        gap = trimmed.index(None)
    except ValueError:
        gap = None
    if gap is not None:
        where = _month_name(anchor, gap)
        if on_gap == "error":
            raise ValidationError(f"interior gap at {where}")
        trimmed = trimmed[:gap]
        warnings.append(
            WarningRecord(
                code=WARN_TRUNCATED_AT_GAP,
                message=f"series truncated at interior gap ({where}); "
                f"{last + 1 - first - gap} later values dropped",
            )
        )
    return trimmed, anchor, warnings  # type: ignore[return-value]


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


def _parse_cpc_table(text: str, opts: IngestOptions) -> tuple[list[float | None], tuple[int, int]]:
    values: list[float | None] = []
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
        values.extend(None if _is_missing(v, opts.missing_sentinel) else v for v in row)
    if start_year is None:
        raise ParseError("no data rows found")
    return values, (start_year, 1)


def _parse_csv_pair(text: str, opts: IngestOptions) -> tuple[list[float | None], tuple[int, int]]:
    entries: list[tuple[int, float | None]] = []
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
        month_index = int(match.group(1)) * 12 + int(match.group(2)) - 1
        if entries and month_index <= entries[-1][0]:
            raise ParseError("dates must be strictly increasing", lineno)
        entries.append(
            (month_index, None if _is_missing(value, opts.missing_sentinel) else value)
        )
    if not entries:
        raise ParseError("no data rows found")
    first_index = entries[0][0]
    span = entries[-1][0] - first_index + 1
    values: list[float | None] = [None] * span
    for month_index, value in entries:
        values[month_index - first_index] = value
    return values, (first_index // 12, first_index % 12 + 1)


def _parse_column(text: str, opts: IngestOptions) -> list[float | None]:
    values: list[float | None] = []
    seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise ParseError(f"bad value {line!r}", lineno) from None
        seen = True
        values.append(None if _is_missing(value, opts.missing_sentinel) else value)
    if not seen:
        raise ParseError("no data rows found")
    return values


def select_range(
    ts: TimeSeries, start: tuple[int, int], end: tuple[int, int]
) -> TimeSeries:
    """Inclusive calendar slice of an anchored monthly series."""
    if ts.start is None:
        raise ValidationError("range selection requires a calendar anchor")
    base = ts.start[0] * 12 + ts.start[1] - 1
    lo = start[0] * 12 + start[1] - 1 - base
    hi = end[0] * 12 + end[1] - 1 - base
    lo_clipped = max(lo, 0)
    hi_clipped = min(hi, len(ts) - 1)
    if lo_clipped > hi_clipped:
        raise ValidationError("range selection leaves no samples")
    anchor_total = base + lo_clipped
    return TimeSeries(
        values=ts.values[lo_clipped : hi_clipped + 1],
        start=(anchor_total // 12, anchor_total % 12 + 1),
        step_months=ts.step_months,
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
    anchor: tuple[int, int] | None
    if fmt == "cpc_table":
        raw_values, anchor = _parse_cpc_table(text, opts)
    elif fmt == "csv_pair":
        raw_values, anchor = _parse_csv_pair(text, opts)
    else:
        raw_values = _parse_column(text, opts)
        anchor = None
    values, anchor, warnings = _resolve_gaps(raw_values, anchor, opts.on_gap)
    series = TimeSeries(values=np.asarray(values, dtype=float), start=anchor)
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
        lines.append(f"# start {ts.start[0]:04d}-{ts.start[1]:02d}")
    lines.extend(repr(float(v)) for v in ts.values)
    return "\n".join(lines) + "\n"
