"""Command-line front end for the toolkit.

One subcommand per analysis: ``stats``, ``acf``, ``hurst``, ``suite``,
``lyap``, ``permtest``, and ``gen``. Every subcommand emits an output
envelope (command echo, input digests, results, warnings,
schema_version) rendered as an aligned table, JSON, or CSV; ``--out``
writes plot-ready curve data as two-column numeric text. Identical
invocations on identical inputs produce byte-identical structured output
— the payload carries no timestamps and all randomness is seeded.

Each subcommand's options name the files it reads; ``main`` parses each
once and hands the series to the handler, whose ``_Report`` it renders:
one code path for loading, the envelope, the renderings and ``--out``.
Start-up follows the command: a run adds only its own subcommand's
options to the parser and imports only the analysis module it calls.
Subcommands read every library name as an attribute of this module
(``_lib.acf_fft``): a name bound here, such as a wrapper set before
``main`` runs, is the one called, and any other is looked up lazily
through the package, which imports only the module that defines it.
Exit skips the interpreter's final cyclic collections: run as the
program (``argv`` None), ``main`` freezes the heap before it returns;
called with an ``argv`` list, as a library or a test does, it leaves
the caller's garbage collector alone.

Exit codes: 0 success, 2 usage error, and for a library error the
``exit_code`` of its class in ``errors``: 2 parse error, 3 input
validation error, 4 numeric failure (zero variance, radius too small).
Running out of memory exits 3 with one ``error: not enough memory`` line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import shlex
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __getattr__ as _package_lookup
from .core import TimeSeries, parse_month
from .errors import (
    WARN_EPS_TOO_SMALL,
    EpsTooSmallError,
    NumericError,
    ParseError,
    ValidationError,
    WarningRecord,
)
from .ingest import FORMATS, ON_GAP, IngestOptions

__all__ = ["main", "SCHEMA_VERSION"]

# this module: subcommands read library names as its attributes
_lib = sys.modules[__name__]

SCHEMA_VERSION = 1

# lyap option -> (EmbeddingParams field, type, help): the axes of --grid,
# in the order of the curve header.
_GRID_FIELDS = {
    "m": ("m", int, "embedding dimension"),
    "d": ("d", int, "embedding delay"),
    "theiler": ("theiler", int, "temporal exclusion window"),
    "eps": ("eps", float, "neighbourhood radius (standardized units)"),
    "refs": ("n_ref", int, "number of reference points"),
    "steps": ("s", int, "forecast horizon"),
}

# Table labels of the suite estimates, in ``HurstSuite`` field order.
_SUITE_LABELS = (
    "Simple R/S Hurst estimation",
    "Corrected R over S Hurst exponent",
    "Empirical Hurst exponent",
    "Corrected empirical Hurst exponent",
    "Theoretical Hurst exponent",
)


# ---------------------------------------------------------------------------
# argument parsing


def _span(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    lo, sep, hi = text.partition(":")
    start, end = parse_month(lo), parse_month(hi)
    if not sep or start is None or end is None:
        raise argparse.ArgumentTypeError(f"expected YYYY-MM:YYYY-MM, got {text!r}")
    return start, end


def _int_pair(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI integers, got {text!r}"
        ) from None


def _add_format_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--input-format",
        choices=FORMATS,
        default="auto",
        help="file layout (default: sniff)",
    )
    sub.add_argument(
        "--missing-sentinel",
        type=float,
        default=-999.9,
        help="value treated as absent (default -999.9)",
    )


def _add_output_options(sub: argparse.ArgumentParser, curve: bool = True) -> None:
    sub.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="envelope rendering (default table)",
    )
    if curve:
        sub.add_argument(
            "--out",
            default=None,
            help="write curve data (two-column numeric text) to this path",
        )


def _add_analysis_options(p, curve: bool = True) -> None:
    """The options of a subcommand that analyses one ``--input`` file."""
    p.add_argument("--input", required=True, help="data file to analyse")
    p.set_defaults(input_options=("input",))
    _add_format_options(p)
    p.add_argument(
        "--range",
        type=_span,
        default=None,
        metavar="YYYY-MM:YYYY-MM",
        help="inclusive calendar slice (anchored formats only)",
    )
    p.add_argument(
        "--on-gap",
        choices=ON_GAP,
        default="error",
        help="policy for interior missing values",
    )
    _add_output_options(p, curve)


def _stats_options(p: argparse.ArgumentParser) -> None:
    _add_analysis_options(p, curve=False)
    p.add_argument(
        "--resolution",
        type=float,
        default=0.1,
        help="rounding grid for the two modes (default 0.1)",
    )


def _acf_options(p: argparse.ArgumentParser) -> None:
    _add_analysis_options(p)
    p.add_argument("--max-lag", type=int, required=True, help="largest lag of the autocorrelation")
    p.add_argument(
        "--method",
        choices=("fft", "direct"),
        default="fft",
        help="fft (default) or direct, one dot product per lag: the cross-check "
        "of fft, whose time grows as length x max-lag",
    )
    p.add_argument(
        "--band",
        type=_int_pair,
        default=None,
        metavar="LO:HI",
        help="also report the mean coefficient over this lag band",
    )


def _hurst_options(p: argparse.ArgumentParser) -> None:
    _add_analysis_options(p)
    p.add_argument(
        "--min-window",
        type=int,
        default=8,
        help="smallest window of the factor-2 ladder (default 8)",
    )
    p.add_argument(
        "--weighted",
        action="store_true",
        help="weight the log-log fit by 1/std_rs^2, the block-to-block R/S scatter",
    )


def _suite_options(p: argparse.ArgumentParser) -> None:
    _add_analysis_options(p, curve=False)


def _lyap_options(p: argparse.ArgumentParser) -> None:
    default = _lib.EmbeddingParams()
    _add_analysis_options(p)
    for name, (field, cast, help) in _GRID_FIELDS.items():
        p.add_argument(f"--{name}", type=cast, default=getattr(default, field), help=help)
    p.add_argument(
        "--random-refs",
        action="store_true",
        help="sample reference points randomly (seeded) instead of evenly",
    )
    p.add_argument("--seed", type=int, default=default.seed, help="seed for --random-refs")
    p.add_argument(
        "--fit",
        type=_int_pair,
        default=None,
        metavar="A:B",
        help="fit a slope over steps A..B of the divergence curve",
    )
    p.add_argument("--dt", type=float, default=1.0, help="sampling interval for the rate")
    p.add_argument(
        "--grid",
        default=None,
        metavar="SPEC",
        help="parameter family, e.g. 'm=2,3,4;eps=0.2,0.3'",
    )


def _permtest_options(p: argparse.ArgumentParser) -> None:
    from .permtest import _BLOCK_SAMPLES, _MAX_THREADS, TAILS

    p.add_argument("--x", required=True, help="first series file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--y", help="second series file")
    group.add_argument(
        "--resultant",
        nargs=2,
        metavar=("U", "V"),
        help="build the second series as sqrt(u^2 + v^2) from two files",
    )
    p.set_defaults(input_options=("x", "y", "resultant"))
    _add_format_options(p)
    p.add_argument(
        "--n-perm",
        type=int,
        default=10000,
        help="number of permutations (default 10000); time grows with "
        f"length x n-perm. They are drawn in blocks of max(1, {_BLOCK_SAMPLES} // "
        f"length) on up to {_MAX_THREADS} threads, one per usable CPU, with the same "
        "result on any number",
    )
    p.add_argument("--seed", type=int, default=0, help="key of the permutation draws (default 0)")
    p.add_argument(
        "--tail",
        choices=TAILS,
        default="two",
        help="the add-one p-value that decides, rejecting at <= 0.05: lower counts "
        "r_k <= r_obs, upper r_k >= r_obs, two |r_k| >= |r_obs| (default two)",
    )
    _add_output_options(p)
    # permtest reads whole files: no calendar slice, and gaps are errors
    p.set_defaults(range=None, on_gap="error")


def _gen_options(p: argparse.ArgumentParser) -> None:
    from .synth import KINDS, PARAMS

    p.add_argument("--kind", choices=KINDS, required=True, help="process to draw")
    p.add_argument("--n", type=int, required=True, help="number of samples to draw")
    p.add_argument("--seed", type=int, default=0, help="seed of the stochastic kinds (default 0)")
    for name, help in PARAMS.items():
        p.add_argument(f"--{name}", type=float, default=None, help=help)
    _add_output_options(p)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with the options of ``command`` only, or of all when None.

    Every subcommand is listed either way. Adding options is most of the
    cost of building the parser, and ``permtest`` and ``gen`` import the
    library module their ``choices`` come from, so a run adds its own only.
    """
    parser = argparse.ArgumentParser(
        prog="longmem",
        description="Long-memory and chaos diagnostics for time series.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help, add_options, _) in _SUBCOMMANDS.items():
        p = subs.add_parser(name, help=help)
        if command in (None, name):
            add_options(p)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing


@dataclass
class _Report:
    """What one subcommand found; ``main`` renders it.

    ``table`` is the table rendering before the warnings; ``curve`` the
    ``--out`` lines, lazy where long so they cost nothing without ``--out``;
    ``warnings`` the analysis's own, reported after the parser's.
    """

    results: dict
    table: list[str]
    curve: Iterable[str] = ()
    warnings: Iterable[WarningRecord] = ()


def _load_series(ns) -> tuple[list[TimeSeries], list[dict], list[WarningRecord]]:
    """Each file's series and ``inputs`` digest, and the parser's warnings.

    A file is read once, as bytes: its digest is that of the bytes on disk,
    as ``sha256sum`` prints it, and the text parsed is their UTF-8 decoding.
    """
    paths: list[str] = []  # the files of the options ns.input_options names, in order
    for dest in getattr(ns, "input_options", ()):  # gen names none
        value = getattr(ns, dest) or []  # an option not given names no file
        paths += [value] if isinstance(value, str) else value  # --resultant names two
    series, inputs, warnings = [], [], []
    if not paths:  # gen: no file, and no format options
        return series, inputs, warnings
    opts = IngestOptions(
        format=ns.input_format,
        missing_sentinel=ns.missing_sentinel,
        range=ns.range,
        on_gap=ns.on_gap,
    )
    for path in paths:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from None
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = f"byte {exc.start} is {data[exc.start]:#04x}"
            raise ParseError(f"{path} is not UTF-8 text: {bad}") from None
        digest = hashlib.sha256(data).hexdigest()
        del data  # held on while the text is parsed, the bytes would raise the peak
        result = _lib.parse(text, opts)
        series.append(result.series)
        inputs.append({"path": path, "sha256": digest, "rows": len(result.series)})
        warnings.extend(result.warnings)
    return series, inputs, warnings


def _plain(value, strict: bool):
    """``value`` with numpy values as Python ones and tuples as lists.

    With ``strict``, for JSON, each nan or infinite float becomes None.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v, strict) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, strict) for v in value]
    if strict and isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _envelope(argv, inputs, results, warnings, strict: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": shlex.join(["longmem", *argv]),
        "inputs": inputs,
        "results": _plain(results, strict),
        "warnings": [{"code": w.code, "message": w.message} for w in warnings],
    }


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    if value is None:
        return "-"
    if isinstance(value, tuple):  # a step or lag range
        return ":".join(map(str, value))
    return str(value)


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}.{i}", v, rows)
    else:
        out = repr(value) if isinstance(value, float) else str(value)
        rows.append((prefix, out))


def _emit(ns, envelope: dict, table_lines: list[str]) -> None:
    warnings = envelope["warnings"]
    if ns.format == "json":
        sys.stdout.write(json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return
    if ns.format == "csv":
        rows: list[tuple[str, str]] = []
        _flatten("", envelope["results"], rows)
        lines = ["key,value", *(f"{k},{v}" for k, v in rows)]
        lines.extend(f"warning.{w['code']},{json.dumps(w['message'])}" for w in warnings)
    else:
        lines = list(table_lines)
        lines.extend(f"warning [{w['code']}]: {w['message']}" for w in warnings)
    sys.stdout.write("\n".join(lines) + "\n")


def _write_out(path: str, lines: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _kv_lines(results: dict, *skip: str) -> list[str]:
    """Aligned key-value lines for the entries of ``results`` that are not
    arrays or nested; a tuple is a range and shows as ``lo:hi``."""
    pairs = [
        (k, v)
        for k, v in results.items()
        if k not in skip and not isinstance(v, (dict, list, np.ndarray))
    ]
    width = max(len(k) for k, _ in pairs)
    return [f"{k:<{width}}  {_fmt_value(v)}" for k, v in pairs]


def _columns(widths: dict[str, int], rows) -> list[str]:
    """A right-aligned table under a header of ``widths``' names."""
    lines = ["  ".join(f"{name:>{w}}" for name, w in widths.items())]
    lines.extend(
        "  ".join(f"{_fmt_value(v):>{w}}" for v, w in zip(row, widths.values()))
        for row in rows
    )
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_stats(ns, series: TimeSeries) -> _Report:
    results = asdict(_lib.summarize(series, mode_resolution=ns.resolution))
    return _Report(results, _kv_lines(results))


def _cmd_acf(ns, series: TimeSeries) -> _Report:
    compute = _lib.acf_fft if ns.method == "fft" else _lib.acf_direct
    result = compute(series, ns.max_lag)
    results = {
        "n": result.n,
        "max_lag": result.max_lag,
        "method": ns.method,
        "first_zero_crossing": _lib.first_zero_crossing(result),
        "coefficients": result.coefficients,
    }
    shown = dict(results)
    if ns.band is not None:
        lo, hi = ns.band
        results["band"] = {"lo": lo, "hi": hi, "mean": _lib.band_mean(result, lo, hi)}
        shown[f"band_mean[{lo}:{hi}]"] = results["band"]["mean"]
    table = _kv_lines(shown)
    table.append("")
    table.extend(_columns({"lag": 5, "r": 12}, enumerate(results["coefficients"].tolist())))
    curve = (f"{k} {float(r)!r}" for k, r in enumerate(result.coefficients))
    return _Report(results, table, curve)


def _cmd_hurst(ns, series: TimeSeries) -> _Report:
    table = _lib.rs_table(series, min_window=ns.min_window)
    estimate = _lib.fit_h(table, weighted=ns.weighted)
    results = asdict(estimate)
    del results["warnings"]  # reported with the run's other warnings
    results["skipped_blocks"] = table.skipped_blocks
    results["table"] = [asdict(point) for point in table]
    widths = {"window": 8, "mean_rs": 12, "std_rs": 12, "blocks": 6}
    lines = _columns(widths, (point.values() for point in results["table"]))
    lines.append("")
    # the skipped-block count is reported by the SKIPPED_BLOCKS warning
    lines.extend(_kv_lines(results, "skipped_blocks"))
    curve = [f"{p.window} {p.mean_rs!r}" for p in table]
    return _Report(results, lines, curve, [*estimate.warnings, *table.warnings])


def _cmd_suite(ns, series: TimeSeries) -> _Report:
    results = asdict(_lib.hurst_suite(series))
    labelled = {f"{label}:": value for label, value in zip(_SUITE_LABELS, results.values())}
    return _Report(results, _kv_lines(labelled))


def _parse_grid(spec: str) -> list[dict]:
    axes: dict[str, list] = {}  # EmbeddingParams field -> its values
    for part in spec.split(";"):
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep or name not in _GRID_FIELDS:
            raise ValidationError(
                f"bad grid axis {part!r}; use name=v1,v2 with names "
                f"{', '.join(sorted(_GRID_FIELDS))}"
            )
        field, cast, _ = _GRID_FIELDS[name]
        if field in axes:
            raise ValidationError(f"grid axis {name!r} given twice")
        try:
            values = [cast(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise ValidationError(f"bad grid values in {part!r}") from None
        if not values:
            raise ValidationError(f"empty grid axis {part!r}")
        if len(set(values)) < len(values):
            raise ValidationError(f"grid axis {name!r} repeats a value in {part!r}")
        axes[field] = values
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def _cmd_lyap(ns, series: TimeSeries) -> _Report:
    base = {field: getattr(ns, name) for name, (field, *_) in _GRID_FIELDS.items()}
    base.update(seed=ns.seed, random_sample=ns.random_refs)
    overrides = [{}] if ns.grid is None else _parse_grid(ns.grid)
    # every combination, its length rule and its fit are checked before
    # the first curve is computed
    grid = [_lib.EmbeddingParams(**{**base, **combo}) for combo in overrides]
    from .chaos import _checked_fit, _checked_length

    for params in grid:
        _checked_length(len(series), params)
        if ns.fit is not None:
            _checked_fit(*ns.fit, ns.dt, params.s)
    # each combination adds one block to each output: a blank line, its
    # header, then its error or its curve; the first blank is cut at the end
    payloads, lines, curve_lines, failures, warnings = [], [], [], [], []
    for params in grid:
        payload = {
            "params": {
                "m": params.m,
                "d": params.d,
                "theiler": params.theiler,
                "eps": params.eps,
                "n_ref": params.n_ref,
                "steps": params.s,
                "k_min": params.k_min,
            },
        }
        label = " ".join(
            f"{name}={getattr(params, field)}" for name, (field, *_) in _GRID_FIELDS.items()
        )
        lines += ["", f"# {label}"]
        curve_lines.append("")
        if len(grid) > 1:
            curve_lines.append(f"# {label}")
        try:
            curve = _lib.lyap_k(series, params)
        except EpsTooSmallError as exc:
            # one radius too small for this combination spoils only its curve
            failures.append(exc)
            payload["error"] = str(exc)
            warnings.append(WarningRecord(code=WARN_EPS_TOO_SMALL, message=f"{label}: {exc}"))
            lines.append(f"error: {exc}")
            curve_lines.append(f"# error: {exc}")
        else:
            payload["s_values"] = curve.s_values
            payload["ref_counts"] = curve.ref_counts
            rows = zip(itertools.count(), curve.s_values.tolist(), curve.ref_counts.tolist())
            lines.extend(_columns({"step": 5, "S": 12, "refs": 5}, rows))
            if ns.fit is not None:
                fit = _lib.lyap_fit(curve, ns.fit[0], ns.fit[1], dt=ns.dt)
                payload["fit"] = {**asdict(fit), "chaos_consistent": fit.chaos_consistent}
                lines.append("")
                lines.extend(_kv_lines(payload["fit"]))
            curve_lines.extend(f"{step} {float(s)!r}" for step, s in enumerate(curve.s_values))
        payloads.append(payload)
    if len(failures) == len(grid):
        raise failures[0]
    return _Report({"curves": payloads}, lines[1:], curve_lines[1:], warnings)


def _cmd_permtest(ns, x: TimeSeries, *others: TimeSeries) -> _Report:
    if ns.y is not None:  # others is y, or the --resultant files' u and v
        [y] = others
    else:
        u_series, v_series = others
        from .permtest import _paired

        # U and V pair by the library's rule, and the resultant keeps their anchor
        u, v = _paired(u_series, v_series)
        y = TimeSeries(np.hypot(u, v), start=u_series.start or v_series.start)

    result = _lib.perm_test(
        x,
        y,
        n_perm=ns.n_perm,
        seed=ns.seed,
        tail=ns.tail,
    )
    results = {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name not in ("r_sorted", "r_sorted_summary")
    }
    results["r_sorted_summary"] = dict(result.r_sorted_summary)
    summary = {f"r_sorted[{k}]": v for k, v in result.r_sorted_summary.items()}
    curve = (f"{rank} {float(r)!r}" for rank, r in enumerate(result.r_sorted, start=1))
    return _Report(results, _kv_lines({**results, **summary}), curve)


def _cmd_gen(ns) -> _Report | str:
    """The generated column as text, or a report when it goes to ``--out``."""
    from .synth import PARAMS

    kwargs = {name: getattr(ns, name) for name in PARAMS if getattr(ns, name) is not None}
    spec = _lib.GenSpec(kind=ns.kind, n=ns.n, seed=ns.seed, **kwargs)
    text = _lib.serialize_column(_lib.generate(spec))
    if ns.out is None:
        return text
    results = {"kind": ns.kind, "n": ns.n, "seed": ns.seed, "path": ns.out, **kwargs}
    return _Report(results, _kv_lines(results), text.splitlines())


# Each subcommand's help line, the function that adds its options and
# the one that runs it.
_SUBCOMMANDS = {
    "stats": ("descriptive summary statistics", _stats_options, _cmd_stats),
    "acf": ("autocorrelation function", _acf_options, _cmd_acf),
    "hurst": ("rescaled-range table and fitted exponent", _hurst_options, _cmd_hurst),
    "suite": ("five-variant rescaled-range estimator suite", _suite_options, _cmd_suite),
    "lyap": ("divergence curve and largest Lyapunov exponent", _lyap_options, _cmd_lyap),
    "permtest": ("seeded permutation test of a correlation", _permtest_options, _cmd_permtest),
    "gen": ("synthetic series with known properties", _gen_options, _cmd_gen),
}


# ---------------------------------------------------------------------------
# entry point


def __getattr__(name: str):
    """A public library name not bound here, from the package's lazy lookup."""
    try:
        return _package_lookup(name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def main(argv=None) -> int:
    """Run one command and return its exit code.

    With ``argv`` None, ``main`` runs as the program: it reads
    ``sys.argv`` and freezes the heap before it returns, on every path,
    so shutdown skips the final cyclic collections. A caller that passes
    ``argv`` keeps its garbage collector as it was.
    """
    if argv is not None:
        return _run(list(argv))
    try:
        return _run(sys.argv[1:])
    finally:
        gc.freeze()


def _run(argv: list[str]) -> int:
    # the top-level parser takes no option with a value, so a subcommand
    # named first is the one that runs
    parser = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _, _, command = _SUBCOMMANDS[ns.subcommand]
        series, inputs, warnings = _load_series(ns)
        report = command(ns, *series)
        if isinstance(report, str):  # gen without --out: the bare column
            sys.stdout.write(report)
            return 0
        # the curve file comes first, so a failed write prints no envelope
        if getattr(ns, "out", None):
            _write_out(ns.out, report.curve)
        warnings.extend(report.warnings)  # the parser's first, then the analysis's
        envelope = _envelope(argv, inputs, report.results, warnings, ns.format == "json")
        _emit(ns, envelope, report.table)
        return 0
    except (ValidationError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return ValidationError.exit_code
