"""Command-line front end for the toolkit.

One subcommand per analysis: ``stats``, ``acf``, ``hurst``, ``suite``,
``lyap``, ``permtest``, and ``gen``. Every subcommand emits an output
envelope (command echo, input digests, results, warnings,
schema_version) rendered as an aligned table, JSON, or CSV; ``--out``
writes plot-ready curve data as two-column numeric text. Identical
invocations on identical inputs produce byte-identical structured output
— the payload carries no timestamps and all randomness is seeded.

Exit codes: 0 success, 2 parse/usage error, 3 input validation error,
4 numeric failure (zero variance, radius too small).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import shlex
import sys
from dataclasses import asdict

import numpy as np

from .acf import acf_direct, acf_fft, band_mean, first_zero_crossing
from .chaos import EmbeddingParams, lyap_fit, lyap_k
from .core import TimeSeries, summarize
from .errors import (
    NumericError,
    ParseError,
    ValidationError,
    WarningRecord,
)
from .hurst import (
    WARN_SKIPPED_BLOCKS,
    fit_h,
    fractal_correlation,
    hurst_suite,
    rs_table,
)
from .ingest import FORMATS, IngestOptions, parse, serialize_column
from .permtest import TAILS, perm_test
from .synth import GenSpec, KINDS, generate

__all__ = ["main", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_GRID_FIELDS = {
    "m": ("m", int),
    "d": ("d", int),
    "theiler": ("theiler", int),
    "eps": ("eps", float),
    "steps": ("s", int),
    "refs": ("n_ref", int),
}

_SUITE_ROWS = (
    ("Simple R/S Hurst estimation", "h_simple"),
    ("Corrected R over S Hurst exponent", "h_corrected_rs"),
    ("Empirical Hurst exponent", "h_empirical"),
    ("Corrected empirical Hurst exponent", "h_corrected_empirical"),
    ("Theoretical Hurst exponent", "h_theoretical"),
)


# ---------------------------------------------------------------------------
# argument parsing


def _year_month(text: str) -> tuple[int, int]:
    try:
        year, month = text.split("-")
        return int(year), int(month)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected YYYY-MM, got {text!r}"
        ) from None


def _span(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected START:END, got {text!r}")
    return _year_month(lo), _year_month(hi)


def _int_pair(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI integers, got {text!r}"
        ) from None


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="data file to analyse")
    sub.add_argument(
        "--input-format",
        choices=("auto",) + FORMATS,
        default="auto",
        help="file layout (default: sniff)",
    )
    sub.add_argument(
        "--missing-sentinel",
        type=float,
        default=-999.9,
        help="value treated as absent (default -999.9)",
    )
    sub.add_argument(
        "--range",
        type=_span,
        default=None,
        metavar="YYYY-MM:YYYY-MM",
        help="inclusive calendar slice (anchored formats only)",
    )
    sub.add_argument(
        "--on-gap",
        choices=("error", "truncate_at_first_gap"),
        default="error",
        help="policy for interior missing values",
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longmem",
        description="Long-memory and chaos diagnostics for time series.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("stats", help="descriptive summary statistics")
    _add_input_options(p)
    _add_output_options(p, curve=False)
    p.add_argument(
        "--resolution",
        type=float,
        default=0.1,
        help="rounding grid for the two modes (default 0.1)",
    )
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("acf", help="autocorrelation function")
    _add_input_options(p)
    _add_output_options(p)
    p.add_argument("--max-lag", type=int, required=True)
    p.add_argument("--method", choices=("fft", "direct"), default="fft")
    p.add_argument(
        "--band",
        type=_int_pair,
        default=None,
        metavar="LO:HI",
        help="also report the mean coefficient over this lag band",
    )
    p.set_defaults(func=_cmd_acf)

    p = subs.add_parser("hurst", help="rescaled-range table and fitted exponent")
    _add_input_options(p)
    _add_output_options(p)
    p.add_argument("--min-window", type=int, default=8)
    p.add_argument(
        "--weighted",
        action="store_true",
        help="weight the log-log fit by 1/std_rs^2, the block-to-block R/S scatter",
    )
    p.set_defaults(func=_cmd_hurst)

    p = subs.add_parser("suite", help="five-variant rescaled-range estimator suite")
    _add_input_options(p)
    _add_output_options(p, curve=False)
    p.set_defaults(func=_cmd_suite)

    p = subs.add_parser("lyap", help="divergence curve and largest Lyapunov exponent")
    _add_input_options(p)
    _add_output_options(p)
    p.add_argument("--m", type=int, default=2, help="embedding dimension")
    p.add_argument("--d", type=int, default=1, help="embedding delay")
    p.add_argument("--theiler", type=int, default=12, help="temporal exclusion window")
    p.add_argument("--eps", type=float, default=0.3, help="neighbourhood radius (standardized units)")
    p.add_argument("--steps", type=int, default=12, help="forecast horizon")
    p.add_argument("--refs", type=int, default=200, help="number of reference points")
    p.add_argument(
        "--random-refs",
        action="store_true",
        help="sample reference points randomly (seeded) instead of evenly",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --random-refs")
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
    p.set_defaults(func=_cmd_lyap)

    p = subs.add_parser("permtest", help="seeded permutation test of a correlation")
    p.add_argument("--x", required=True, help="first series file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--y", help="second series file")
    group.add_argument(
        "--resultant",
        nargs=2,
        metavar=("U", "V"),
        help="build the second series as sqrt(u^2 + v^2) from two files",
    )
    p.add_argument(
        "--input-format",
        choices=("auto",) + FORMATS,
        default="auto",
    )
    p.add_argument("--missing-sentinel", type=float, default=-999.9)
    p.add_argument("--n-perm", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail", choices=TAILS, default="two")
    _add_output_options(p)
    p.set_defaults(func=_cmd_permtest)

    p = subs.add_parser("gen", help="synthetic series with known properties")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=None, help="target Hurst exponent (fgn)")
    p.add_argument("--phi", type=float, default=None, help="lag-1 coefficient (ar1)")
    p.add_argument("--r", type=float, default=None, help="logistic-map parameter")
    p.add_argument("--x0", type=float, default=None, help="logistic-map start value")
    p.add_argument("--period", type=float, default=None, help="sine period in samples")
    _add_output_options(p)
    p.set_defaults(func=_cmd_gen)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _sniff_format(text: str) -> str:
    """Guess the file layout from its first data-looking line."""
    for raw in text.splitlines():
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
                continue  # caption line of a table
    return "cpc_table"


def _load_series(
    path: str,
    input_format: str,
    missing_sentinel: float,
    range_: tuple | None = None,
    on_gap: str = "error",
) -> tuple[TimeSeries, dict, list[WarningRecord]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    fmt = _sniff_format(text) if input_format == "auto" else input_format
    opts = IngestOptions(
        format=fmt,
        missing_sentinel=missing_sentinel,
        range=range_,
        on_gap=on_gap,
    )
    result = parse(text, opts)
    digest = {
        "path": path,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "rows": len(result.series),
    }
    return result.series, digest, list(result.warnings)


def _load_input(ns) -> tuple[TimeSeries, list[dict], list[WarningRecord]]:
    series, digest, warnings = _load_series(
        ns.input, ns.input_format, ns.missing_sentinel, ns.range, ns.on_gap
    )
    return series, [digest], warnings


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _envelope(argv, inputs, results, warnings) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": shlex.join(["longmem", *argv]),
        "inputs": inputs,
        "results": _jsonable(results),
        "warnings": [{"code": w.code, "message": w.message} for w in warnings],
    }


def _fmt_value(value) -> str:
    if isinstance(value, float):
        if np.isnan(value):
            return "nan"
        return format(value, ".6g")
    if value is None:
        return "-"
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


def _render_table(envelope: dict, lines: list[str]) -> str:
    rendered = list(lines)
    for warning in envelope["warnings"]:
        rendered.append(f"warning [{warning['code']}]: {warning['message']}")
    return "\n".join(rendered) + "\n"


def _emit(ns, envelope: dict, table_lines: list[str]) -> None:
    if ns.format == "json":
        sys.stdout.write(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    elif ns.format == "csv":
        rows: list[tuple[str, str]] = []
        _flatten("", envelope["results"], rows)
        out = ["key,value"]
        out.extend(f"{k},{v}" for k, v in rows)
        for warning in envelope["warnings"]:
            out.append(f"warning.{warning['code']},{json.dumps(warning['message'])}")
        sys.stdout.write("\n".join(out) + "\n")
    else:
        sys.stdout.write(_render_table(envelope, table_lines))


def _write_out(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _kv_lines(pairs) -> list[str]:
    pairs = list(pairs)
    width = max(len(k) for k, _ in pairs)
    return [f"{k:<{width}}  {_fmt_value(v)}" for k, v in pairs]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_stats(ns, argv) -> int:
    series, inputs, warnings = _load_input(ns)
    stats = summarize(series, mode_resolution=ns.resolution)
    results = asdict(stats)
    envelope = _envelope(argv, inputs, results, warnings)
    lines = _kv_lines(results.items())
    _emit(ns, envelope, lines)
    return 0


def _cmd_acf(ns, argv) -> int:
    series, inputs, warnings = _load_input(ns)
    compute = acf_fft if ns.method == "fft" else acf_direct
    result = compute(series.values, ns.max_lag)
    zero = first_zero_crossing(result)
    results = {
        "n": result.n,
        "max_lag": result.max_lag,
        "method": ns.method,
        "first_zero_crossing": zero,
        "coefficients": result.coefficients,
    }
    if ns.band is not None:
        lo, hi = ns.band
        results["band"] = {"lo": lo, "hi": hi, "mean": band_mean(result, lo, hi)}
    envelope = _envelope(argv, inputs, results, warnings)

    lines = _kv_lines(
        [
            ("n", result.n),
            ("max_lag", result.max_lag),
            ("method", ns.method),
            ("first_zero_crossing", zero),
        ]
    )
    if ns.band is not None:
        lines.extend(_kv_lines([(f"band_mean[{lo}:{hi}]", results["band"]["mean"])]))
    lines.append("")
    lines.append(f"{'lag':>5}  {'r':>12}")
    lines.extend(
        f"{k:>5}  {_fmt_value(float(r)):>12}"
        for k, r in enumerate(result.coefficients)
    )
    _emit(ns, envelope, lines)
    if ns.out:
        _write_out(
            ns.out,
            [f"{k} {float(r)!r}" for k, r in enumerate(result.coefficients)],
        )
    return 0


def _cmd_hurst(ns, argv) -> int:
    series, inputs, warnings = _load_input(ns)
    table = rs_table(series, min_window=ns.min_window)
    estimate = fit_h(table, weighted=ns.weighted)
    warnings.extend(estimate.warnings)
    if table.skipped_blocks:
        warnings.append(
            WarningRecord(
                code=WARN_SKIPPED_BLOCKS,
                message=f"{table.skipped_blocks} zero-variance blocks skipped",
            )
        )
    rho = (
        fractal_correlation(estimate.h).rho if 0.0 < estimate.h < 1.0 else None
    )
    results = {
        "h": estimate.h,
        "std_err": estimate.std_err,
        "r_squared": estimate.r_squared,
        "weighted": estimate.weighted,
        "fractal_dimension": estimate.fractal_dimension,
        "fractal_correlation": rho,
        "points_used": estimate.points_used,
        "skipped_blocks": table.skipped_blocks,
        "table": [asdict(point) for point in table],
    }
    envelope = _envelope(argv, inputs, results, warnings)

    lines = [f"{'window':>8}  {'mean_rs':>12}  {'std_rs':>12}  {'blocks':>6}"]
    lines.extend(
        f"{p.window:>8}  {_fmt_value(p.mean_rs):>12}  "
        f"{_fmt_value(p.std_rs):>12}  {p.blocks:>6}"
        for p in table
    )
    lines.append("")
    lines.extend(
        _kv_lines(
            [
                ("h", estimate.h),
                ("std_err", estimate.std_err),
                ("r_squared", estimate.r_squared),
                ("weighted", estimate.weighted),
                ("fractal_dimension", estimate.fractal_dimension),
                ("fractal_correlation", rho),
                ("points_used", estimate.points_used),
            ]
        )
    )
    _emit(ns, envelope, lines)
    if ns.out:
        _write_out(
            ns.out,
            [f"{p.window} {p.mean_rs!r}" for p in table],
        )
    return 0


def _cmd_suite(ns, argv) -> int:
    series, inputs, warnings = _load_input(ns)
    suite = hurst_suite(series)
    results = asdict(suite)
    envelope = _envelope(argv, inputs, results, warnings)
    width = max(len(label) for label, _ in _SUITE_ROWS) + 1
    lines = [
        f"{label + ':':<{width}}  {_fmt_value(getattr(suite, field))}"
        for label, field in _SUITE_ROWS
    ]
    _emit(ns, envelope, lines)
    return 0


def _parse_grid(spec: str) -> list[dict]:
    axes: list[tuple[str, list]] = []
    for part in spec.split(";"):
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep or name not in _GRID_FIELDS:
            raise ValidationError(
                f"bad grid axis {part!r}; use name=v1,v2 with names "
                f"{', '.join(sorted(_GRID_FIELDS))}"
            )
        field, cast = _GRID_FIELDS[name]
        try:
            values = [cast(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise ValidationError(f"bad grid values in {part!r}") from None
        if not values:
            raise ValidationError(f"empty grid axis {part!r}")
        axes.append((field, values))
    names = [name for name, _ in axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(values for _, values in axes))
    ]


def _curve_payload(params: EmbeddingParams, curve, fit) -> dict:
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
        "s_values": curve.s_values,
        "ref_counts": curve.ref_counts,
    }
    if fit is not None:
        payload["fit"] = {
            "lambda1": fit.lambda1,
            "fit_range": list(fit.fit_range),
            "r_squared": fit.r_squared,
            "dt": fit.dt,
            "chaos_consistent": fit.chaos_consistent,
        }
    return payload


def _cmd_lyap(ns, argv) -> int:
    series, inputs, warnings = _load_input(ns)
    base = {
        "m": ns.m,
        "d": ns.d,
        "theiler": ns.theiler,
        "eps": ns.eps,
        "n_ref": ns.refs,
        "s": ns.steps,
        "seed": ns.seed,
        "random_sample": ns.random_refs,
    }
    overrides = _parse_grid(ns.grid) if ns.grid else [{}]
    payloads = []
    for combo in overrides:
        params = EmbeddingParams(**{**base, **combo})
        curve = lyap_k(series, params)
        fit = (
            lyap_fit(curve, ns.fit[0], ns.fit[1], dt=ns.dt)
            if ns.fit is not None
            else None
        )
        payloads.append((params, curve, fit))

    results = {"curves": [_curve_payload(p, c, f) for p, c, f in payloads]}
    envelope = _envelope(argv, inputs, results, warnings)

    lines: list[str] = []
    for params, curve, fit in payloads:
        lines.append(
            f"# m={params.m} d={params.d} theiler={params.theiler} "
            f"eps={params.eps} refs={params.n_ref} steps={params.s}"
        )
        lines.append(f"{'step':>5}  {'S':>12}  {'refs':>5}")
        lines.extend(
            f"{step:>5}  {_fmt_value(float(s)):>12}  {int(refs):>5}"
            for step, (s, refs) in enumerate(zip(curve.s_values, curve.ref_counts))
        )
        if fit is not None:
            lines.append("")
            lines.extend(
                _kv_lines(
                    [
                        ("lambda1", fit.lambda1),
                        ("fit_range", f"{fit.fit_range[0]}:{fit.fit_range[1]}"),
                        ("r_squared", fit.r_squared),
                        ("dt", fit.dt),
                        ("chaos_consistent", fit.chaos_consistent),
                    ]
                )
            )
        lines.append("")
    if lines and lines[-1] == "":
        lines.pop()
    _emit(ns, envelope, lines)

    if ns.out:
        blocks: list[str] = []
        for params, curve, _ in payloads:
            if len(payloads) > 1:
                blocks.append(
                    f"# m={params.m} d={params.d} theiler={params.theiler} "
                    f"eps={params.eps} refs={params.n_ref} steps={params.s}"
                )
            blocks.extend(
                f"{step} {float(s)!r}" for step, s in enumerate(curve.s_values)
            )
            blocks.append("")
        if blocks and blocks[-1] == "":
            blocks.pop()
        _write_out(ns.out, blocks)
    return 0


def _cmd_permtest(ns, argv) -> int:
    x_series, x_digest, warnings = _load_series(
        ns.x, ns.input_format, ns.missing_sentinel
    )
    inputs = [x_digest]
    if ns.y is not None:
        y_series, y_digest, more = _load_series(
            ns.y, ns.input_format, ns.missing_sentinel
        )
        inputs.append(y_digest)
        warnings.extend(more)
        y_values = y_series.values
    else:
        u_path, v_path = ns.resultant
        u_series, u_digest, more_u = _load_series(
            u_path, ns.input_format, ns.missing_sentinel
        )
        v_series, v_digest, more_v = _load_series(
            v_path, ns.input_format, ns.missing_sentinel
        )
        inputs.extend([u_digest, v_digest])
        warnings.extend(more_u)
        warnings.extend(more_v)
        if len(u_series) != len(v_series):
            raise ValidationError(
                "resultant component files must have equal length "
                f"({len(u_series)} vs {len(v_series)})"
            )
        y_values = np.hypot(u_series.values, v_series.values)

    result = perm_test(
        x_series.values,
        y_values,
        n_perm=ns.n_perm,
        seed=ns.seed,
        tail=ns.tail,
    )
    results = {
        "r_obs": result.r_obs,
        "n": result.n,
        "n_perm": result.n_perm,
        "seed": result.seed,
        "tail": result.tail,
        "r_crit_lower": result.r_crit_lower,
        "r_crit_upper": result.r_crit_upper,
        "p_lower": result.p_lower,
        "p_upper": result.p_upper,
        "p_two_sided": result.p_two_sided,
        "decision_5pct": result.decision_5pct,
        "r_sorted_summary": dict(result.r_sorted_summary),
    }
    envelope = _envelope(argv, inputs, results, warnings)

    pairs = [(k, v) for k, v in results.items() if k != "r_sorted_summary"]
    pairs.extend(
        (f"r_sorted[{name}]", value)
        for name, value in result.r_sorted_summary.items()
    )
    _emit(ns, envelope, _kv_lines(pairs))
    if ns.out:
        _write_out(
            ns.out,
            [f"{rank} {float(r)!r}" for rank, r in enumerate(result.r_sorted, start=1)],
        )
    return 0


def _cmd_gen(ns, argv) -> int:
    kwargs = {
        name: getattr(ns, name)
        for name in ("h", "phi", "r", "x0", "period")
        if getattr(ns, name) is not None
    }
    spec = GenSpec(kind=ns.kind, n=ns.n, seed=ns.seed, **kwargs)
    series = generate(spec)
    text = serialize_column(series)
    if ns.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {ns.out}: {exc}") from None
    results = {"kind": ns.kind, "n": ns.n, "seed": ns.seed, "path": ns.out, **kwargs}
    envelope = _envelope(argv, [], results, [])
    _emit(ns, envelope, _kv_lines(results.items()))
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return ns.func(ns, argv)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
