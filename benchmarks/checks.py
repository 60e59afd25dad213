"""Output checks: envelopes, library equality and independent oracles.

Every operation the benchmark runs is checked; an operation with any
problem counts as failed. For a CLI operation the checks are

* exit code 0 and a well-formed envelope (``schema_version`` 1, the
  command echo, input digests and the expected result keys);
* results bit-equal to the library called in-process on the same input
  (compared as canonical JSON, whose floats round-trip exactly);
* oracles computed here with numpy alone, with tolerances from rounding
  theory or sampling theory, not from the seed's output.

Byte-identical stdout across repeated invocations is checked by the
runner, which compares every invocation with the first.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import longmem
from longmem import EmbeddingParams, GenSpec, IngestOptions

EPS = float(np.finfo(float).eps)
SCHEMA_VERSION = 1
ENVELOPE_KEYS = {"schema_version", "command", "inputs", "results", "warnings"}
# A line fit over at most a few dozen log-log points is accurate to far
# better than this; estimator changes move slopes by far more.
SLOPE_TOL = 1e-9
# Known finite-sample bias of rescaled-range estimators at strong
# persistence or anti-persistence (Weron 2002), on top of the ensemble's
# standard error.
H_BIAS_ALLOWANCE = 0.10
# Accuracy of the divergence-curve slope on the logistic map, as in the
# repository's own chaos oracle.
LYAP_TOL = 0.05
SUMMARY_ORDER = ("min", "q01", "q05", "q25", "q50", "q75", "q95", "q99", "max")


def sum_tol(n: int) -> float:
    """Rounding bound for an n-term sum of unit-scale products (about n*eps)."""
    return 10.0 * n * EPS


def jsonable(value):
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def canonical(value) -> str:
    return json.dumps(jsonable(value), sort_keys=True)


# ---------------------------------------------------------------------------
# oracles over plain values


def summary_problems(x: np.ndarray, mean: float, variance: float) -> list[str]:
    n = x.size
    exact_mean = math.fsum(x.tolist()) / n
    exact_var = math.fsum(((x - exact_mean) ** 2).tolist()) / (n - 1)
    problems = []
    if abs(mean - exact_mean) > sum_tol(n) * float(np.max(np.abs(x))):
        problems.append(f"mean {mean!r} differs from exact sum {exact_mean!r}")
    if abs(variance - exact_var) > sum_tol(n) * exact_var:
        problems.append(f"variance {variance!r} differs from exact sum {exact_var!r}")
    return problems


def acf_coefficients(x: np.ndarray, max_lag: int) -> np.ndarray:
    """r_0..r_max_lag by plain numpy sums, the biased full-mean convention."""
    d = x - np.mean(x)
    denom = float(d @ d)
    return np.array([float(d[: d.size - k] @ d[k:]) / denom for k in range(max_lag + 1)])


def acf_problems(x, coefficients, zero_crossing, band=None, band_value=None) -> list[str]:
    coefficients = np.asarray(coefficients, dtype=float)
    oracle = acf_coefficients(x, coefficients.size - 1)
    tol = sum_tol(x.size)
    problems = []
    worst = float(np.max(np.abs(coefficients - oracle)))
    if not worst <= tol:
        problems.append(f"acf differs from direct numpy sums by {worst:.3g} > {tol:.3g}")
    below = [k for k in range(1, oracle.size) if oracle[k] <= 0.0]
    if below:
        k = below[0]
        if zero_crossing != k and abs(oracle[k]) > tol:
            problems.append(f"first zero crossing {zero_crossing}, oracle says {k}")
    elif zero_crossing is not None and abs(oracle[zero_crossing]) > tol:
        problems.append(f"first zero crossing {zero_crossing}, oracle finds none")
    if band is not None:
        lo, hi = band
        expected = float(np.mean(oracle[lo : hi + 1]))
        if not abs(band_value - expected) <= tol:
            problems.append(f"band mean {band_value!r} differs from oracle {expected!r}")
    return problems


def rs_problems(x: np.ndarray, rows, h: float) -> list[str]:
    """Check (window, mean_rs, std_rs, blocks) rows and the fitted slope.

    The oracle computes every block's R/S at once from a reshaped array,
    an independent route from the program's per-block loop.
    """
    problems = []
    tol = sum_tol(x.size)
    for window, mean_rs, std_rs, blocks in rows:
        nb = x.size // window
        b = x[: nb * window].reshape(nb, window)
        s = np.std(b, axis=1, ddof=1)
        dev = np.cumsum(b - b.mean(axis=1, keepdims=True), axis=1)
        keep = s > 0.0
        rs = (dev.max(axis=1) - dev.min(axis=1))[keep] / s[keep]
        if rs.size != blocks:
            problems.append(f"window {window}: {blocks} blocks, oracle {rs.size}")
            continue
        want_std = float(np.std(rs, ddof=1)) if rs.size > 1 else 0.0
        if not abs(mean_rs - float(rs.mean())) <= tol * float(rs.mean()):
            problems.append(f"window {window}: mean R/S {mean_rs!r}, oracle {rs.mean()!r}")
        if not abs(std_rs - want_std) <= tol * max(want_std, 1.0):
            problems.append(f"window {window}: std R/S {std_rs!r}, oracle {want_std!r}")
    if len(rows) >= 2:
        slope = np.polyfit(np.log2([r[0] for r in rows]), np.log2([r[1] for r in rows]), 1)[0]
        if not abs(h - slope) <= SLOPE_TOL:
            problems.append(f"h {h!r} differs from the log-log slope {slope!r}")
    return problems


def permtest_problems(x, y, r_obs, p_values, summary: dict, crit_lower, crit_upper) -> list[str]:
    problems = []
    oracle = float(np.corrcoef(x, y)[0, 1])
    if not abs(r_obs - oracle) <= sum_tol(x.size):
        problems.append(f"r_obs {r_obs!r} differs from numpy corrcoef {oracle!r}")
    for name, p in p_values.items():
        if not 0.0 < p <= 1.0:
            problems.append(f"{name} {p!r} outside (0, 1]")
    ordered = [summary[k] for k in SUMMARY_ORDER]
    if any(b < a for a, b in zip(ordered, ordered[1:])):
        problems.append("r_sorted_summary is not monotone")
    if not -1.0 <= ordered[0] <= crit_lower <= crit_upper <= ordered[-1] <= 1.0:
        problems.append("critical values out of order with the null distribution")
    return problems


def lag1_theory(spec: GenSpec) -> float | None:
    if spec.kind == "fgn":
        return 2.0 ** (2.0 * spec.h - 1.0) - 1.0
    if spec.kind == "ar1":
        return spec.phi
    return None


def generated_problems(values: np.ndarray, spec: GenSpec) -> list[str]:
    if values.size != spec.n or not np.all(np.isfinite(values)):
        return [f"generated {values.size} values (finite or not), expected {spec.n} finite"]
    theory = lag1_theory(spec)
    if theory is None:
        return []
    # Lag-1 autocorrelation about the known mean 0. Its standard error is
    # about 1/sqrt(n), and n^(2H-2) for fGn with H > 3/4, whose sample
    # autocovariances converge more slowly (Hosking 1996).
    r1 = float(values[:-1] @ values[1:]) / float(values @ values)
    se = 1.0 / math.sqrt(spec.n)
    if spec.kind == "fgn":
        se = max(se, spec.n ** (2.0 * spec.h - 2.0))
    if abs(r1 - theory) > 6.0 * se:
        return [f"lag-1 autocorrelation {r1:.4f}, theory {theory:.4f} +- {6.0 * se:.4f}"]
    return []


def lyap_curve_problems(s_values, ref_counts, n_ref, fit_range, lambda1, r_squared) -> list[str]:
    s = np.asarray(s_values, dtype=float)
    counts = np.asarray(ref_counts)
    problems = []
    if np.any(counts > n_ref) or np.any(counts < 0):
        problems.append("reference counts outside [0, n_ref]")
    if not np.all(np.isfinite(s[counts > 0])):
        problems.append("non-finite divergence value at a step with references")
    lo, hi = fit_range
    slope = np.polyfit(np.arange(lo, hi + 1, dtype=float), s[lo : hi + 1], 1)[0]
    if not abs(lambda1 - slope) <= SLOPE_TOL:
        problems.append(f"lambda1 {lambda1!r} differs from the curve slope {slope!r}")
    if not -SLOPE_TOL <= r_squared <= 1.0 + SLOPE_TOL:
        problems.append(f"r_squared {r_squared!r} outside [0, 1]")
    return problems


def ensemble_h_problems(h: float, estimates: list[float]) -> list[str]:
    k = len(estimates)
    mean = float(np.mean(estimates))
    spread = float(np.std(estimates, ddof=1)) if k > 1 else 0.0
    tol = H_BIAS_ALLOWANCE + 3.0 * spread / math.sqrt(k)
    if abs(mean - h) > tol:
        return [f"h={h}: ensemble mean corrected-empirical H {mean:.4f} not within {tol:.4f}"]
    return []


def ensemble_lyap_problems(estimates: list[float]) -> list[str]:
    mean = float(np.mean(estimates))
    if abs(mean - math.log(2.0)) > LYAP_TOL:
        return [f"logistic-map ensemble lambda {mean:.4f} not within {LYAP_TOL} of ln 2"]
    return []


# ---------------------------------------------------------------------------
# CLI operations


@dataclass
class Reference:
    """What a CLI operation must print, from the library in-process."""

    envelope: dict | None = None
    text: str | None = None
    spec: GenSpec | None = None
    arrays: dict = field(default_factory=dict)


def load_series(workdir: Path, name: str, fmt: str):
    text = (workdir / name).read_text(encoding="utf-8")
    result = longmem.parse(text, IngestOptions(format=fmt))
    digest = {
        "path": name,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "rows": len(result.series),
    }
    warnings = [{"code": w.code, "message": w.message} for w in result.warnings]
    return result.series, digest, warnings


def _lyap_results(series, params: dict) -> dict:
    base = {"m": 2, "d": 1, "theiler": 12, "eps": 0.3, "n_ref": 200, "s": 12}
    curves = []
    for combo in params["grid"]:
        emb = EmbeddingParams(**{**base, **combo})
        curve = longmem.lyap_k(series, emb)
        entry = {
            "params": {"m": emb.m, "d": emb.d, "theiler": emb.theiler, "eps": emb.eps,
                       "n_ref": emb.n_ref, "steps": emb.s, "k_min": emb.k_min},
            "s_values": curve.s_values,
            "ref_counts": curve.ref_counts,
        }
        lo, hi = params["fit"]
        fit = longmem.lyap_fit(curve, lo, hi, dt=1.0)
        entry["fit"] = {"lambda1": fit.lambda1, "fit_range": [lo, hi],
                        "r_squared": fit.r_squared, "dt": fit.dt,
                        "chaos_consistent": fit.chaos_consistent}
        curves.append(entry)
    return {"curves": curves}


def reference(op, workdir: Path) -> Reference:
    """The library's answer for ``op`` on the files in ``workdir``."""
    p = op.params
    if op.kind == "gen":
        spec = GenSpec(**p)
        return Reference(text=longmem.serialize_column(longmem.generate(spec)), spec=spec)
    if op.kind == "permtest":
        x, x_digest, warnings = load_series(workdir, p["x"], p["format"])
        inputs = [x_digest]
        if "y" in p:
            y_series, digest, more = load_series(workdir, p["y"], p["format"])
            inputs.append(digest)
            warnings += more
            y = y_series.values
        else:
            (u, du, wu), (v, dv, wv) = (load_series(workdir, f, p["format"]) for f in p["resultant"])
            inputs += [du, dv]
            warnings += wu + wv
            y = np.hypot(u.values, v.values)
        res = longmem.perm_test(x.values, y, n_perm=p["n_perm"], seed=p["seed"], tail="two")
        results = {k: getattr(res, k) for k in (
            "r_obs", "n", "n_perm", "seed", "tail", "r_crit_lower", "r_crit_upper",
            "p_lower", "p_upper", "p_two_sided", "decision_5pct")}
        results["r_sorted_summary"] = dict(res.r_sorted_summary)
        arrays = {"x": x.values, "y": y}
    else:
        series, digest, warnings = load_series(workdir, p["input"], p["format"])
        inputs = [digest]
        arrays = {"x": series.values}
        if op.kind == "stats":
            results = asdict(longmem.summarize(series, mode_resolution=p["resolution"]))
        elif op.kind == "acf":
            acf = longmem.acf_fft(series.values, p["max_lag"])
            results = {"n": acf.n, "max_lag": acf.max_lag, "method": "fft",
                       "first_zero_crossing": longmem.first_zero_crossing(acf),
                       "coefficients": acf.coefficients}
            if p["band"] is not None:
                lo, hi = p["band"]
                results["band"] = {"lo": lo, "hi": hi, "mean": longmem.band_mean(acf, lo, hi)}
        elif op.kind == "hurst":
            table = longmem.rs_table(series, min_window=p["min_window"])
            est = longmem.fit_h(table, weighted=False)
            warnings += [{"code": w.code, "message": w.message} for w in est.warnings]
            if table.skipped_blocks:
                warnings.append({"code": "SKIPPED_BLOCKS",
                                 "message": f"{table.skipped_blocks} zero-variance blocks skipped"})
            rho = longmem.fractal_correlation(est.h).rho if 0.0 < est.h < 1.0 else None
            results = {"h": est.h, "std_err": est.std_err, "r_squared": est.r_squared,
                       "weighted": est.weighted, "fractal_dimension": est.fractal_dimension,
                       "fractal_correlation": rho, "points_used": est.points_used,
                       "skipped_blocks": table.skipped_blocks,
                       "table": [asdict(pt) for pt in table]}
        elif op.kind == "suite":
            results = asdict(longmem.hurst_suite(series))
        elif op.kind == "lyap":
            results = _lyap_results(series, p)
        else:
            raise ValueError(f"unknown operation kind {op.kind!r}")
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": shlex.join(["longmem", *op.argv]),
        "inputs": inputs,
        "results": jsonable(results),
        "warnings": warnings,
    }
    return Reference(envelope=envelope, arrays=arrays)


def _oracle_problems(kind: str, results: dict, ref: Reference) -> list[str]:
    x = ref.arrays.get("x")
    if kind == "stats":
        return summary_problems(x, results["mean"], results["variance"])
    if kind == "acf":
        band = results.get("band")
        return acf_problems(
            x, results["coefficients"], results["first_zero_crossing"],
            None if band is None else (band["lo"], band["hi"]),
            None if band is None else band["mean"],
        )
    if kind == "hurst":
        rows = [(r["window"], r["mean_rs"], r["std_rs"], r["blocks"]) for r in results["table"]]
        return rs_problems(x, rows, results["h"])
    if kind == "suite":
        bad = [k for k, v in results.items() if not (isinstance(v, float) and math.isfinite(v))]
        return [f"non-finite suite estimate {k}" for k in bad]
    if kind == "lyap":
        problems = []
        for curve in results["curves"]:
            fit = curve["fit"]
            problems += lyap_curve_problems(
                curve["s_values"], curve["ref_counts"], curve["params"]["n_ref"],
                fit["fit_range"], fit["lambda1"], fit["r_squared"],
            )
        return problems
    if kind == "permtest":
        p_values = {k: results[k] for k in ("p_lower", "p_upper", "p_two_sided")}
        return permtest_problems(ref.arrays["x"], ref.arrays["y"], results["r_obs"], p_values,
                                 results["r_sorted_summary"], results["r_crit_lower"],
                                 results["r_crit_upper"])
    return [f"no oracle for {kind!r}"]


def check_cli_output(op, exit_code: int, stdout: bytes, ref: Reference) -> list[str]:
    """Problems with one CLI invocation's output; empty when correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return ["stdout is not UTF-8"]
    if op.kind == "gen":
        if text != ref.text:
            return ["generated text differs from serialize_column(generate(spec))"]
        values = np.array([float(line) for line in text.splitlines() if not line.startswith("#")])
        return generated_problems(values, ref.spec)
    try:
        envelope = json.loads(text)
    except ValueError:
        return ["stdout is not a JSON envelope"]
    if not isinstance(envelope, dict) or set(envelope) != ENVELOPE_KEYS:
        return ["envelope keys differ from " + ", ".join(sorted(ENVELOPE_KEYS))]
    want = ref.envelope
    problems = []
    if envelope["schema_version"] != SCHEMA_VERSION:
        problems.append(f"schema_version {envelope['schema_version']!r}")
    for key in ("command", "inputs", "warnings"):
        if canonical(envelope[key]) != canonical(want[key]):
            problems.append(f"envelope {key} differs from the expected one")
    results = envelope["results"]
    if not isinstance(results, dict) or set(results) != set(want["results"]):
        return problems + ["result keys differ from the library's"]
    if canonical(results) != canonical(want["results"]):
        return problems + ["results are not bit-equal to the library result"]
    return problems + _oracle_problems(op.kind, results, ref)

