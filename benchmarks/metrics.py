"""Metrics from a ``Measurement``: end-to-end and per-layer.

Which end-to-end metric each layer metric should move, and where:

* ``cli.*`` start-up times move ``setup_s`` and every ``*_s`` on
  monthly_cli, and nothing on daily_cli or calibration_lib.
* ``ingest.parse_s`` / ``parse_mb_per_s`` move every ``*_s`` on
  daily_cli; ``ingest.serialize_s`` moves ``gen_s`` there.
* ``core.summarize_s`` moves ``stats_s``; ``acf.fft_s`` moves ``acf_s``
  (daily_cli, calibration_lib).
* ``hurst.*`` move ``hurst_s`` and ``suite_s`` on daily_cli and
  calibration_lib; on monthly_cli they are a few ms of ~250 ms.
* ``chaos.*`` move ``lyap_s`` on daily_cli and calibration_lib.
* ``permtest.*`` move ``permtest_s`` on all three workloads;
  ``draw_s`` splits permutation draws from dot products.
* ``synth.*`` move ``setup_s``, ``peak_rss_mb`` and ``gen_s`` on
  calibration_lib, and ``gen_s`` on monthly_cli.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from tracing import self_times
from workloads import OP_KINDS

# metric -> span whose median duration it reports
SPAN_TIMES = {
    "ingest.parse_s": "ingest.parse",
    "ingest.serialize_s": "ingest.serialize_column",
    "core.summarize_s": "core.summarize",
    "acf.fft_s": "acf.acf_fft",
    "hurst.rs_table_s": "hurst.rs_table",
    "hurst.fit_h_s": "hurst.fit_h",
    "hurst.suite_s": "hurst.hurst_suite",
    "chaos.lyap_k_s": "chaos.lyap_k",
    "chaos.lyap_fit_s": "chaos.lyap_fit",
    "permtest.perm_test_s": "permtest.perm_test",
}
# metric -> (span, count key, unit): the count summed over one pass
PASS_COUNTS = {
    "hurst.windows": ("hurst.rs_table", "windows", "count"),
    "hurst.blocks": ("hurst.rs_table", "blocks", "count"),
    "chaos.refs_used": ("chaos.lyap_k", "refs_used", "count"),
    "chaos.pair_checks": ("chaos.lyap_k", "pair_checks", "count_computed"),
    "permtest.permutations": ("permtest.perm_test", "permutations", "count"),
}
@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1
    high: tuple[int, float] | None = None  # (percentile, value)
    raw: float | None = None  # median before speed normalisation


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile that still has ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def _timing(values: list[float], raw: list[float] | None = None) -> Metric:
    if not values:
        return Metric(0.0, "s", 0)
    return Metric(statistics.median(values), "s", len(values), high_percentile(values),
                  statistics.median(raw) if raw else None)


def end_to_end(m) -> dict[str, Metric]:
    """Speed-normalised timings (see ``speed.py``) and peak memory."""
    t = m.timings
    metrics = {
        "setup_s": _timing(t["latencies"]["setup"], t["raw_latencies"]["setup"]),
        "wall_s": _timing(t["pass_walls"], t["raw_pass_walls"]),
    }
    for kind in OP_KINDS:
        metrics[f"{kind}_s"] = _timing(t["latencies"].get(kind, []), t["raw_latencies"].get(kind))
    metrics["peak_rss_mb"] = Metric(max(m.rss_mb), "MB", len(m.rss_mb))
    return metrics


def per_layer(m, startup: list[dict[str, float]]) -> dict[str, Metric]:
    spans = m.spans
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    def durations(name):
        return [spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, [])]

    metrics = {
        name: _timing([probe[name] for probe in startup])
        for name in ("cli.interpreter_s", "cli.import_numpy_s", "cli.import_longmem_s")
    }
    selfs = self_times(spans)
    metrics["cli.self_s"] = _timing([selfs[i] for i in by_name.get("cli.main", [])])
    out_bytes = m.layer_samples.get("cli.out_bytes", [0])
    metrics["cli.out_bytes"] = Metric(statistics.median(out_bytes), "bytes", len(out_bytes))
    for metric, name in SPAN_TIMES.items():
        metrics[metric] = _timing(durations(name))
    parse_time = sum(durations("ingest.parse"))
    parse_mb = sum(spans[i]["counts"].get("bytes", 0) for i in by_name.get("ingest.parse", [])) / 1e6
    metrics["ingest.parse_mb_per_s"] = Metric(
        parse_mb / parse_time if parse_time > 0 else 0.0, "MB/s", len(by_name.get("ingest.parse", []))
    )
    passes = max(m.traced_passes, 1)
    for metric, (name, key, unit) in PASS_COUNTS.items():
        total = sum(spans[i]["counts"].get(key, 0) for i in by_name.get(name, []))
        metrics[metric] = Metric(total / passes, unit, passes)
    metrics["permtest.draw_s"] = _timing(m.layer_samples.get("permtest.draw_s", []))
    for metric in ("synth.generate_s", "synth.generate_cold_s"):
        metrics[metric] = _timing(m.layer_samples.get(metric) or durations("synth.generate"))
    factor = [spans[i]["counts"].get("factor_mb", 0.0) for i in by_name.get("synth.generate", [])]
    metrics["synth.factor_mb"] = Metric(max(factor, default=0.0), "MB_computed")
    metrics["trace.overhead_s"] = _timing(m.overhead)
    return metrics


def describe(name: str, metric: Metric) -> str:
    line = f"{name:<24} {metric.value:>14.6g} {metric.unit:<14} n={metric.samples}"
    if metric.high is not None:
        line += f"  p{metric.high[0]}={metric.high[1]:.6g}"
    if metric.raw is not None:
        line += f"  raw median {metric.raw:.6g}"
    return line
