"""Long-memory and chaos diagnostics for monthly time series.

A small toolkit for asking two questions of a univariate series: does it
remember its past (long-range dependence, measured through
autocorrelation and rescaled-range Hurst estimation), and does it behave
chaotically (largest Lyapunov exponent from a divergence curve)? A
seeded permutation test and exact synthetic generators round out the
kit, and every analysis is exposed through the ``longmem`` command-line
tool.

Names load on first use: ``import longmem`` imports none of the
submodules, and ``longmem.hurst_suite`` imports ``longmem.hurst`` the
first time it is looked up. A command-line run so pays only for the
modules its command calls.
"""

import importlib

__version__ = "0.1.0"

# The public names each submodule defines.
_EXPORTS = {
    "acf": ("AcfResult", "acf_direct", "acf_fft", "band_mean", "first_zero_crossing"),
    "chaos": ("DivergenceCurve", "EmbeddingParams", "LyapunovFit", "embed", "lyap_fit", "lyap_k"),
    "core": ("SummaryStats", "TimeSeries", "standardize", "summarize"),
    "errors": (
        "EpsTooSmallError",
        "LongmemError",
        "NumericError",
        "ParseError",
        "ValidationError",
        "WarningRecord",
    ),
    "hurst": (
        "FractalSummary",
        "HurstEstimate",
        "HurstSuite",
        "RsPoint",
        "RsTable",
        "expected_rescaled_range",
        "fit_h",
        "fractal_correlation",
        "fractal_dimension",
        "hurst_suite",
        "rs_statistic",
        "rs_table",
    ),
    "ingest": ("IngestOptions", "ParseResult", "parse", "select_range", "serialize_column"),
    "permtest": ("PermutationResult", "nth_permutation", "pearson", "perm_test"),
    "synth": ("GenSpec", "fgn_autocovariance", "generate"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_SOURCE), "__version__"]


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
