"""Long-memory and chaos diagnostics for monthly time series.

A small toolkit for asking two questions of a univariate series: does it
remember its past (long-range dependence, measured through
autocorrelation and rescaled-range Hurst estimation), and does it behave
chaotically (largest Lyapunov exponent from a divergence curve)? A
seeded permutation test and exact synthetic generators round out the
kit, and every analysis is exposed through the ``longmem`` command-line
tool.
"""

from .acf import AcfResult, acf_direct, acf_fft, band_mean, first_zero_crossing
from .chaos import (
    DivergenceCurve,
    EmbeddingParams,
    LyapunovFit,
    embed,
    lyap_fit,
    lyap_k,
)
from .core import SummaryStats, TimeSeries, standardize, summarize
from .errors import (
    EpsTooSmallError,
    LongmemError,
    NumericError,
    ParseError,
    ValidationError,
    WarningRecord,
)
from .hurst import (
    FractalSummary,
    HurstEstimate,
    HurstSuite,
    RsPoint,
    RsTable,
    expected_rescaled_range,
    fit_h,
    fractal_correlation,
    fractal_dimension,
    hurst_suite,
    rs_statistic,
    rs_table,
)
from .ingest import (
    IngestOptions,
    ParseResult,
    parse,
    select_range,
    serialize_column,
)
from .permtest import PermutationResult, nth_permutation, pearson, perm_test
from .synth import GenSpec, fgn_autocovariance, generate

__version__ = "0.1.0"

__all__ = [
    "AcfResult",
    "DivergenceCurve",
    "EmbeddingParams",
    "EpsTooSmallError",
    "FractalSummary",
    "GenSpec",
    "HurstEstimate",
    "HurstSuite",
    "IngestOptions",
    "LongmemError",
    "LyapunovFit",
    "NumericError",
    "ParseError",
    "ParseResult",
    "PermutationResult",
    "RsPoint",
    "RsTable",
    "SummaryStats",
    "TimeSeries",
    "ValidationError",
    "WarningRecord",
    "acf_direct",
    "acf_fft",
    "band_mean",
    "embed",
    "expected_rescaled_range",
    "fgn_autocovariance",
    "first_zero_crossing",
    "fit_h",
    "fractal_correlation",
    "fractal_dimension",
    "generate",
    "hurst_suite",
    "lyap_fit",
    "lyap_k",
    "nth_permutation",
    "parse",
    "pearson",
    "perm_test",
    "rs_statistic",
    "rs_table",
    "select_range",
    "serialize_column",
    "standardize",
    "summarize",
    "__version__",
]
