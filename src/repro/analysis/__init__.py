"""Statistics helpers (CDFs, KS test, Wasserstein distance), ASCII
plotting, structured result export and bootstrap A/B comparison."""

from .comparison import (
    TailComparison,
    bootstrap_percentile_ci,
    compare_tails,
)
from .plotting import bar_chart, histogram_chart, line_chart
from .report import (
    result_to_record,
    sweep_to_records,
    write_records_csv,
    write_records_json,
)
from .stats import (
    ViolinSummary,
    empirical_cdf,
    ks_two_sample,
    percentile_summary,
    violin_summary,
    wasserstein_distance,
)

__all__ = [
    "TailComparison",
    "ViolinSummary",
    "bar_chart",
    "bootstrap_percentile_ci",
    "compare_tails",
    "empirical_cdf",
    "histogram_chart",
    "ks_two_sample",
    "line_chart",
    "percentile_summary",
    "result_to_record",
    "sweep_to_records",
    "violin_summary",
    "wasserstein_distance",
    "write_records_csv",
    "write_records_json",
]
