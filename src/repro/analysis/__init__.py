"""Statistics helpers (CDFs, KS test, Wasserstein distance, violin
summaries) used by the experiment drivers."""

from .stats import (
    ViolinSummary,
    empirical_cdf,
    ks_two_sample,
    percentile_summary,
    violin_summary,
    wasserstein_distance,
)

__all__ = [
    "ViolinSummary",
    "empirical_cdf",
    "ks_two_sample",
    "percentile_summary",
    "violin_summary",
    "wasserstein_distance",
]
