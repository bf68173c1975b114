"""Statistics helpers used across experiments.

Implements the tools the paper uses to argue about runtime
distributions: empirical CDFs, the two-sample Kolmogorov-Smirnov test
(§4.1's evidence that collocated runtimes come from a different
distribution) and the 1-D Wasserstein distance (§4.2's measure for
finding the most distorted leaf nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "empirical_cdf",
    "ks_two_sample",
    "wasserstein_distance",
    "percentile_summary",
    "ViolinSummary",
    "violin_summary",
]


def empirical_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (sorted values, CDF levels) for plotting/printing."""
    values = np.sort(np.asarray(samples, dtype=np.float64))
    if len(values) == 0:
        raise ValueError("empty sample")
    levels = np.arange(1, len(values) + 1) / len(values)
    return values, levels


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    The p-value is the Kolmogorov survival function at Stephens'
    small-sample corrected statistic.  ``scipy.special.kolmogorov``
    stays exact for small ``lam`` (p = 1 at 0), where a truncated
    alternating series cancels towards 0.  scipy is imported here so
    that importing this module stays free of it.
    """
    from scipy.special import kolmogorov

    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / n
    cdf_b = np.searchsorted(b, grid, side="right") / m
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    effective = math.sqrt(n * m / (n + m))
    lam = (effective + 0.12 + 0.11 / effective) * statistic
    return statistic, float(kolmogorov(lam))


def wasserstein_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1-D earth-mover distance between two empirical distributions."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    # Integrate |F_a - F_b| over the merged support.
    grid = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    deltas = np.diff(grid)
    return float(np.sum(np.abs(cdf_a[:-1] - cdf_b[:-1]) * deltas))


def percentile_summary(samples, percentiles=(50, 95, 99, 99.99, 99.999)) -> dict:
    """Named percentiles of a sample."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if len(arr) == 0:
        raise ValueError("empty sample")
    return {f"p{p}": float(np.percentile(arr, p)) for p in percentiles}


@dataclass(frozen=True)
class ViolinSummary:
    """Compact description of one violin (Fig. 6a / Fig. 7a style)."""

    count: int
    mean: float
    std: float
    q05: float
    q50: float
    q95: float
    maximum: float


def violin_summary(samples) -> ViolinSummary:
    arr = np.asarray(list(samples), dtype=np.float64)
    if len(arr) == 0:
        raise ValueError("empty sample")
    return ViolinSummary(
        count=len(arr),
        mean=float(arr.mean()),
        std=float(arr.std()),
        q05=float(np.percentile(arr, 5)),
        q50=float(np.percentile(arr, 50)),
        q95=float(np.percentile(arr, 95)),
        maximum=float(arr.max()),
    )
