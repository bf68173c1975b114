"""A/B comparison of simulation runs with bootstrap uncertainty.

Comparing two schedulers (or two parameterizations) on tail statistics
is noisy: the 99.99th percentile of a finite run has real sampling
error.  These helpers quantify it:

* :func:`bootstrap_percentile_ci` — confidence interval of a percentile
  by resampling;
* :func:`compare_tails` — is A's tail percentile credibly lower than
  B's? (bootstrap difference test).

Used when tuning model constants or validating that a code change did
not regress the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["bootstrap_percentile_ci", "compare_tails", "TailComparison"]


def bootstrap_percentile_ci(
    samples,
    percentile: float,
    confidence: float = 0.95,
    iterations: int = 400,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, float]:
    """Bootstrap CI for a percentile of an empirical sample."""
    samples = np.asarray(list(samples), dtype=np.float64)
    if samples.size < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = rng if rng is not None else np.random.default_rng(0)
    estimates = np.empty(iterations)
    n = samples.size
    for i in range(iterations):
        resample = samples[rng.integers(0, n, n)]
        estimates[i] = np.percentile(resample, percentile)
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(estimates, alpha)),
            float(np.quantile(estimates, 1.0 - alpha)))


@dataclass(frozen=True)
class TailComparison:
    """Outcome of a bootstrap tail-difference test."""

    percentile: float
    a_value: float
    b_value: float
    difference: float  # a - b
    p_a_below_b: float  # bootstrap probability that A's tail < B's

    @property
    def a_credibly_lower(self) -> bool:
        return self.p_a_below_b >= 0.95

    @property
    def b_credibly_lower(self) -> bool:
        return self.p_a_below_b <= 0.05


def compare_tails(
    samples_a,
    samples_b,
    percentile: float = 99.0,
    iterations: int = 400,
    rng: Optional[np.random.Generator] = None,
) -> TailComparison:
    """Bootstrap comparison of one percentile between two samples."""
    a = np.asarray(list(samples_a), dtype=np.float64)
    b = np.asarray(list(samples_b), dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least two values")
    rng = rng if rng is not None else np.random.default_rng(1)
    below = 0
    for __ in range(iterations):
        pa = np.percentile(a[rng.integers(0, a.size, a.size)], percentile)
        pb = np.percentile(b[rng.integers(0, b.size, b.size)], percentile)
        below += pa < pb
    return TailComparison(
        percentile=percentile,
        a_value=float(np.percentile(a, percentile)),
        b_value=float(np.percentile(b, percentile)),
        difference=float(np.percentile(a, percentile)
                         - np.percentile(b, percentile)),
        p_a_below_b=below / iterations,
    )
