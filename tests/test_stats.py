"""Tests for the statistics helpers (KS test, Wasserstein distance)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import kolmogorov

from repro.analysis.stats import (
    empirical_cdf,
    ks_two_sample,
    percentile_summary,
    violin_summary,
    wasserstein_distance,
)


class TestEmpiricalCdf:
    def test_levels_monotone(self):
        values, levels = empirical_cdf(np.array([3.0, 1.0, 2.0]))
        assert list(values) == [1.0, 2.0, 3.0]
        assert list(levels) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf(np.array([]))


class TestKsTest:
    def test_identical_samples_high_p(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=2000)
        b = rng.normal(size=2000)
        stat, p = ks_two_sample(a, b)
        assert stat < 0.05
        assert p > 0.05

    def test_shifted_distributions_detected(self):
        """§4.1: collocated runtimes yield p << 0.001."""
        rng = np.random.default_rng(1)
        isolated = rng.gamma(4.0, 10.0, 3000)
        interfered = rng.gamma(4.0, 10.0, 3000) * 1.15
        stat, p = ks_two_sample(isolated, interfered)
        assert p < 0.001

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 500)
        b = rng.normal(0.3, 1, 400)
        stat, p = ks_two_sample(a, b)
        ref = scipy_stats.ks_2samp(a, b)
        assert stat == pytest.approx(ref.statistic, abs=1e-9)
        assert p == pytest.approx(ref.pvalue, rel=0.1)

    def test_same_sample_gives_p_one(self):
        a = np.random.default_rng(3).normal(size=500)
        assert ks_two_sample(a, a) == (0.0, 1.0)

    @pytest.mark.parametrize("n", [500, 2000, 8000])
    def test_small_lambda_matches_kolmogorov(self, n):
        """Samples half a step apart: D = 1/n, lambda from 0.005 to 0.035."""
        a = np.arange(n, dtype=np.float64)
        stat, p = ks_two_sample(a, a + 0.5)
        assert stat == pytest.approx(1.0 / n)
        effective = np.sqrt(n / 2.0)
        lam = (effective + 0.12 + 0.11 / effective) * stat
        assert 0.005 < lam < 0.035
        assert p == pytest.approx(kolmogorov(lam), abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.array([]), np.array([1.0]))


class TestWasserstein:
    def test_identical_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert wasserstein_distance(a, a) == 0.0

    def test_shift_equals_offset(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, 4000)
        assert wasserstein_distance(a, a + 2.5) == pytest.approx(2.5,
                                                                 rel=0.02)

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        a = rng.gamma(2, 3, 1000)
        b = rng.gamma(3, 2, 800)
        ours = wasserstein_distance(a, b)
        ref = scipy_stats.wasserstein_distance(a, b)
        assert ours == pytest.approx(ref, rel=1e-6)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=300), rng.normal(1, 2, 400)
        assert wasserstein_distance(a, b) == pytest.approx(
            wasserstein_distance(b, a))


class TestSummaries:
    def test_percentile_summary_keys(self):
        summary = percentile_summary(range(1000))
        assert set(summary) == {"p50", "p95", "p99", "p99.99", "p99.999"}
        assert summary["p50"] <= summary["p99.999"]

    def test_violin_summary(self):
        summary = violin_summary(np.arange(100.0))
        assert summary.count == 100
        assert summary.q05 < summary.q50 < summary.q95 <= summary.maximum

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            violin_summary([])
        with pytest.raises(ValueError):
            percentile_summary([])
