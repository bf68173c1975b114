"""Tests for the bootstrap A/B comparison helpers."""

import numpy as np
import pytest

from repro.analysis.comparison import bootstrap_percentile_ci, compare_tails


class TestBootstrapCi:
    def test_contains_true_percentile(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(100, 10, 5000)
        lo, hi = bootstrap_percentile_ci(samples, 95,
                                         rng=np.random.default_rng(1))
        true_p95 = 100 + 1.645 * 10
        assert lo <= true_p95 <= hi

    def test_ci_shrinks_with_sample_size(self):
        rng = np.random.default_rng(2)
        small = rng.normal(0, 1, 200)
        large = rng.normal(0, 1, 20_000)
        lo_s, hi_s = bootstrap_percentile_ci(small, 90,
                                             rng=np.random.default_rng(3))
        lo_l, hi_l = bootstrap_percentile_ci(large, 90,
                                             rng=np.random.default_rng(4))
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_percentile_ci([1.0], 50)
        with pytest.raises(ValueError):
            bootstrap_percentile_ci([1.0, 2.0], 50, confidence=1.5)


class TestCompareTails:
    def test_clear_separation_detected(self):
        rng = np.random.default_rng(5)
        fast = rng.gamma(2, 10, 3000)
        slow = rng.gamma(2, 10, 3000) + 100
        result = compare_tails(fast, slow, percentile=99,
                               rng=np.random.default_rng(6))
        assert result.a_credibly_lower
        assert not result.b_credibly_lower
        assert result.difference < 0

    def test_identical_distributions_inconclusive(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=3000)
        b = rng.normal(size=3000)
        result = compare_tails(a, b, percentile=90,
                               rng=np.random.default_rng(8))
        assert not result.a_credibly_lower
        assert not result.b_credibly_lower
        assert 0.1 < result.p_a_below_b < 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_tails([1.0], [1.0, 2.0])
