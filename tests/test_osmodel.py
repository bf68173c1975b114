"""Tests for the OS wakeup-latency model (Fig. 10 calibration)."""

import numpy as np
import pytest

from repro.sim.osmodel import (
    COLLOCATED_BUCKETS,
    ISOLATED_BUCKETS,
    LatencyBucket,
    WakeupLatencyModel,
)


@pytest.fixture
def model():
    return WakeupLatencyModel(rng=np.random.default_rng(0))


class TestBuckets:
    def test_probabilities_normalized(self):
        for buckets in (ISOLATED_BUCKETS, COLLOCATED_BUCKETS):
            assert sum(b.probability for b in buckets) == pytest.approx(
                1.0, abs=1e-6)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            WakeupLatencyModel(isolated_buckets=(
                LatencyBucket(0.0, 0.0, 1.0),))


class TestSampling:
    def test_samples_within_bucket_ranges(self, model):
        for collocated in (False, True):
            buckets = COLLOCATED_BUCKETS if collocated else ISOLATED_BUCKETS
            lo = min(b.low_us for b in buckets)
            hi = max(b.high_us for b in buckets)
            samples = [model.sample(collocated) for _ in range(5000)]
            assert all(lo <= s <= hi for s in samples)

    def test_body_is_microseconds(self, model):
        samples = np.array([model.sample(False) for _ in range(20000)])
        assert np.median(samples) < 5.0

    def test_isolated_tail_capped_at_200us(self, model):
        samples = np.array([model.sample(False) for _ in range(50000)])
        assert samples.max() <= 200.0

    def test_collocation_has_heavier_tail(self):
        rng = np.random.default_rng(1)
        model = WakeupLatencyModel(rng=rng)
        isolated = np.array([model.sample(False) for _ in range(40000)])
        collocated = np.array([model.sample(True) for _ in range(40000)])
        assert np.percentile(collocated, 99.9) > np.percentile(isolated, 99.9)
        # The §2.3 kernel non-preemptible stall: only under collocation.
        assert collocated.max() > 400.0

    def test_kernel_stall_is_rare(self, model):
        samples = np.array([model.sample(True) for _ in range(100000)])
        assert (samples > 400.0).mean() < 0.002


class TestStreamLayout:
    def test_first_latency_follows_two_discarded_blocks(self):
        """The model skips 16384 uniforms, then 16384 normals, before its
        first draw; every golden digest depends on that layout."""
        model = WakeupLatencyModel(rng=np.random.default_rng(42))
        raw = np.random.default_rng(42)
        raw.random(16384)
        raw.standard_normal(16384)
        # One refill: 256 bucket picks, then 256 in-bucket offsets,
        # served back to front.
        probs = np.array([b.probability for b in ISOLATED_BUCKETS])
        cumulative = np.cumsum(probs / probs.sum())
        idx = np.minimum(
            np.searchsorted(cumulative, raw.random(256), side="right"),
            len(ISOLATED_BUCKETS) - 1)
        bucket = ISOLATED_BUCKETS[idx[-1]]
        offset = raw.random(256)[-1]
        expected = bucket.low_us + (bucket.high_us - bucket.low_us) * offset
        assert model.sample(False) == expected
        assert model.rng.random() == raw.random()


class TestExpectedBody:
    def test_excludes_kernel_stall(self, model):
        body = model.expected_body_us(True)
        assert 1.0 <= body <= 30.0

    def test_collocated_body_not_smaller(self, model):
        assert model.expected_body_us(True) >= \
            model.expected_body_us(False) * 0.8
