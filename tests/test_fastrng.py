"""Tests for the raw variate streams behind the runtime and wakeup models.

These streams replaced the buffered ``FastRng`` helper.  Every task's
runtime draws come from its DAG's counter-keyed stream
(:meth:`~repro.ran.dag.DagBuilder.draw_window`), and the wakeup model
draws straight from its own generator.  The tests pin the distributions
those draws carry into the models and that each stream depends on its
seed alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ran.config import cell_20mhz_fdd
from repro.ran.dag import DagBuilder, plan_task_rows
from repro.ran.tasks import CostModel, TaskType
from repro.ran.ue import SlotLoad, UeAllocation, mcs_for_snr
from repro.sim.osmodel import (
    ISOLATED_BUCKETS,
    LatencyBucket,
    WakeupLatencyModel,
)

#: One busy uplink allocation: 38 codeblocks, so every slot's DAG has
#: decode rows and many non-decode rows.
_ALLOCATION = (UeAllocation(ue_id=0, tbs_bytes=40000, mcs=mcs_for_snr(22.0),
                            layers=4, snr_db=22.0),)


def _window(cost_model: CostModel, slots: int, entropy: int = 5) -> tuple:
    """``(probes, mults, cache_u, cache_tail, decode)`` over ``slots``
    uplink DAGs of one cell, drawn as one window."""
    builder = DagBuilder(
        cost_model,
        seed_seq=np.random.SeedSequence(entropy=entropy, spawn_key=(6,)))
    cell = cell_20mhz_fdd("w")
    loads = [SlotLoad("w", slot, True, _ALLOCATION) for slot in range(slots)]
    jobs = [(load, cell, 0.0, 2000.0, 0) for load in loads]
    job_rows = [plan_task_rows(load, cell) for load in loads]
    probes, mults, cache_u, cache_tail = (
        np.array(column) for column in builder.costed_rows(jobs, job_rows)[4:])
    decode = np.array([row[0] is TaskType.LDPC_DECODE
                       for rows in job_rows for row in rows])
    return probes, mults, cache_u, cache_tail, decode


class TestDistributions:
    def test_random_in_unit_interval(self):
        # The rand_probe feature and the cache-tail trigger are the
        # stream's raw uniforms.
        probes, _mults, cache_u, _tail, _decode = _window(CostModel(), 3000)
        for column in (probes, cache_u):
            assert len(column) > 50_000
            assert ((column >= 0.0) & (column < 1.0)).all()
            assert column.mean() == pytest.approx(0.5, abs=0.01)

    def test_uniform_range(self):
        # The cache-interference tail magnitude is uniform on [1.5, 2.5).
        *_, cache_tail, _decode = _window(CostModel(), 3000)
        assert cache_tail.min() >= 1.5
        assert cache_tail.max() < 2.5
        assert cache_tail.mean() == pytest.approx(2.0, abs=0.02)

    def test_standard_normal_moments(self):
        # Off the decode rows, and with the rare isolated tail switched
        # off, log(stoch_mult) / sigma is the stream's standard normal.
        model = CostModel(isolated_tail_prob=0.0)
        _probes, mults, _u, _tail, decode = _window(model, 3000)
        normals = np.log(mults[~decode]) / model.noise_sigma
        assert len(normals) > 20_000
        assert normals.mean() == pytest.approx(0.0, abs=0.03)
        assert normals.std() == pytest.approx(1.0, abs=0.03)

    def test_normal_location_scale(self):
        # The lognormal noise's log has location 0 and scale noise_sigma.
        model = CostModel(noise_sigma=0.2, isolated_tail_prob=0.0)
        _probes, mults, _u, _tail, decode = _window(model, 3000, entropy=6)
        logs = np.log(mults[~decode])
        assert logs.mean() == pytest.approx(0.0, abs=0.006)
        assert logs.std() == pytest.approx(0.2, abs=0.006)


class TestBuffering:
    def test_block_refill_transparent(self):
        """Wakeup latencies keep flowing across the model's 256-wide
        refills: each refill continues the raw generator's stream."""
        model = WakeupLatencyModel(rng=np.random.default_rng(4))
        raw = np.random.default_rng(4)
        raw.random(16384)
        raw.standard_normal(16384)
        probs = np.array([b.probability for b in ISOLATED_BUCKETS])
        cumulative = np.cumsum(probs / probs.sum())
        lows = np.array([b.low_us for b in ISOLATED_BUCKETS])
        spans = np.array([b.high_us - b.low_us for b in ISOLATED_BUCKETS])
        expected = []
        for _refill in range(3):
            idx = np.minimum(
                np.searchsorted(cumulative, raw.random(256), side="right"),
                len(ISOLATED_BUCKETS) - 1)
            block = lows[idx] + spans[idx] * raw.random(256)
            expected.extend(block[::-1].tolist())
        assert [model.sample(False) for _ in range(3 * 256)] == expected

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_per_seed(self, seed):
        buckets = (LatencyBucket(0.9, 1.0, 2.0), LatencyBucket(0.1, 2.0, 9.0))
        a = WakeupLatencyModel(rng=np.random.default_rng(seed),
                               isolated_buckets=buckets)
        b = WakeupLatencyModel(rng=np.random.default_rng(seed),
                               isolated_buckets=buckets)
        assert [a.sample(False) for _ in range(10)] == \
            [b.sample(False) for _ in range(10)]
        assert [a.sample(True) for _ in range(10)] == \
            [b.sample(True) for _ in range(10)]
