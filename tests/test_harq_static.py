"""Tests for HARQ retransmissions and the static-partition baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.static import StaticPartitionScheduler
from repro.ran.config import PoolConfig, cell_20mhz_fdd, pool_20mhz_7cells
from repro.ran.harq import HarqConfig, HarqManager, block_error_probability
from repro.ran.ue import MCS_TABLE, UeAllocation
from repro.scenario import Scenario, build_simulation


def _alloc(snr_margin_db=0.5, tbs=8000, mcs_index=10, ue_id=0):
    mcs = MCS_TABLE[mcs_index]
    return UeAllocation(ue_id=ue_id, tbs_bytes=tbs, mcs=mcs, layers=1,
                        snr_db=mcs.min_snr_db + snr_margin_db)


class TestBler:
    def test_typical_margin_near_ten_percent(self):
        bler = block_error_probability(0.5, codeblocks=4)
        assert 0.05 <= bler <= 0.15

    def test_decreases_with_margin(self):
        values = [block_error_probability(m, 8) for m in (0, 1, 2, 4, 8)]
        assert all(b > a for a, b in zip(values[1:], values))

    def test_grows_with_codeblocks(self):
        assert block_error_probability(1.0, 16) > \
            block_error_probability(1.0, 1)

    def test_bounded(self):
        assert block_error_probability(-10.0, 100) <= 0.8
        assert block_error_probability(50.0, 1) >= 0.0

    @given(st.floats(min_value=-10, max_value=30, allow_nan=False),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=100)
    def test_always_a_probability(self, margin, cbs):
        assert 0.0 <= block_error_probability(margin, cbs) <= 0.8


class TestHarqManager:
    def test_failed_block_retransmitted_after_rtt(self):
        manager = HarqManager(HarqConfig(rtt_slots=4),
                              rng=np.random.default_rng(0))
        # Force failure with a hopeless margin.
        bad = _alloc(snr_margin_db=-8.0)
        out = manager.process_slot(0, (bad,))
        assert out == (bad,)
        assert manager.pending_count == 1
        # Not due yet.
        assert manager.process_slot(2, ()) == ()
        # Due at slot 4: comes back.
        again = manager.process_slot(4, ())
        assert len(again) == 1
        assert again[0].tbs_bytes == bad.tbs_bytes
        assert manager.retransmissions == 1

    def test_gives_up_after_max_attempts(self):
        class AlwaysFail:
            def random(self):
                return 0.0  # every draw lands below any positive BLER

        manager = HarqManager(HarqConfig(rtt_slots=1, max_attempts=2,
                                         combining_gain_db=0.0),
                              rng=AlwaysFail())
        bad = _alloc(snr_margin_db=-20.0)
        manager.process_slot(0, (bad,))
        manager.process_slot(1, ())
        manager.process_slot(2, ())
        assert manager.residual_losses == 1
        assert manager.pending_count == 0

    def test_good_channel_rarely_fails(self):
        manager = HarqManager(rng=np.random.default_rng(2))
        for slot in range(300):
            manager.process_slot(slot, (_alloc(snr_margin_db=8.0,
                                               ue_id=slot),))
        assert manager.block_error_rate < 0.01

    def test_combining_gain_reduces_second_failures(self):
        manager = HarqManager(HarqConfig(rtt_slots=1,
                                         combining_gain_db=6.0),
                              rng=np.random.default_rng(3))
        for slot in range(600):
            manager.process_slot(slot, (_alloc(snr_margin_db=0.0,
                                               ue_id=slot),))
        # Nearly everything recovers within the HARQ budget.
        assert manager.residual_loss_rate < 0.01

    def test_runner_integration_adds_load(self):
        config = pool_20mhz_7cells(num_cores=8)
        fields = dict(pool=config, policy="flexran", load_fraction=0.5,
                      seed=9)
        base = build_simulation(Scenario(**fields))
        with_harq = build_simulation(Scenario(harq=True, **fields))
        r0 = base.run(400)
        r1 = with_harq.run(400)
        assert r0.harq is None
        assert r1.harq is not None
        assert 0.02 <= r1.harq["block_error_rate"] <= 0.2
        assert r1.harq["retransmissions"] > 0
        # Retransmissions add processing work.
        assert r1.vran_utilization >= r0.vran_utilization


def _static(config, reserved_cores, **fields):
    return Scenario(pool=config, policy="static",
                    policy_params={"reserved_cores": reserved_cores},
                    **fields)


class TestStaticPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            StaticPartitionScheduler(0)

    def test_partition_exceeding_pool_rejected(self):
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=2,
                            deadline_us=2000.0)
        with pytest.raises(ValueError):
            build_simulation(_static(config, 5))

    def test_partition_never_moves(self):
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                            deadline_us=2000.0)
        sim = build_simulation(_static(config, 2, workload="redis",
                                       load_fraction=0.4, seed=5))
        result = sim.run(300)
        # Exactly half the pool was reserved the whole time.
        assert result.reclaimed_fraction == pytest.approx(0.5, abs=0.02)

    def test_small_partition_misses_large_survives(self):
        config = pool_20mhz_7cells(num_cores=8)

        def run(k):
            sim = build_simulation(_static(config, k, load_fraction=0.8,
                                           seed=6))
            return sim.run(400).latency

        small = run(2)
        large = run(8)
        assert small.miss_fraction > large.miss_fraction
        assert large.miss_fraction < 0.01
