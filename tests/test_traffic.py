"""Tests for the bursty traffic generator (Fig. 3 calibration)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ran.config import cell_100mhz_tdd, cell_20mhz_fdd
from repro.ran.traffic import (
    CellTraffic,
    MarkovBurstTraffic,
    lte_cell_traffic,
)


class TestMarkovBurstTraffic:
    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovBurstTraffic(100, 1000, active_fraction=0.0)
        with pytest.raises(ValueError):
            MarkovBurstTraffic(100, 1000, active_fraction=0.5,
                               mean_burst_slots=0.5)
        with pytest.raises(ValueError):
            MarkovBurstTraffic(-1, 1000, active_fraction=0.5)

    def test_trace_nonnegative_and_capped(self):
        gen = MarkovBurstTraffic(500, 2000, 0.3,
                                 rng=np.random.default_rng(0))
        trace = gen.trace(5000)
        assert (trace >= 0).all()
        assert trace.max() <= 2000

    def test_idle_fraction_matches_target(self):
        gen = MarkovBurstTraffic(500, 1e9, 0.3, rng=np.random.default_rng(1))
        trace = gen.trace(40_000)
        idle = (trace == 0).mean()
        assert idle == pytest.approx(0.7, abs=0.05)

    def test_mean_volume_matches_target(self):
        gen = MarkovBurstTraffic(500, 1e9, 0.3, rng=np.random.default_rng(2))
        trace = gen.trace(60_000)
        assert trace.mean() == pytest.approx(500, rel=0.1)

    def test_bursts_are_correlated(self):
        """Busy slots cluster: P(active | active) >> P(active)."""
        gen = MarkovBurstTraffic(500, 1e9, 0.25, mean_burst_slots=10,
                                 rng=np.random.default_rng(3))
        trace = gen.trace(40_000) > 0
        p_active = trace.mean()
        joint = (trace[1:] & trace[:-1]).mean()
        p_cond = joint / p_active
        assert p_cond > 2 * p_active

    def test_always_active_mode(self):
        gen = MarkovBurstTraffic(500, 1e9, 1.0, rng=np.random.default_rng(4))
        assert (gen.trace(2000) > 0).all()

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           load=st.one_of(st.sampled_from([0.02, 1.0]),
                          st.floats(min_value=0.0, max_value=1.0)),
           n=st.integers(min_value=1, max_value=64),
           uplink=st.booleans(),
           active=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_next_slots_equals_repeated_next_slot(self, seed, load, n,
                                                  uplink, active):
        # The window fill draws model traffic with next_slots(n); it
        # must replay n scalar next_slot() draws value for value and
        # leave the generator in the same state.
        def source():
            traffic = CellTraffic.for_cell(cell_20mhz_fdd(), load,
                                           seed=seed)
            gen = traffic.uplink if uplink else traffic.downlink
            gen._active = active
            return gen

        batched, scalar = source(), source()
        values = batched.next_slots(n).tolist()
        assert values == [scalar.next_slot() for _ in range(n)]
        assert batched._active == scalar._active
        assert (batched.rng.bit_generator.state
                == scalar.rng.bit_generator.state)


class TestLteCalibration:
    """The paper's Fig. 3 facts about the Cambridge LTE traces."""

    def test_single_cell_idle_75_percent(self):
        trace = lte_cell_traffic(seed=0).trace(60_000)
        assert (trace == 0).mean() == pytest.approx(0.75, abs=0.04)

    def test_three_cell_aggregate_idle_near_20_percent(self):
        traces = [lte_cell_traffic(seed=s).trace(60_000) for s in (0, 1, 2)]
        aggregate = np.sum(traces, axis=0)
        idle = (aggregate == 0).mean()
        assert 0.35 <= idle <= 0.50  # 0.75^3 ≈ 0.42 for independent cells

    def test_aggregate_median_near_200_bytes(self):
        """§2.2: the 3-cell aggregate's median transfer per TTI is
        ~0.2 KB (median over all slots, idle slots included)."""
        traces = [lte_cell_traffic(seed=s).trace(60_000) for s in (3, 4, 5)]
        aggregate = np.sum(traces, axis=0)
        median = np.median(aggregate)
        assert 50 <= median <= 500

    def test_heavy_tail_p95_vs_median(self):
        """p95 is ~10x the median per §2.2."""
        traces = [lte_cell_traffic(seed=s).trace(60_000) for s in (6, 7, 8)]
        aggregate = np.sum(traces, axis=0)
        busy = aggregate[aggregate > 0]
        ratio = np.percentile(busy, 95) / np.median(busy)
        assert ratio > 4.0


class TestCellTraffic:
    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            CellTraffic.for_cell(cell_20mhz_fdd(), 1.5)

    def test_load_scales_mean(self):
        cell = cell_20mhz_fdd()
        low = CellTraffic.for_cell(cell, 0.1, seed=0).uplink.trace(30_000)
        high = CellTraffic.for_cell(cell, 0.9, seed=0).uplink.trace(30_000)
        assert high.mean() > 3 * low.mean()

    def test_full_load_tracks_table1_average(self):
        cell = cell_20mhz_fdd()
        trace = CellTraffic.for_cell(cell, 1.0, seed=1).uplink.trace(50_000)
        target = cell.avg_ul_mbps * 1e6 / 8 * cell.slot_duration_us / 1e6
        # The per-slot peak cap truncates the lognormal, so the achieved
        # mean sits somewhat below the nominal target.
        assert 0.5 * target <= trace.mean() <= 1.05 * target

    def test_bursts_capped_at_table2_peak(self):
        cell = cell_20mhz_fdd()
        traffic = CellTraffic.for_cell(cell, 1.0, seed=2)
        assert traffic.uplink.trace(20_000).max() <= \
            cell.peak_bytes_per_slot(uplink=True)

    def test_tdd_direction_scaling(self):
        """TDD concentrates direction traffic into fewer slots."""
        cell = cell_100mhz_tdd()
        traffic = CellTraffic.for_cell(cell, 1.0, seed=3)
        ul_mean = traffic.uplink.trace(30_000).mean()
        naive = cell.avg_ul_mbps * 1e6 / 8 * cell.slot_duration_us / 1e6
        assert ul_mean > naive  # concentrated into the UL share of slots

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_generator_invariants(self, load, seed):
        traffic = CellTraffic.for_cell(cell_20mhz_fdd(), load, seed=seed)
        trace = traffic.downlink.trace(500)
        assert (trace >= 0).all()
        assert trace.max() <= cell_20mhz_fdd().peak_bytes_per_slot(False)
