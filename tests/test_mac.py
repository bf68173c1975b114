"""Tests for the MAC-layer scheduling substrate."""

import numpy as np
import pytest

from repro.ran.config import cell_20mhz_fdd
from repro.ran.mac import (
    MacCell,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    UeSession,
)
from repro.ran.config import pool_20mhz_7cells
from repro.scenario import Scenario, build_simulation


class TestUeSession:
    def test_validation(self):
        with pytest.raises(ValueError):
            UeSession(ue_id=0, mean_rate_bps=-1.0, mean_snr_db=10.0)

    def test_arrivals_fill_buffer(self):
        session = UeSession(ue_id=0, mean_rate_bps=10e6, mean_snr_db=15.0)
        rng = np.random.default_rng(0)
        for __ in range(200):
            session.arrive(1000.0, rng)
        # ~10 Mbps for 200 ms => ~250 KB expected.
        assert 50_000 < session.buffer_bytes < 1_000_000

    def test_zero_rate_never_arrives(self):
        session = UeSession(ue_id=0, mean_rate_bps=0.0, mean_snr_db=15.0)
        session.arrive(1000.0, np.random.default_rng(0))
        assert session.buffer_bytes == 0

    def test_fading_reverts_to_mean(self):
        session = UeSession(ue_id=0, mean_rate_bps=1e6, mean_snr_db=15.0)
        session.snr_db = 40.0
        rng = np.random.default_rng(1)
        for __ in range(500):
            session.fade(rng)
        assert abs(session.snr_db - 15.0) < 8.0

    def test_instantaneous_rate_grows_with_snr(self):
        cell = cell_20mhz_fdd()
        low = UeSession(ue_id=0, mean_rate_bps=1e6, mean_snr_db=0.0)
        high = UeSession(ue_id=1, mean_rate_bps=1e6, mean_snr_db=25.0)
        assert high.instantaneous_rate_bps(cell) > \
            low.instantaneous_rate_bps(cell)

    def test_throughput_average_tracks_service(self):
        session = UeSession(ue_id=0, mean_rate_bps=1e6, mean_snr_db=15.0)
        for __ in range(300):
            session.record_service(10_000 * 8, 1000.0)
        assert session.avg_throughput_bps == pytest.approx(80e6, rel=0.1)


class TestSchedulers:
    def _sessions(self, n=6):
        rng = np.random.default_rng(2)
        sessions = []
        for i in range(n):
            session = UeSession(ue_id=i, mean_rate_bps=1e6,
                                mean_snr_db=float(rng.uniform(0, 25)))
            session.buffer_bytes = 10_000
            sessions.append(session)
        return sessions

    def test_pf_prefers_starved_users(self):
        cell = cell_20mhz_fdd()
        sessions = self._sessions(4)
        lucky, starved = sessions[0], sessions[1]
        lucky.avg_throughput_bps = 1e9
        starved.avg_throughput_bps = 1.0
        starved.snr_db = lucky.snr_db  # equal channels
        chosen = ProportionalFairScheduler().select(sessions, cell, 1)
        assert chosen[0] is not lucky

    def test_pf_skips_empty_buffers(self):
        cell = cell_20mhz_fdd()
        sessions = self._sessions(4)
        for session in sessions:
            session.buffer_bytes = 0
        assert ProportionalFairScheduler().select(sessions, cell, 4) == []

    def test_round_robin_cycles(self):
        cell = cell_20mhz_fdd()
        sessions = self._sessions(4)
        scheduler = RoundRobinScheduler()
        first = scheduler.select(sessions, cell, 1)[0]
        second = scheduler.select(sessions, cell, 1)[0]
        assert first is not second


class TestMacCell:
    def test_backlog_conservation(self):
        cell = cell_20mhz_fdd()
        mac = MacCell(cell, num_ues=8, total_rate_bps=50e6,
                      rng=np.random.default_rng(3))
        served = 0
        for __ in range(500):
            allocations = mac.step()
            served += sum(a.tbs_bytes for a in allocations)
        # Served bytes roughly track the offered 50 Mbps over 0.5 s.
        offered = 50e6 / 8 * 0.5
        assert 0.5 * offered < served + mac.total_backlog_bytes < \
            2.0 * offered

    def test_allocations_respect_max_ues(self):
        cell = cell_20mhz_fdd()
        mac = MacCell(cell, num_ues=16, total_rate_bps=200e6,
                      rng=np.random.default_rng(4))
        for __ in range(50):
            allocations = mac.step()
            assert len(allocations) <= cell.max_ues_per_slot

    def test_pf_fairer_than_ratio_of_channels(self):
        """PF gives weak-channel users a non-trivial share."""
        cell = cell_20mhz_fdd()
        mac = MacCell(cell, num_ues=6, total_rate_bps=150e6,
                      rng=np.random.default_rng(5))
        # Polarize channels.
        for i, session in enumerate(mac.sessions):
            session.mean_snr_db = 2.0 if i < 3 else 22.0
            session.snr_db = session.mean_snr_db
            session.mean_rate_bps = 25e6
        served = {s.ue_id: 0 for s in mac.sessions}
        for __ in range(1000):
            for alloc in mac.step():
                served[alloc.ue_id] += alloc.tbs_bytes
        weak = sum(served[i] for i in range(3))
        strong = sum(served[i] for i in range(3, 6))
        assert weak > 0.15 * strong

    def test_invalid_num_ues(self):
        with pytest.raises(ValueError):
            MacCell(cell_20mhz_fdd(), num_ues=0, total_rate_bps=1e6)


class TestRunnerIntegration:
    def test_mac_mode_end_to_end(self):
        config = pool_20mhz_7cells(num_cores=8)
        sim = build_simulation(Scenario(
            pool=config, policy="flexran", load_fraction=0.3, seed=1,
            allocation="mac"))
        result = sim.run(300)
        assert result.latency.count > 0
        assert result.latency.miss_fraction < 0.05

    def test_invalid_mode_rejected(self):
        config = pool_20mhz_7cells()
        with pytest.raises(ValueError):
            build_simulation(Scenario(
                pool=config, policy="flexran", allocation="magic"))
