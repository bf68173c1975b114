"""Detailed runner behaviours: profiling traffic, TDD scaling, drain."""

import numpy as np
import pytest

from repro.ran.config import (
    PoolConfig,
    SlotType,
    cell_100mhz_tdd,
    cell_20mhz_fdd,
)
from repro.ran.tasks import TaskType
from repro.scenario import Scenario, build_simulation
from repro.sim.runner import SPECIAL_SLOT_DL_SCALE, SPECIAL_SLOT_UL_SCALE


class TestProfilingTraffic:
    def test_uniform_coverage_of_input_space(self):
        """Profiling mode sweeps volumes up to the per-slot peak."""
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                            deadline_us=4000.0)
        sim = build_simulation(Scenario(
            pool=config, policy="dedicated", load_fraction=1.0, seed=1,
            traffic="profiling"))
        volumes = []
        def observe(task):
            if task.task_type is TaskType.CRC_CHECK:
                volumes.append(task.feature("slot_bytes"))
        sim.pool.task_observers.append(observe)
        sim.run(600)
        volumes = np.asarray(volumes)
        peak = cell_20mhz_fdd().peak_bytes_per_slot(uplink=True)
        # Roughly uniform: wide spread, mean near half the peak.
        assert volumes.max() > 0.9 * peak
        assert 0.3 * peak < volumes.mean() < 0.7 * peak

    def test_profiling_includes_idle_slots(self):
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                            deadline_us=4000.0)
        sim = build_simulation(Scenario(
            pool=config, policy="dedicated", load_fraction=1.0, seed=2,
            traffic="profiling"))
        idle = [0]
        def observe(task):
            if task.task_type is TaskType.FFT and \
                    task.feature("slot_bytes") == 0:
                idle[0] += 1
        sim.pool.task_observers.append(observe)
        sim.run(600)
        assert idle[0] > 10  # ~10% idle draws


class TestTddScaling:
    def test_special_slots_scale_traffic(self):
        """SPECIAL slots carry scaled-down volumes of both directions."""
        assert 0 < SPECIAL_SLOT_UL_SCALE < 1
        assert 0 < SPECIAL_SLOT_DL_SCALE < 1
        config = PoolConfig(cells=(cell_100mhz_tdd(),), num_cores=4,
                            deadline_us=1500.0)
        sim = build_simulation(Scenario(
            pool=config, policy="dedicated", load_fraction=1.0, seed=3))
        per_slot_type = {}
        def observe(task):
            dag = task.dag
            slot_type = config.cells[0].slot_type(dag.slot_index)
            per_slot_type.setdefault(slot_type, set()).add(
                (dag.slot_index, dag.uplink))
        sim.pool.task_observers.append(observe)
        sim.run(50)
        # DDDSU: D slots carry only DL DAGs, U only UL, S both.
        assert all(not ul for __, ul in per_slot_type[SlotType.DOWNLINK])
        assert all(ul for __, ul in per_slot_type[SlotType.UPLINK])
        special_dirs = {ul for __, ul in per_slot_type[SlotType.SPECIAL]}
        assert special_dirs == {True, False}


class TestDrain:
    def test_inflight_dags_complete_after_last_slot(self):
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=2,
                            deadline_us=8000.0)
        sim = build_simulation(Scenario(
            pool=config, policy="flexran", load_fraction=0.9, seed=4))
        result = sim.run(100)
        # 100 slots x 2 DAGs each, all completed (none abandoned).
        assert result.latency.count == 200
        assert not sim.pool.active_dags

    def test_duration_covers_drain(self):
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                            deadline_us=2000.0)
        sim = build_simulation(Scenario(
            pool=config, policy="flexran", load_fraction=0.5, seed=5))
        result = sim.run(100)
        assert result.duration_us >= 100 * 1000.0
