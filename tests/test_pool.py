"""Unit tests for the vRAN pool: dispatch, EDF, wakeups, yields."""

import numpy as np
import pytest

from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.ran.dag import DagBuilder
from repro.ran.tasks import CostModel, TaskType
from repro.ran.ue import SlotLoad, bytes_to_allocations
from repro.sim.engine import Engine
from repro.sim.osmodel import LatencyBucket, WakeupLatencyModel
from repro.sim.policy import SchedulerPolicy
from repro.sim.pool import VranPool, WorkerState


class ManualPolicy(SchedulerPolicy):
    """Test policy: core allocation controlled explicitly by the test."""

    name = "manual"


class _FixedCost(CostModel):
    """Deterministic runtimes equal to base cost (no noise)."""

    def sample_runtime(self, task, active_cores=1,
                       interference_multiplier=1.0, tail_multiplier=1.0):
        return task.base_cost_us


def _fast_os(rng=None):
    """Deterministic ~1 µs wakeups."""
    bucket = (LatencyBucket(1.0, 1.0, 1.0000001),)
    return WakeupLatencyModel(rng=rng or np.random.default_rng(0),
                              isolated_buckets=bucket,
                              collocated_buckets=bucket)


def make_pool(num_cores=4, policy=None):
    engine = Engine()
    config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=num_cores,
                        deadline_us=2000.0)
    pool = VranPool(
        engine=engine,
        config=config,
        policy=policy or ManualPolicy(),
        cost_model=_FixedCost(noise_sigma=0.0, isolated_tail_prob=0.0),
        os_model=_fast_os(),
    )
    return engine, pool


def make_dag(total_bytes=5000, uplink=True, release=0.0, deadline=2000.0,
             seed=0):
    # The seed sequence a builder seeded from ``default_rng(seed)``
    # derives, so each fixture's DAG draws stay where they are pinned.
    builder = DagBuilder(_FixedCost(), seed_seq=np.random.SeedSequence(
        int(np.random.default_rng(seed).integers(2 ** 63))))
    allocations = bytes_to_allocations(total_bytes,
                                       np.random.default_rng(seed))
    load = SlotLoad("cell20", 0, uplink, allocations)
    return builder.build(load, cell_20mhz_fdd(), release, deadline)


class TestExecution:
    def test_dag_runs_to_completion(self):
        engine, pool = make_pool()
        dag = make_dag()
        pool.release_slot([dag])
        engine.run_until(50_000.0)
        assert dag.finished
        assert dag.completion_us is not None
        assert pool.metrics.slot_count == 1

    def test_all_tasks_get_start_and_finish_times(self):
        engine, pool = make_pool()
        dag = make_dag()
        pool.release_slot([dag])
        engine.run_until(50_000.0)
        for task in dag.tasks:
            assert task.start_time is not None
            assert task.finish_time is not None
            assert task.finish_time >= task.start_time

    def test_dependencies_respected(self):
        engine, pool = make_pool()
        dag = make_dag()
        pool.release_slot([dag])
        engine.run_until(50_000.0)
        for task in dag.tasks:
            for successor in task.successors:
                assert successor.start_time >= task.finish_time

    def test_single_core_serializes(self):
        engine, pool = make_pool(num_cores=1)
        dag = make_dag()
        pool.release_slot([dag])
        engine.run_until(100_000.0)
        intervals = sorted((t.start_time, t.finish_time) for t in dag.tasks)
        for (s1, f1), (s2, __) in zip(intervals, intervals[1:]):
            assert s2 >= f1 - 1e-9

    def test_parallel_decode_uses_multiple_cores(self):
        engine, pool = make_pool(num_cores=4)
        dag = make_dag(total_bytes=40_000)
        pool.release_slot([dag])
        engine.run_until(100_000.0)
        decodes = [t for t in dag.tasks
                   if t.task_type is TaskType.LDPC_DECODE]
        overlaps = sum(
            1
            for i, a in enumerate(decodes)
            for b in decodes[i + 1:]
            if a.start_time < b.finish_time and b.start_time < a.finish_time
        )
        assert overlaps > 0


class TestEdfOrdering:
    def test_earlier_deadline_first(self):
        engine, pool = make_pool(num_cores=1)
        late = make_dag(total_bytes=2000, deadline=5000.0, seed=1)
        early = make_dag(total_bytes=2000, deadline=1000.0, seed=2)
        pool.release_slot([late, early])
        engine.run_until(100_000.0)
        # The early-deadline DAG's entry task must start first (after
        # the shared-entry dispatch ordering).
        first_late = min(t.start_time for t in late.tasks)
        first_early = min(t.start_time for t in early.tasks)
        assert first_early < first_late


class TestCoreAllocation:
    def test_request_fewer_cores_yields_idle_workers(self):
        engine, pool = make_pool(num_cores=4)
        pool.request_cores(1)
        assert pool.reserved_count == 1
        assert pool.metrics.yield_events == 3

    def test_request_more_cores_pays_wakeup(self):
        engine, pool = make_pool(num_cores=4)
        pool.request_cores(1)
        pool.request_cores(3)
        assert pool.reserved_count == 3  # includes WAKING
        waking = [w for w in pool.workers
                  if w.state is WorkerState.WAKING]
        assert len(waking) == 2
        engine.run_until(10.0)
        assert all(w.state is not WorkerState.WAKING for w in pool.workers)
        assert pool.metrics.registry.value("sched/wakeups") == 2

    def test_running_workers_not_preempted(self):
        engine, pool = make_pool(num_cores=2)
        dag = make_dag(total_bytes=20_000)
        pool.release_slot([dag])
        engine.run_until(5.0)  # something is running now
        running_before = pool.running_count
        assert running_before > 0
        pool.request_cores(0)
        assert pool.running_count == running_before

    def test_target_clamped_to_pool_size(self):
        engine, pool = make_pool(num_cores=4)
        pool.request_cores(100)
        assert pool.target_cores == 4
        pool.request_cores(-5)
        assert pool.target_cores == 0

    def test_available_listener_notified(self):
        engine, pool = make_pool(num_cores=4)
        seen = []
        pool.set_available_listener(lambda now, n: seen.append(n))
        pool.request_cores(1)
        assert seen[0] == 0  # initial callback
        assert seen[-1] == 3

    def test_waking_worker_yields_if_target_dropped(self):
        engine, pool = make_pool(num_cores=2)
        pool.request_cores(0)
        pool.request_cores(2)
        pool.request_cores(0)
        engine.run_until(10.0)
        assert pool.reserved_count == 0


class TestQueueIntrospection:
    def test_oldest_ready_wait(self):
        engine, pool = make_pool(num_cores=1)
        pool.request_cores(0)
        dag = make_dag(total_bytes=1000)
        pool.release_slot([dag])
        engine.run_until(100.0)
        assert pool.oldest_ready_wait_us() == pytest.approx(100.0)

    def test_empty_queue_zero_wait(self):
        engine, pool = make_pool()
        assert pool.oldest_ready_wait_us() == 0.0


class TestRotation:
    def test_rotation_changes_preference_order(self):
        engine, pool = make_pool(num_cores=4)
        pool.policy.rotate_cores = True
        first = pool._order[0].core_id
        pool._rotate()
        assert pool._order[0].core_id == (first + 1) % 4
        assert sorted(w.core_id for w in pool._order) == [0, 1, 2, 3]
