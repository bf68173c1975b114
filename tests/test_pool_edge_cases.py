"""Edge-case and invariant tests for the pool and accelerator paths."""

import numpy as np

from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.sim.engine import Engine
from repro.sim.pool import VranPool, WorkerState

from .test_pool import ManualPolicy, _FixedCost, _fast_os, make_dag, make_pool


class TestPinnedWakeups:
    def _pin_pool(self, num_cores=2):
        engine = Engine()
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=num_cores,
                            deadline_us=4000.0)
        policy = ManualPolicy()
        policy.pin_tasks_to_wakeups = True
        pool = VranPool(
            engine=engine, config=config, policy=policy,
            cost_model=_FixedCost(noise_sigma=0.0, isolated_tail_prob=0.0),
            os_model=_fast_os(),
        )
        return engine, pool

    def test_pin_when_no_spinning_worker(self):
        engine, pool = self._pin_pool()
        pool.request_cores(0)
        dag = make_dag(total_bytes=0)  # single FFT task
        pool.release_slot([dag])
        assert pool.pinned_count == 1
        assert pool.ready_count == 0
        engine.run_until(10_000.0)
        assert dag.finished
        assert pool.pinned_count == 0

    def test_no_pin_when_spinning_worker_free(self):
        engine, pool = self._pin_pool()
        dag = make_dag(total_bytes=0)
        pool.release_slot([dag])
        assert pool.pinned_count == 0  # a spinning worker took it

    def test_pinned_task_waits_for_its_worker(self):
        """The queue-affinity failure mode: the task eats the full
        wakeup latency even though no other work exists."""
        from repro.sim.osmodel import LatencyBucket, WakeupLatencyModel
        slow = WakeupLatencyModel(
            rng=np.random.default_rng(0),
            isolated_buckets=(LatencyBucket(1.0, 900.0, 900.0001),),
            collocated_buckets=(LatencyBucket(1.0, 900.0, 900.0001),),
        )
        engine = Engine()
        config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=2,
                            deadline_us=4000.0)
        policy = ManualPolicy()
        policy.pin_tasks_to_wakeups = True
        pool = VranPool(engine=engine, config=config, policy=policy,
                        cost_model=_FixedCost(noise_sigma=0.0,
                                              isolated_tail_prob=0.0),
                        os_model=slow)
        pool.request_cores(0)
        dag = make_dag(total_bytes=0)
        pool.release_slot([dag])
        engine.run_until(10_000.0)
        task = dag.tasks[0]
        assert task.start_time >= 900.0

    def test_unpinned_policies_share_queue(self):
        engine, pool = make_pool(num_cores=2)
        pool.request_cores(0)
        dag = make_dag(total_bytes=0)
        pool.release_slot([dag])
        assert pool.pinned_count == 0
        assert pool.ready_count == 1


class TestDrainAndCounters:
    def test_counters_match_scan_after_run(self):
        engine, pool = make_pool(num_cores=4)
        for i in range(10):
            release = i * 400.0
            engine.run_until(release)
            pool.release_slot([make_dag(total_bytes=8000, release=release,
                                        deadline=release + 4000.0,
                                        seed=i)])
            pool.request_cores((i % 4) + 1)
        engine.run_until(50_000.0)
        scan_reserved = sum(1 for w in pool.workers
                            if w.state is not WorkerState.YIELDED)
        scan_running = sum(1 for w in pool.workers
                           if w.state is WorkerState.RUNNING)
        assert pool.reserved_count == scan_reserved
        assert pool.running_count == scan_running
        assert pool.running_count == 0  # everything drained

    def test_slot_count_matches_dags(self):
        engine, pool = make_pool(num_cores=4)
        for i in range(5):
            release = i * 500.0
            engine.run_until(release)
            pool.release_slot([make_dag(total_bytes=3000, release=release,
                                        deadline=release + 4000.0,
                                        seed=i)])
        engine.run_until(50_000.0)
        assert pool.metrics.slot_count == 5
        assert not pool.active_dags

    def test_zero_byte_dag_counts_once(self):
        engine, pool = make_pool()
        dag = make_dag(total_bytes=0)
        pool.release_slot([dag])
        engine.run_until(1_000.0)
        assert pool.metrics.slot_count == 1


class TestRequestCoresEdgeCases:
    def _scan_counters(self, pool):
        reserved = sum(1 for w in pool.workers
                       if w.state is not WorkerState.YIELDED)
        running = sum(1 for w in pool.workers
                      if w.state is WorkerState.RUNNING)
        return reserved, running

    def test_shrink_below_running_count_never_preempts(self):
        engine, pool = make_pool(num_cores=4)
        dag = make_dag(total_bytes=40_000)  # wide parallel decode
        pool.release_slot([dag])
        while pool.running_count < 2 and engine.step():
            pass
        running = pool.running_count
        assert running >= 2
        pool.request_cores(0)
        # Running workers are never preempted mid-task: the target
        # undershoots but the reserve only sheds *idle* cores now.
        assert pool.running_count == running
        assert pool.reserved_count >= running
        for task in dag.tasks:
            if task.start_time is not None and task.finish_time is None:
                assert True  # still in flight, not cancelled
        engine.run_until(100_000.0)
        assert dag.finished
        # As tasks drained, the ratchet released the excess cores.
        assert pool.reserved_count == 0

    def test_repeated_grow_shrink_cycles_keep_invariants(self):
        engine, pool = make_pool(num_cores=4)
        for cycle in range(6):
            release = cycle * 600.0
            engine.run_until(release)
            pool.release_slot([make_dag(total_bytes=4000, release=release,
                                        deadline=release + 4000.0,
                                        seed=cycle)])
            for target in (0, 4, 1, 3):
                pool.request_cores(target)
                scan_reserved, scan_running = self._scan_counters(pool)
                assert pool.reserved_count == scan_reserved
                assert pool.running_count == scan_running
                assert pool.reserved_count >= pool.running_count
                assert 0 <= pool.reserved_count <= pool.num_cores
        engine.run_until(100_000.0)
        assert pool.running_count == 0
        scan_reserved, _ = self._scan_counters(pool)
        assert pool.reserved_count == scan_reserved

    def test_target_change_mid_tick_applies_at_task_end(self):
        engine, pool = make_pool(num_cores=2)
        dag = make_dag(total_bytes=3000)
        pool.release_slot([dag])
        while pool.running_count < 1 and engine.step():
            pass
        # Mid-task shrink: the target lands while work is in flight.
        pool.request_cores(1)
        assert pool.target_cores == 1
        # Mid-tick grow back before anything finished: no worker was
        # woken or released twice, counters still match a fresh scan.
        pool.request_cores(2)
        scan_reserved, scan_running = self._scan_counters(pool)
        assert pool.reserved_count == scan_reserved
        assert pool.running_count == scan_running
        engine.run_until(50_000.0)
        assert dag.finished
        assert pool.reserved_count == 2  # final target honoured

    def test_target_clamped_to_capacity(self):
        engine, pool = make_pool(num_cores=2)
        pool.request_cores(99)
        assert pool.target_cores == 2
        pool.request_cores(-5)
        assert pool.target_cores == 0
        pool.add_worker()
        pool.request_cores(99)
        assert pool.target_cores == 3  # elastic growth raises the clamp


class TestObserverOrdering:
    def test_observer_sees_dag_completion_state(self):
        engine, pool = make_pool()
        dag = make_dag(total_bytes=2000)
        seen = []

        def observe(task):
            if task.dag.tasks_remaining == 0:
                seen.append(task.dag.latency_us)

        pool.task_observers.append(observe)
        pool.release_slot([dag])
        engine.run_until(50_000.0)
        assert len(seen) == 1
        assert seen[0] is not None
        assert seen[0] == dag.latency_us
