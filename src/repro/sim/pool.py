"""The vRAN pool: worker threads, EDF task queue, core reservation.

This is the simulated analogue of FlexRAN's queue-based worker-thread
model (paper §2.1, Fig. 2): a bank of CPU cores, each pinned to a
worker thread that pulls the earliest-deadline task from a shared
priority queue.  A worker whose core is *reserved* either runs a task
or busy-spins; a worker that has *yielded* frees its core for
best-effort workloads and must be signalled (paying an OS wakeup
latency) before it can process tasks again.

The pool exposes ``request_cores(n)`` to its scheduling policy and
handles all mechanics: EDF dispatch, DAG bookkeeping, wakeups, yields,
core rotation and metrics.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from functools import partial
from typing import Optional

import numpy as np

from ..obs.events import REC_CORE, REC_TASK, REC_WAKEUP
from ..ran.config import PoolConfig
from ..ran.dag import DagInstance
from ..ran.tasks import CostModel, TaskInstance
from .cache import CacheInterferenceModel
from .engine import Engine
from .metrics import Metrics
from .osmodel import WakeupLatencyModel
from .policy import SchedulerPolicy

__all__ = ["WorkerState", "Worker", "VranPool"]


class WorkerState(enum.Enum):
    YIELDED = "yielded"  # core belongs to best-effort workloads
    WAKING = "waking"  # signalled; wakeup latency in flight
    SPINNING = "spinning"  # reserved and polling the queue
    RUNNING = "running"  # executing a signal-processing task


class Worker:
    """One worker thread pinned to one CPU core."""

    __slots__ = ("core_id", "state", "current_task", "wake_signaled_at",
                 "pinned_task", "finish_timer", "wake_timer", "order_pos",
                 "retiring")

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.state = WorkerState.SPINNING
        #: Set by :meth:`VranPool.remove_worker` on a busy worker:
        #: drain the in-flight wakeup/task, then leave the pool.
        self.retiring = False
        self.current_task: Optional[TaskInstance] = None
        self.wake_signaled_at: Optional[float] = None
        #: Task bound to this worker's queue while it wakes up
        #: (per-worker queue affinity; see SchedulerPolicy docs).
        self.pinned_task: Optional[TaskInstance] = None
        #: Reusable engine timers (one heap entry each, re-keyed per
        #: firing): task completion and wakeup completion.  A worker
        #: runs at most one task and one wakeup at a time, so a single
        #: entry per event kind covers the worker's whole lifetime.
        self.finish_timer = None
        self.wake_timer = None
        #: Position of this worker in the pool's rotated preference
        #: order; keys the spinning/yielded free-bitmaps.
        self.order_pos = core_id


class VranPool:
    """Simulated vRAN pool with pluggable core-allocation policy."""

    def __init__(
        self,
        engine: Engine,
        config: PoolConfig,
        policy: SchedulerPolicy,
        cost_model: CostModel,
        os_model: Optional[WakeupLatencyModel] = None,
        cache_model: Optional[CacheInterferenceModel] = None,
        metrics: Optional[Metrics] = None,
        rng: Optional[np.random.Generator] = None,
        event_bus=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.policy = policy
        self.cost_model = cost_model
        self.rng = rng if rng is not None else np.random.default_rng(3)
        self.os_model = os_model if os_model is not None else \
            WakeupLatencyModel(rng=self.rng)
        self.cache_model = cache_model if cache_model is not None else \
            CacheInterferenceModel(rng=self.rng)
        self.metrics = metrics if metrics is not None else \
            Metrics(config.num_cores)

        #: Physical core count, mutable via add_worker/remove_worker
        #: (elastic reconfiguration); ``config.num_cores`` keeps the
        #: provisioned value the pool was built with.
        self._num_cores = config.num_cores
        self._next_core_id = config.num_cores
        self.workers = [Worker(i) for i in range(config.num_cores)]
        for worker in self.workers:
            worker.finish_timer = engine.timer(
                partial(self._finish, worker))
            worker.wake_timer = engine.timer(partial(self._awake, worker))
        self._order = list(self.workers)  # rotated preference order
        # Incremental state counters (hot path; avoid O(cores) scans).
        self._reserved = config.num_cores
        self._running = 0
        self._waking = 0
        self._spinning = config.num_cores
        self._pinned = 0
        # Free-list bitmaps keyed by preference-order position: bit i
        # set <=> self._order[i] is SPINNING (resp. YIELDED).  Lowest
        # set bit = most-preferred free worker, so EDF dispatch and
        # wakeup selection are O(1) per task instead of an O(cores)
        # scan; highest set bit serves _apply_target's release path,
        # which scans the order backwards.
        self._spin_bits = (1 << config.num_cores) - 1
        self._yield_bits = 0
        self._ready: list[tuple[float, int, TaskInstance]] = []
        self._seq = itertools.count()
        self.target_cores = config.num_cores
        self.active_dags: list[DagInstance] = []
        self._rotation_offset = 0
        self._available_listener = None  # WorkloadHost hook
        #: Optional repro.obs.events.EventBus; None (the default) keeps
        #: the hot paths at a single pointer comparison per event site.
        self.event_bus = event_bus
        if event_bus is not None:
            event_bus.clock = lambda: engine.now
            os_model = self.os_model
            if getattr(os_model, "event_bus", None) is None:
                os_model.event_bus = event_bus
        #: Callable answering "is a best-effort occupant on the yielded
        #: cores right now?" — set by the simulation harness so wakeups
        #: that displace real work count as preemptions while wakeups of
        #: idle cores do not.
        self._occupancy_provider = None
        #: Optional callback fired with each completed TaskInstance
        #: (used by offline profiling to collect training datasets).
        self.task_observer = None
        #: Optional callback fired with each completed DagInstance so
        #: its task objects can be recycled (repro.ran.dag.DagBuilder's
        #: instance pool).  Recycling is skipped while a task_observer
        #: is attached: observers may retain task references past the
        #: DAG's lifetime (profiling/training/tracing), and pooled
        #: tasks must never outlive their DAG.
        self.dag_recycler = None
        #: Optional hardware accelerator (repro.accel) that executes
        #: offloaded task types instead of the CPU workers (§7).
        self.accelerator = None
        #: Promise from the slot driver: no new DAGs will be released
        #: before this time (the next slot boundary).  -inf (the
        #: default, kept by standalone pools) disables the quiescent
        #: tick fast-forward in :meth:`_tick`.
        self._quiet_until = -math.inf
        #: Scheduler ticks consumed by the batched fast-forward instead
        #: of individual heap events, and how many batches did it.
        self.ticks_batched = 0
        self.tick_batches = 0

        self.metrics.on_reserved_change(engine.now, config.num_cores)
        policy.attach(self)
        # Periodic sources use recurring timers: one reused heap entry
        # each instead of a push/pop + closure per firing.
        if policy.tick_interval_us is not None:
            self._tick_event = engine.schedule_every(
                policy.tick_interval_us, self._tick
            )
        else:
            self._tick_event = None
        if policy.rotate_cores:
            self._rotate_event = engine.schedule_every(
                config.core_rotation_us, self._rotate
            )
        else:
            self._rotate_event = None

    # -- derived state -----------------------------------------------------

    @property
    def num_cores(self) -> int:
        return self._num_cores

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def reserved_count(self) -> int:
        return self._reserved

    @property
    def running_count(self) -> int:
        return self._running

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    @property
    def pinned_count(self) -> int:
        """Ready tasks bound to still-waking workers (queue affinity)."""
        return self._pinned

    @property
    def collocation_active(self) -> bool:
        return self.cache_model.pressure > 0.0

    def overdue_waking(self, threshold_us: float) -> int:
        """Workers signalled more than ``threshold_us`` ago but still down."""
        if self._waking == 0:
            return 0
        now = self.now
        return sum(
            1
            for w in self.workers
            if w.state is WorkerState.WAKING
            and w.wake_signaled_at is not None
            and now - w.wake_signaled_at > threshold_us
        )

    def oldest_ready_wait_us(self) -> float:
        """Queueing delay of the oldest waiting task (0 when none wait).

        Includes tasks pinned to still-waking workers: they sit in a
        per-worker queue, but they are queued all the same.
        """
        oldest: Optional[float] = None
        if self._ready:
            oldest = self._ready[0][2].enqueue_time
        if self._pinned:
            for worker in self.workers:
                task = worker.pinned_task
                if task is not None and task.enqueue_time is not None:
                    if oldest is None or task.enqueue_time < oldest:
                        oldest = task.enqueue_time
        if oldest is None:
            return 0.0
        return self.now - oldest

    def set_available_listener(self, listener) -> None:
        """Register a callback fired as ``listener(now, available_cores)``."""
        self._available_listener = listener
        listener(self.now, self.num_cores - self.reserved_count)

    def set_best_effort_occupancy(self, provider) -> None:
        """Register ``provider() -> bool``: is best-effort work actually
        occupying the yielded cores?  Without a provider no best-effort
        workloads are modelled, so no wakeup counts as a preemption."""
        self._occupancy_provider = provider

    # -- DAG lifecycle --------------------------------------------------------

    def release_slot(self, dags: list[DagInstance]) -> None:
        """Release the DAGs of a new slot into the pool."""
        bus = self.event_bus
        if bus is not None and bus.enabled:
            for dag in dags:
                # task_id carries the slot index on dag_* events.
                bus.record(REC_TASK, self.now, "dag_release", dag.dag_id,
                           dag.slot_index, "", dag.cell_name, -1, 0.0,
                           None, dag.deadline_us)
        self.policy.on_slot_start(dags, self.now)
        for dag in dags:
            self.active_dags.append(dag)
            for task in dag.entry_tasks():
                self._enqueue(task)
        running_before = self._running
        self._dispatch()
        if self._running != running_before:
            self.metrics.on_running_change(self.now, self._running)

    def _enqueue(self, task: TaskInstance) -> None:
        # No event here: the task's single "task_done" record (emitted
        # at completion) carries enqueue_time, so the hot path stays at
        # one record per task.
        task.enqueue_time = self.engine._now
        if self.accelerator is not None and \
                task.task_type in self.accelerator.offloaded_types:
            # Offloaded tasks bypass the EDF queue (and therefore the
            # policy's enqueue hook): the CPU scheduler treats them as
            # external latency.  Their work still counts via the
            # slot-start registration and the finish hook.
            self.accelerator.submit(task)
            return
        if self.policy.pin_tasks_to_wakeups and self._pin_to_wakeup(task):
            self.policy.on_task_enqueued(task)
            return
        heapq.heappush(self._ready, (task.deadline_us, next(self._seq), task))
        self.policy.on_task_enqueued(task)

    def _pin_to_wakeup(self, task: TaskInstance) -> bool:
        """Bind ``task`` to a freshly woken worker's queue if no core is
        free to take it right now (per-worker queue affinity)."""
        if self._spinning:
            return False  # someone can take it immediately
        bits = self._yield_bits
        if not bits:
            return False
        worker = self._order[(bits & -bits).bit_length() - 1]
        worker.pinned_task = task
        self._pinned += 1
        self._wake(worker)
        return True

    def _dispatch(self) -> None:
        """Hand ready tasks to spinning workers (EDF order).

        Each iteration pairs the earliest-deadline task with the
        most-preferred spinning worker (lowest set bit of the spinning
        bitmap), so dispatch is O(1) per started task.  The body of
        :meth:`_start` is inlined here — this loop starts every
        non-pinned task in the simulation, and the call itself was
        measurable; keep the two in sync (``_awake`` still uses
        ``_start`` for pinned tasks).
        """
        ready = self._ready
        order = self._order
        pop = heapq.heappop
        now = self.engine._now
        running_state = WorkerState.RUNNING
        cache_model = self.cache_model
        sample_runtime = self.cost_model.sample_runtime
        on_task_started = self.policy.on_task_started
        while ready:
            bits = self._spin_bits
            if not bits:
                break
            __, __, task = pop(ready)
            worker = order[(bits & -bits).bit_length() - 1]
            worker.state = running_state
            self._running += 1
            self._spinning -= 1
            self._spin_bits = bits & ~(bits & -bits)
            worker.current_task = task
            task.start_time = now
            if task.cache_u is not None:
                mean_mult, tail_mult = cache_model.multipliers_for(
                    now, task.cache_u, task.cache_tail
                )
            else:
                mean_mult, tail_mult = cache_model.sample_multipliers(now)
            runtime = sample_runtime(task, self._running, mean_mult,
                                     tail_mult)
            task.runtime_us = runtime
            on_task_started(task)
            worker.finish_timer.arm(runtime)

    # -- task execution ----------------------------------------------------------

    def _start(self, worker: Worker, task: TaskInstance) -> None:
        now = self.engine._now
        worker.state = WorkerState.RUNNING
        self._running += 1
        self._spinning -= 1
        self._spin_bits &= ~(1 << worker.order_pos)
        worker.current_task = task
        task.start_time = now
        # Per-task randomness is presampled at DAG build (stoch_mult,
        # cache_u/cache_tail); only state-dependent factors — active
        # cores and the cache model's churn/pressure — are applied here.
        if task.cache_u is not None:
            mean_mult, tail_mult = self.cache_model.multipliers_for(
                now, task.cache_u, task.cache_tail
            )
        else:
            mean_mult, tail_mult = self.cache_model.sample_multipliers(now)
        # Positional call: keyword binding costs on a per-task call.
        runtime = self.cost_model.sample_runtime(
            task, self._running, mean_mult, tail_mult)
        task.runtime_us = runtime
        self.policy.on_task_started(task)
        # One reusable heap entry per worker (engine Timer): no Event,
        # entry list or closure allocation on the per-task hot path.
        worker.finish_timer.arm(runtime)

    def _finish(self, worker: Worker) -> None:
        now = self.engine._now
        task = worker.current_task
        worker.current_task = None
        worker.state = WorkerState.SPINNING
        self._running -= 1
        self._spinning += 1
        self._spin_bits |= 1 << worker.order_pos
        if worker.retiring:
            # Drain-then-retire (elastic remove_worker): the drained
            # task completes normally, then the core leaves the pool
            # before it can pick up new work.
            self._complete_task(task, now, core=worker.core_id)
            self.policy.on_task_finished(task)
            self._retire(worker)
            if self._ready:
                self._dispatch()
            self.metrics.on_running_change(now, self._running)
            if self._reserved != self.target_cores:
                self._apply_target()
            return
        # Inline of _complete_task + _enqueue for the common
        # configuration — no accelerator, no observers, no event bus,
        # no wakeup pinning.  This runs once per completed task (the
        # single hottest call site in the simulator); the slow path
        # below it stays the source of truth for the rare hooks.
        bus = self.event_bus
        if (self.accelerator is None and self.task_observer is None
                and not self.metrics.record_tasks
                and not self.policy.pin_tasks_to_wakeups
                and (bus is None or not bus.enabled)):
            task.finish_time = now
            dag = task.dag
            dag.tasks_remaining -= 1
            if dag.tasks_remaining == 0:
                dag.completion_us = now
                release = dag.release_us
                self.metrics.on_slot_complete(
                    now - release, dag.deadline_us - release)
                try:
                    self.active_dags.remove(dag)
                except ValueError:
                    pass
                if self.dag_recycler is not None:
                    self.dag_recycler(dag)
            ready = self._ready
            seq = self._seq
            push = heapq.heappush
            on_task_enqueued = self.policy.on_task_enqueued
            for successor in task.successors:
                successor.predecessors_remaining -= 1
                if successor.predecessors_remaining == 0:
                    successor.enqueue_time = now
                    push(ready, (successor.deadline_us, next(seq),
                                 successor))
                    on_task_enqueued(successor)
        else:
            self._complete_task(task, now, core=worker.core_id)
        self.policy.on_task_finished(task)
        if self._ready:
            self._dispatch()
        # Coalesced running-cores sample: _finish and any same-timestamp
        # re-dispatch it triggers emit ONE metrics update with the final
        # running count instead of one per intermediate state (inline of
        # metrics.on_running_change).
        metrics = self.metrics
        dt = now - metrics._last_change_us
        if dt > 0:
            metrics.reserved_core_time_us += dt * metrics._reserved_cores
            metrics.busy_core_time_us += dt * metrics._running_cores
            metrics._last_change_us = now
        metrics._running_cores = self._running
        if self._reserved != self.target_cores:
            self._apply_target()

    def complete_offloaded(self, task: TaskInstance) -> None:
        """Accelerator hand-back: run the shared completion bookkeeping.

        Offloaded tasks never held a CPU worker, so only DAG/successor
        state is updated; successors released here re-enter the EDF
        queue for the CPU workers (or go back to the accelerator).
        """
        now = self.now
        self._complete_task(task, now)
        self.policy.on_task_finished(task)
        running_before = self._running
        self._dispatch()
        if self._running != running_before:
            self.metrics.on_running_change(now, self._running)
        self._apply_target()

    def _complete_task(self, task: TaskInstance, now: float,
                       core: int = -1) -> None:
        task.finish_time = now
        dag = task.dag
        dag.tasks_remaining -= 1
        metrics = self.metrics
        if metrics.record_tasks:
            metrics.on_task_complete(
                task.task_type.value, task.predicted_wcet_us, task.runtime_us
            )
        bus = self.event_bus
        if bus is not None and bus.enabled:
            # One record per task, at finish: enqueue/start/finish as
            # three events tripled the hottest emission rate and blew
            # the CI overhead budget.  core is -1 for offloaded tasks.
            bus.record(REC_TASK, now, "task_done", dag.dag_id,
                       task.task_id, task.task_type.value,
                       task.cell_name, core, task.runtime_us,
                       task.predicted_wcet_us, 0.0,
                       task.enqueue_time, task.start_time)
        if dag.tasks_remaining == 0:
            dag.completion_us = now
            if bus is not None and bus.enabled:
                bus.record(REC_TASK, now, "dag_complete", dag.dag_id,
                           dag.slot_index, "", dag.cell_name, -1,
                           dag.latency_us, None, dag.deadline_us)
            self.metrics.on_slot_complete(
                dag.latency_us, dag.deadline_us - dag.release_us
            )
            try:
                self.active_dags.remove(dag)
            except ValueError:
                pass
            # Hand the completed DAG back to its builder's instance
            # pool.  Reset is lazy (at re-acquisition), so hooks that
            # run after this — the policy's finish hook reading
            # task.dag, the successors loop below — still see intact
            # fields; by the next slot boundary nothing references
            # this DAG's tasks any more.
            if self.dag_recycler is not None and self.task_observer is None:
                self.dag_recycler(dag)
        # Observers run after the DAG bookkeeping so they can see
        # completion state (e.g. dag.latency_us on the final task).
        if self.task_observer is not None:
            self.task_observer(task)
        for successor in task.successors:
            successor.predecessors_remaining -= 1
            if successor.predecessors_remaining == 0:
                self._enqueue(successor)

    # -- core allocation ------------------------------------------------------------

    def request_cores(self, n: int) -> None:
        """Policy entry point: reserve exactly ``n`` cores (best effort).

        Running workers are never preempted mid-task; if the target drops
        below the running count the extra cores are released as their
        tasks finish.
        """
        self.target_cores = max(0, min(self.num_cores, int(n)))
        self._apply_target()

    def _apply_target(self) -> None:
        reserved = self._reserved
        if reserved == self.target_cores:
            return
        if reserved < self.target_cores:
            # Wake the most-preferred yielded workers (lowest set bits).
            deficit = self.target_cores - reserved
            order = self._order
            while deficit and self._yield_bits:
                bits = self._yield_bits
                self._wake(order[(bits & -bits).bit_length() - 1])
                deficit -= 1
        else:
            # Release idle (spinning) workers only, least-preferred
            # (highest set bit) first — mirrors the old reverse scan.
            excess = reserved - self.target_cores
            order = self._order
            while excess and self._spin_bits:
                self._yield(order[self._spin_bits.bit_length() - 1])
                excess -= 1
        # One aggregate grant/revoke record per effective change, on
        # top of the per-core reserve/release events: postmortems
        # correlate misses with reclaim *decisions*, not single cores.
        # The ``core`` field carries the signed core-count delta.
        bus = self.event_bus
        if bus is not None and bus.enabled and self._reserved != reserved:
            kind = ("pool.core_grant" if self._reserved > reserved
                    else "pool.core_revoke")
            bus.record(REC_CORE, self.now, kind, self._reserved - reserved,
                       self._reserved, self.target_cores)

    # -- elastic capacity -----------------------------------------------------------
    # Distinct from the request_cores ratchet above: these change how
    # many physical cores the pool *has*, not how the existing cores
    # are split between vRAN and best-effort.

    def add_worker(self, core_id: Optional[int] = None) -> int:
        """Grow the physical core set by one worker, mid-run.

        The new worker joins YIELDED — its core belongs to best-effort
        until the policy raises its target — at the end of the current
        preference order.  Returns the new worker's core id.
        """
        if core_id is None:
            core_id = self._next_core_id
        elif any(w.core_id == core_id for w in self.workers):
            raise ValueError(f"core_id {core_id} already in the pool")
        self._next_core_id = max(self._next_core_id, core_id + 1)
        worker = Worker(core_id)
        worker.state = WorkerState.YIELDED
        worker.finish_timer = self.engine.timer(partial(self._finish, worker))
        worker.wake_timer = self.engine.timer(partial(self._awake, worker))
        self.workers.append(worker)
        pos = len(self._order)
        worker.order_pos = pos
        self._order.append(worker)
        self._yield_bits |= 1 << pos
        self._num_cores += 1
        now = self.now
        self.metrics.on_capacity_change(now, self._num_cores)
        bus = self.event_bus
        if bus is not None and bus.enabled:
            bus.record(REC_CORE, now, "pool.worker_add", worker.core_id,
                       self._reserved, self.target_cores)
        self._notify_available()
        if self._reserved != self.target_cores:
            self._apply_target()
        return worker.core_id

    def remove_worker(self, core_id: Optional[int] = None) -> int:
        """Shrink the physical core set by one worker.

        An idle (yielded or spinning) worker retires immediately; a
        busy (waking or running) worker is *drained* — marked retiring
        and retired the moment its in-flight wakeup or task completes,
        never preempted mid-task.  Without an explicit ``core_id`` the
        least-preferred idle worker is chosen.  Returns the core id of
        the (eventually) retired worker.
        """
        if self._num_cores <= 1:
            raise ValueError("cannot remove the last worker")
        worker = self._pick_removal(core_id)
        if worker.state in (WorkerState.YIELDED, WorkerState.SPINNING):
            self._retire(worker)
        else:
            worker.retiring = True
        return worker.core_id

    def _pick_removal(self, core_id: Optional[int]) -> Worker:
        if core_id is not None:
            for worker in self.workers:
                if worker.core_id == core_id:
                    if worker.retiring:
                        raise ValueError(
                            f"core {core_id} is already retiring")
                    return worker
            raise ValueError(f"no such core: {core_id}")
        # Least-preferred first; cheapest state first (yielded cores
        # are already outside the vRAN set, spinning ones need no
        # drain).  Retiring workers are never in the bitmaps.
        order = self._order
        if self._yield_bits:
            return order[self._yield_bits.bit_length() - 1]
        if self._spin_bits:
            return order[self._spin_bits.bit_length() - 1]
        for worker in reversed(order):
            if not worker.retiring:
                return worker
        raise ValueError("every remaining worker is already retiring")

    def _retire(self, worker: Worker) -> None:
        """Remove ``worker`` from the pool; resize dispatch structures."""
        state = worker.state
        worker.retiring = False
        worker.finish_timer.cancel()
        worker.wake_timer.cancel()
        self.workers.remove(worker)
        self._order.remove(worker)
        reserved_changed = False
        if state is WorkerState.SPINNING:
            self._reserved -= 1
            self._spinning -= 1
            reserved_changed = True
        elif state is WorkerState.WAKING:
            self._reserved -= 1
            self._waking -= 1
            reserved_changed = True
        self._num_cores -= 1
        if self.target_cores > self._num_cores:
            self.target_cores = self._num_cores
        self._rebuild_bitmaps()
        now = self.now
        self.metrics.on_capacity_change(now, self._num_cores)
        if reserved_changed:
            self.cache_model.record_scheduling_event(now)
            self.metrics.on_reserved_change(now, self._reserved)
        bus = self.event_bus
        if bus is not None and bus.enabled:
            bus.record(REC_CORE, now, "pool.worker_remove", worker.core_id,
                       self._reserved, self.target_cores)
        self._notify_available()

    def _rebuild_bitmaps(self) -> None:
        """Recompute order positions and free bitmaps from ``_order``."""
        spin_bits = 0
        yield_bits = 0
        spinning = WorkerState.SPINNING
        yielded = WorkerState.YIELDED
        for pos, worker in enumerate(self._order):
            worker.order_pos = pos
            if worker.state is spinning:
                spin_bits |= 1 << pos
            elif worker.state is yielded:
                yield_bits |= 1 << pos
        self._spin_bits = spin_bits
        self._yield_bits = yield_bits

    def _wake(self, worker: Worker) -> None:
        worker.state = WorkerState.WAKING
        self._reserved += 1
        self._waking += 1
        self._yield_bits &= ~(1 << worker.order_pos)
        worker.wake_signaled_at = self.now
        latency = self.os_model.sample(self.collocation_active)
        self.metrics.on_wakeup(latency)
        # A wakeup is only a *preemption* when a best-effort occupant is
        # actually displaced from the reclaimed cores.
        preempted = (self._occupancy_provider is not None
                     and self._occupancy_provider())
        if preempted:
            self.metrics.on_preemption()
        self.cache_model.record_scheduling_event(self.now)
        self.metrics.on_reserved_change(self.now, self.reserved_count)
        bus = self.event_bus
        if bus is not None and bus.enabled:
            bus.record(REC_WAKEUP, self.now, "wakeup", latency,
                       worker.core_id, self.collocation_active, preempted)
            bus.record(REC_CORE, self.now, "core_reserve",
                       worker.core_id, self.reserved_count,
                       self.target_cores)
        self._notify_available()
        worker.wake_timer.arm(latency)

    def _awake(self, worker: Worker) -> None:
        if worker.state is not WorkerState.WAKING:
            return
        worker.state = WorkerState.SPINNING
        self._waking -= 1
        self._spinning += 1
        self._spin_bits |= 1 << worker.order_pos
        worker.wake_signaled_at = None
        pinned = worker.pinned_task
        if pinned is not None:
            worker.pinned_task = None
            self._pinned -= 1
            if pinned.start_time is None:
                self._start(worker, pinned)
                self.metrics.on_running_change(self.now, self._running)
                return
        if worker.retiring:
            # Drained its in-flight wakeup with no pinned work to
            # honour: retire now (elastic remove_worker).
            self._retire(worker)
            if self._reserved != self.target_cores:
                self._apply_target()
            return
        running_before = self._running
        self._dispatch()
        if self._running != running_before:
            self.metrics.on_running_change(self.now, self._running)
        # The target may have dropped while this core was waking up.
        if self.reserved_count > self.target_cores and \
                worker.state is WorkerState.SPINNING:
            self._yield(worker)

    def _yield(self, worker: Worker) -> None:
        worker.state = WorkerState.YIELDED
        self._reserved -= 1
        self._spinning -= 1
        self._spin_bits &= ~(1 << worker.order_pos)
        self._yield_bits |= 1 << worker.order_pos
        self.metrics.on_yield()
        self.cache_model.record_scheduling_event(self.now)
        self.metrics.on_reserved_change(self.now, self.reserved_count)
        bus = self.event_bus
        if bus is not None and bus.enabled:
            bus.record(REC_CORE, self.now, "core_release",
                       worker.core_id, self.reserved_count,
                       self.target_cores)
        self._notify_available()

    def _notify_available(self) -> None:
        if self._available_listener is not None:
            self._available_listener(self.now,
                                     self.num_cores - self.reserved_count)

    # -- periodic machinery -----------------------------------------------------------
    # The scheduler tick and core rotation are recurring engine timers
    # (Engine.schedule_every): the engine re-keys and reuses a single
    # heap entry per source instead of a push/pop + closure per firing.

    def _tick(self) -> None:
        engine = self.engine
        self.policy.on_tick(engine._now)
        # Quiescent-gap fast-forward: when the pool provably has
        # nothing to do until the next slot boundary and the policy
        # certifies its upcoming ticks are no-ops (idle_tick_bound),
        # consume those ticks in one batch by re-keying the recurring
        # tick entry to the last no-op time instead of firing a heap
        # event per tick.  Every clamp below guards an observable:
        #   * pool quiescence — a tick with work pending can dispatch;
        #   * accelerator/bus/observer attached — ticks have side
        #     channels we cannot replay in batch;
        #   * _quiet_until — the slot driver may release new DAGs at
        #     the boundary, and the tick right after must run live;
        #   * peek_time — any other event may change pool state, so
        #     never skip past one;
        #   * engine._run_end — never move the entry past the horizon
        #     run_until is enforcing (and stay disabled in step()).
        if (self.active_dags or self._waking or self._ready
                or self._pinned):
            return
        if self.accelerator is not None or self.task_observer is not None:
            return
        bus = self.event_bus
        if bus is not None and bus.enabled:
            return
        bound = self.policy.idle_tick_bound(engine._now)
        if bound is None:
            return
        quiet = self._quiet_until
        run_end = engine._run_end
        nxt = engine.peek_time()
        period = self.policy.tick_interval_us
        t = engine._now + period
        skipped = 0
        last = 0.0
        while (t <= bound and t <= run_end and t < quiet
               and (nxt is None or t < nxt)):
            last = t
            skipped += 1
            t += period
        if skipped:
            self.policy.on_ticks_skipped(skipped, last)
            # The engine re-keys this entry to last + period when this
            # firing returns, exactly where the live path would be.
            self._tick_event.rekey(last)
            self.ticks_batched += skipped
            self.tick_batches += 1

    def _rotate(self) -> None:
        """Rotate preferred core order every 2 ms (§5)."""
        self._rotation_offset = (self._rotation_offset + 1) % self.num_cores
        offset = self._rotation_offset
        workers = self.workers
        n = self.num_cores
        self._order = [workers[(i + offset) % n] for i in range(n)]
        # Rebuild the position-keyed free bitmaps (rotation is rare —
        # every 2 ms — so an O(cores) rebuild here keeps the per-task
        # paths O(1)).
        self._rebuild_bitmaps()
        bus = self.event_bus
        if bus is not None and bus.enabled:
            bus.record(REC_CORE, self.now, "core_rotate",
                       self._order[0].core_id, self.reserved_count,
                       self.target_cores)
