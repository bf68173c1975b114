"""The Concordia scheduler (paper §3 and §5).

Runs every 20 µs.  At each tick it computes, for every active DAG, the
number of cores required to meet the DAG's deadline given the predicted
remaining work and remaining critical path (mixed-criticality federated
scheduling, Li et al. 2017), sums demands across DAGs, and reserves
exactly that many cores — releasing the rest to best-effort workloads.
Following Li et al., *heavy* DAGs (those needing more than one core)
get dedicated cores, while *light* DAGs (sequentially feasible) are
packed onto shared cores by total utilization.

Two safety mechanisms from the paper are included:

* **critical stage** — when a DAG's slack falls to its critical path,
  every pool core is reserved and best-effort work is evicted;
* **wakeup compensation** — a signalled core that fails to come up
  within a tick (stuck behind a non-preemptible kernel section) is
  compensated by reserving an extra core, which is how Concordia keeps
  99.999 % reliability despite Linux's scheduling-latency tail.

For speed, per-DAG remaining work and critical path are maintained
incrementally: exact recomputation happens on task completion, and the
20 µs tick only decays the cached critical path by elapsed time while
the DAG is executing.  The scheduler also asks the pool to rotate its
preferred core order every 2 ms so unmigratable kernel work gets CPU
time (§5).
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Optional

from ..obs.events import REC_TICK
from ..obs.registry import MetricsRegistry
from ..ran.dag import DagInstance, batch_predicted_paths
from ..ran.tasks import TaskInstance
from ..sim.policy import SchedulerPolicy
from .predictor import ConcordiaPredictor

__all__ = ["ConcordiaScheduler"]


class _DagState:
    """Incrementally maintained scheduling state of one active DAG."""

    __slots__ = ("dag", "work_us", "critical_path_us", "computed_at",
                 "running", "frontier", "cores_ratchet", "util_ratchet",
                 "util_ceil", "deadline_us")

    def __init__(self, dag: DagInstance) -> None:
        self.dag = dag
        self.work_us = 0.0
        self.critical_path_us = 0.0
        self.computed_at = dag.release_us
        self.running = 0
        # Federated scheduling dedicates cores to a DAG for its whole
        # execution; releasing early and re-acquiring 20 µs later would
        # thrash the cache.  The ratchets hold each DAG's peak demand
        # until the DAG completes (cores are still freed on completion).
        self.cores_ratchet = 0
        self.util_ratchet = 0.0
        #: Cached ``math.ceil(util_ratchet)``, updated when the ratchet
        #: rises — the heavy/light classification reads it every 20 µs
        #: tick, the ratchet changes orders of magnitude less often.
        self.util_ceil = 0
        #: The DAG's deadline, copied so the tick loop does one
        #: attribute load instead of chasing state.dag.deadline_us.
        self.deadline_us = dag.deadline_us
        # Ready/running tasks -> their longest path to a sink.  The
        # remaining critical path is the max over this frontier, which
        # is O(parallelism) instead of O(V+E) to maintain.
        self.frontier: dict[int, float] = {}


class ConcordiaScheduler(SchedulerPolicy):
    """Userspace deadline scheduler with WCET-driven core reservation."""

    name = "concordia"
    rotate_cores = True

    def __init__(
        self,
        predictor: Optional[ConcordiaPredictor] = None,
        tick_interval_us: float = 20.0,
        wakeup_overdue_us: float = 25.0,
        wcet_fallback_margin: float = 1.3,
        min_standby_cores: int = 0,
        release_hold_us: float = 300.0,
    ) -> None:
        super().__init__()
        self.predictor = predictor
        self.tick_interval_us = tick_interval_us
        self.wakeup_overdue_us = wakeup_overdue_us
        self.wcet_fallback_margin = wcet_fallback_margin
        self.min_standby_cores = min_standby_cores
        #: A core is released only after demand stayed below the reserved
        #: count for this long.  Slot-cycle demand dips (DAGs complete a
        #: few hundred µs before the next TTI) would otherwise yield and
        #: re-acquire every core every slot, thrashing the caches the
        #: proactive design is meant to keep warm (§6.2 / Fig. 9 & 10).
        self.release_hold_us = release_hold_us
        # Aged with popleft() on the 20 µs tick; a plain list's pop(0)
        # is O(n) and showed up in the Fig. 15a profiles.
        self._demand_window: deque[tuple[float, int]] = deque()
        self._states: dict[int, _DagState] = {}
        # Wall-clock overhead accounting (Fig. 15a) lives in a metrics
        # registry so results can export it; the instruments are bound
        # once and bumped via .value on the hot path.
        self.obs_registry = MetricsRegistry()
        self._prediction_wall = self.obs_registry.counter(
            "scheduler/prediction_wall_s")
        self._prediction_calls = self.obs_registry.counter(
            "scheduler/prediction_calls")
        self._scheduling_wall = self.obs_registry.counter(
            "scheduler/scheduling_wall_s")
        self._scheduling_calls = self.obs_registry.counter(
            "scheduler/scheduling_calls")

    # -- predictions -------------------------------------------------------------

    def wcet(self, task: TaskInstance) -> float:
        if task.predicted_wcet_us is not None:
            return task.predicted_wcet_us
        return task.base_cost_us * self.wcet_fallback_margin

    def on_slot_start(self, dags: list, now: float) -> None:
        """Predict every task's WCET and register the new DAGs."""
        start = time.perf_counter()
        predictor = self.predictor
        if predictor is None and dags:
            # No predictor: every task's WCET is base_cost * margin, so
            # the whole slot's predictions and critical paths collapse
            # into one vectorized pass (bit-identical to the scalar
            # loop below — see batch_predicted_paths).
            triples = batch_predicted_paths(dags, self.wcet_fallback_margin)
            for dag, (work, critical, frontier) in zip(dags, triples):
                state = _DagState(dag)
                state.work_us = work
                state.critical_path_us = critical
                state.computed_at = now
                state.frontier = frontier
                self._states[dag.dag_id] = state
                dag.policy_state = state
            self._prediction_wall.value += time.perf_counter() - start
            self._prediction_calls.value += 1
            self._reschedule(now, kind="slot_start")
            return
        for dag in dags:
            state = _DagState(dag)
            # Predictor warm-up after an elastic cell migration: the
            # destination over-estimates the cell's WCETs until its
            # predictor has history (dag.wcet_inflation is 1.0 for
            # every DAG outside a warm-up window).
            inflation = dag.wcet_inflation
            work = 0.0
            for task in dag.tasks:
                predicted = None
                if predictor is not None:
                    predicted = predictor.predict_task(task)
                if predicted is None:
                    predicted = task.base_cost_us * self.wcet_fallback_margin
                if inflation != 1.0:
                    predicted *= inflation
                task.predicted_wcet_us = predicted
                work += predicted
            # One reverse topological sweep fills every task's longest
            # path to a sink; the frontier starts at the entry tasks.
            critical = 0.0
            for task in reversed(dag.tasks):
                tail = 0.0
                for successor in task.successors:
                    if successor.path_us > tail:
                        tail = successor.path_us
                task.path_us = task.predicted_wcet_us + tail
                if task.predecessors_remaining == 0:
                    state.frontier[task.task_id] = task.path_us
                    if task.path_us > critical:
                        critical = task.path_us
            state.work_us = work
            state.critical_path_us = critical
            state.computed_at = now
            self._states[dag.dag_id] = state
            # The per-task hooks read the state off the DAG itself: an
            # attribute load instead of a dict lookup, three times per
            # task.  The dict remains the tick loop's registry.
            dag.policy_state = state
        self._prediction_wall.value += time.perf_counter() - start
        self._prediction_calls.value += 1
        self._reschedule(now, kind="slot_start")

    def on_task_enqueued(self, task: TaskInstance) -> None:
        state = task.dag.policy_state
        if state is None:
            return
        state.frontier[task.task_id] = task.path_us
        if task.path_us > state.critical_path_us:
            state.critical_path_us = task.path_us
            state.computed_at = self.pool.engine._now

    def on_task_started(self, task: TaskInstance) -> None:
        state = task.dag.policy_state
        if state is not None:
            state.running += 1

    def on_task_finished(self, task: TaskInstance) -> None:
        # Online training step (Algorithm 2) plus incremental state update;
        # core allocation itself changes only at the 20 µs tick (§3).
        if self.predictor is not None:
            self.predictor.observe_task(task)
        dag = task.dag
        state = dag.policy_state
        if state is None:
            return
        state.running -= 1
        if dag.tasks_remaining == 0:
            dag.policy_state = None
            del self._states[dag.dag_id]
            return
        work = state.work_us - task.predicted_wcet_us
        state.work_us = work if work > 0.0 else 0.0
        frontier = state.frontier
        frontier.pop(task.task_id, None)
        # Successors enter the frontier via on_task_enqueued (the pool
        # enqueues them before this hook fires), so the max is current.
        # Direct engine-clock read: this hook fires once per completed
        # task, and the pool.now property chain showed up in profiles.
        state.critical_path_us = max(frontier.values()) if frontier else 0.0
        state.computed_at = self.pool.engine._now

    def on_tick(self, now: float) -> None:
        self._reschedule(now)

    # -- quiescent-gap tick batching (pool fast path) ------------------------------

    def idle_tick_bound(self, now: float) -> Optional[float]:
        """Certify upcoming ticks as no-ops while no DAG is active.

        With ``_states`` empty each tick computes zero demand, so the
        only thing that can change the decision is the release-hold
        window: the held maximum drops when its head entry ages out,
        ``release_hold_us`` after the head was recorded.  Ticks at
        ``t <= head_time + release_hold_us`` keep the current target;
        when the window holds no demand at all, every future tick is a
        no-op (bound = inf).  Ticks are only certified when the current
        target is already fully applied — otherwise the next tick's
        ``request_cores`` call is real work.
        """
        if self._states:
            return None
        pool = self.pool
        window = self._demand_window
        held = window[0][1] if window else 0
        target = held if held > self.min_standby_cores \
            else self.min_standby_cores
        if target > pool.num_cores:
            target = pool.num_cores
        if pool.target_cores != target or pool._reserved != target:
            return None
        if held <= 0:
            return math.inf
        return window[0][0] + self.release_hold_us

    def on_ticks_skipped(self, count: int, last_time: float) -> None:
        """Replay the window/telemetry effects of ``count`` no-op ticks.

        Each skipped tick would have run ``_held_demand(t, 0)``: pop
        the trailing zero entry, append ``(t, 0)``.  The net effect
        after the batch is the trailing zero re-stamped at the last
        skipped tick (no head entry can age out before ``last_time`` —
        that is exactly what :meth:`idle_tick_bound` bounds).  The
        scheduling-call counter is digest-relevant telemetry and must
        count skipped ticks as the calls they replace.
        """
        window = self._demand_window
        while window and window[-1][1] <= 0:
            window.pop()
        window.append((last_time, 0))
        self._scheduling_calls.value += count

    # -- array-timeline engine certification ---------------------------------------

    def array_certify(self) -> bool:
        """The array kernel may commit a slot when no DAG is in flight.

        The closed-form commit starts from an empty per-DAG registry;
        the demand window carries over exactly as it would across an
        event-mode boundary, and :meth:`vector_ready` checks it is in
        the shape the closed form assumes.
        """
        return not self._states

    # -- vectorized certified-slot kernel -------------------------------------------

    def vector_params(self) -> Optional[dict]:
        """Closed-form slot parameters (see SchedulerPolicy.vector_params).

        Only the predictor-less, zero-standby configuration qualifies:
        the ML predictor trains on every task completion (a side effect
        the closed form skips), and a standby floor changes the
        wake/yield trace away from the canonical wake-once/yield-once
        shape.  ``pin_tasks_to_wakeups`` is False for Concordia, but the
        guard keeps the contract explicit.
        """
        if (self.predictor is not None or self.min_standby_cores != 0
                or self.pin_tasks_to_wakeups):
            return None
        return {
            "tick_us": self.tick_interval_us,
            "release_hold_us": self.release_hold_us,
            "wakeup_overdue_us": self.wakeup_overdue_us,
            "wcet_margin": self.wcet_fallback_margin,
        }

    def vector_ready(self) -> bool:
        """True iff the scheduler is in the unique post-slot quiescent
        state the closed form starts from: no DAG registry entries and
        a demand window that is empty or a single trailing zero (what a
        fully drained slot — or a fresh run — leaves behind)."""
        if self._states:
            return False
        window = self._demand_window
        return not window or (len(window) == 1 and window[0][1] <= 0)

    def vector_commit(self, n_ticks: int, last_tick_us: float) -> None:
        """Net policy effect of one closed-form slot.

        The event path would have run ``on_slot_start`` once (one
        prediction pass + one reschedule) and ``n_ticks`` tick
        reschedules, ending — as proven by the kernel's gates — with
        every ratchet gone (states deleted at DAG completion) and the
        demand window reduced to the trailing zero stamped at the last
        tick.  The wall-clock counters are intentionally untouched:
        they are stripped from the digest and measure *actual* work.
        """
        self._prediction_calls.value += 1
        self._scheduling_calls.value += n_ticks + 1
        window = self._demand_window
        window.clear()
        window.append((last_tick_us, 0))

    # -- the scheduling decision ---------------------------------------------------

    def _reschedule(self, now: float, kind: str = "tick") -> None:
        pool = self.pool
        start = time.perf_counter()
        heavy_cores = 0
        light_utilization = 0.0
        critical = False
        tick_us = self.tick_interval_us
        ceil = math.ceil
        # This loop runs every 20 µs over every active DAG; branchy
        # if-comparisons replace max() calls and the heavy/light test
        # reads the cached util_ceil.  light_utilization MUST keep
        # accumulating in state-insertion order each tick: float
        # addition is order-sensitive, and a differently-ordered sum
        # could flip a ceil() at an ULP boundary — so the aggregates
        # are *recomputed* per tick (cheaply), not incrementalized.
        for state in self._states.values():
            path = state.critical_path_us
            if state.running > 0:
                path -= now - state.computed_at
                if path < 0.0:
                    path = 0.0
            work = state.work_us
            if work < path:
                work = path
            slack = state.deadline_us - now
            # Inline of core.federated.federated_core_demand (the
            # reference implementation and its rationale live there):
            # allocating a CoreDemand per DAG per 20 µs tick dominated
            # this loop's profile.
            if work != 0.0:
                if slack <= path + tick_us:
                    critical = True
                    break
                cores = ceil((work - path) / (slack - path))
                if cores > 1:
                    if cores > state.cores_ratchet:
                        state.cores_ratchet = cores
                else:
                    # Light DAG: sequentially feasible; packed by
                    # utilization.
                    util = work / (slack if slack > 1e-9 else 1e-9)
                    if util > state.util_ratchet:
                        state.util_ratchet = util
                        state.util_ceil = ceil(util)
            # A DAG holds ONE reservation: the larger of its ratchets.
            # Summing both double-counts a DAG that transitioned
            # heavy->light (the held dedicated cores already cover the
            # light phase), inflating reservations and under-reporting
            # reclaimed CPU in Fig. 8a.
            if state.cores_ratchet > state.util_ceil:
                heavy_cores += state.cores_ratchet
            else:
                light_utilization += state.util_ratchet
        if critical:
            target = pool.num_cores
            self._demand_window.clear()
            demand_cores = pool.num_cores
        else:
            demand_cores = heavy_cores + ceil(light_utilization)
            demand_cores = self._held_demand(now, demand_cores)
            # Compensate for signalled cores stuck in kernel sections
            # (skip the call outright when no worker is waking).
            overdue = pool.overdue_waking(self.wakeup_overdue_us) \
                if pool._waking else 0
            target = min(pool.num_cores,
                         max(demand_cores + overdue, self.min_standby_cores))
        self._scheduling_wall.value += time.perf_counter() - start
        self._scheduling_calls.value += 1
        bus = pool.event_bus
        if bus is not None and bus.enabled:
            bus.record(REC_TICK, now, kind, demand_cores, target,
                       len(self._states), critical)
        # request_cores(target) is a no-op when the target is unchanged
        # and fully applied — the steady state for most 20 µs ticks.
        if target != pool.target_cores or pool._reserved != target:
            pool.request_cores(target)

    def _held_demand(self, now: float, demand: int) -> int:
        """Max demand over the trailing release-hold window.

        Raising the reservation is immediate; lowering it waits until
        the higher demand has aged out of the window.  The window is a
        monotonic deque (entries dominated by a newer >= demand are
        dropped on insert), so the windowed max is ``window[0]`` in
        O(1) amortized instead of a scan per 20 µs tick.
        """
        window = self._demand_window
        while window and window[-1][1] <= demand:
            window.pop()
        window.append((now, demand))
        cutoff = now - self.release_hold_us
        while window[0][0] < cutoff:
            window.popleft()
        return window[0][1]

    # -- overhead reporting -------------------------------------------------------------

    @property
    def prediction_wall_s(self) -> float:
        return self._prediction_wall.value

    @property
    def prediction_calls(self) -> int:
        return self._prediction_calls.value

    @property
    def scheduling_wall_s(self) -> float:
        return self._scheduling_wall.value

    @property
    def scheduling_calls(self) -> int:
        return self._scheduling_calls.value

    @property
    def mean_prediction_us(self) -> float:
        """Mean wall-clock time of one per-slot prediction pass."""
        if self.prediction_calls == 0:
            return 0.0
        return self.prediction_wall_s / self.prediction_calls * 1e6

    @property
    def mean_scheduling_us(self) -> float:
        """Mean wall-clock time of one scheduling decision."""
        if self.scheduling_calls == 0:
            return 0.0
        return self.scheduling_wall_s / self.scheduling_calls * 1e6
