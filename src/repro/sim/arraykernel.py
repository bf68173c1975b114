"""Array-timeline engine: certified slots committed in closed form.

The event engine spends most of a light slot on heap traffic: every
task completion, wakeup and 20 µs scheduler tick is a push/pop on the
global event heap even though, for most light slots, nothing outside
the pool can observe the slot's interior.  At each slot boundary,
before ``release_slot``, this kernel sends the slot one of two ways:

* **closed-form vector commit** — the slot is certified (contract
  below) and its event-path trace is provably the canonical
  wake-once / serial-FIFO / yield-once shape, so the kernel derives
  that trace arithmetically from the slot's :class:`SlotPlan` and
  applies its net effect through the same model objects (policy
  counters, OS-model draw, cache churn events, availability listener,
  metrics) at the same simulated times, without touching the heap;
* **event path** — every other slot is released through
  ``pool.release_slot`` and runs on the event heap exactly as in event
  mode, followed by :meth:`ArraySlotKernel.after_fallback_release`.

Results are byte-identical to the event engine: the closed form is
taken only where it provably equals the per-event trace, and every
other slot *is* the per-event trace.

Certification contract (all must hold, checked per slot at the
boundary; any failure sends that slot alone down the event path):

* the policy certifies (:meth:`SchedulerPolicy.array_certify`) — the
  Concordia scheduler does so iff no DAG state is in flight; policies
  with wakeup pinning never certify;
* the pool is quiescent: no active DAGs, ready tasks, pinned tasks or
  in-flight wakeups (which also rules out retiring workers);
* no side channels: no accelerator, task observer, per-task recording
  or enabled event bus — their hooks observe interior event order;
* the workload host is passive (zero cache pressure; the runner
  additionally gates on ``workload == "none"`` so no host-scheduled
  engine events can interleave with the committed interior);
* the engine's ``run_until`` horizon covers the whole slot — a commit
  must never apply effects past a horizon the engine is not enforcing;
* the worst-case makespan fits in the slot: one maximal wakeup latency
  plus the sum over released tasks of the pressure-0 runtime ceiling
  ``max(0.3, base_cost · stoch_mult · 1.25)`` must not reach the next
  boundary.  EDF dispatch is work-conserving, so after the (at most
  one) initial wakeup window some core is busy until the last finish;
  the serialized sum therefore bounds the makespan for any worker
  count.

On top of the contract the closed form needs the slot plan's static
gates (:meth:`ArraySlotKernel.build_plan`) and per-boundary trace
checks (:meth:`ArraySlotKernel._vector_replay`): the wakeup must not go
overdue, no tick may collide with a timer firing, and the release hold
must end inside the slot.

The scheduler tick is the one piece of state the two paths hand over.
A commit walks the slot's 20 µs tick grid arithmetically and re-parks
the recurring tick entry at the grid's next position.  A tick falling
exactly on the next boundary must fire *after* that boundary's
callback, which is what the event engine does; the 1 ms and 500 µs
slots are whole multiples of the grid, so this happens at every
boundary.  The kernel therefore parks the entry one period later and
accounts the boundary tick first thing next slot: inside the next
commit's grid or, if that slot takes the event path, by firing
``policy.on_tick`` right after ``release_slot`` and refreshing the
entry's sequence to match the event engine's re-key order.

Core rotation entries stay in the real heap and fire after the commit
returns; rotation only permutes the worker preference order, and no
digest-relevant observable depends on worker identity (runtimes depend
on the running *count*, wakeup latencies come from a shared stream in
arrival order), so commits and event mode stay byte-identical across
rotations that land inside a committed slot.
"""

from __future__ import annotations

import math
import time
from heapq import heappop, heappush
from typing import Optional

from ..ran.dag import topology_for_kind

__all__ = ["ArraySlotKernel", "SlotPlan"]

#: Certified slots must stay far from the boundary where the summed
#: per-DAG utilization could round ``ceil`` up past one core: the
#: vectorized closed form assumes the Concordia demand is exactly one
#: core while any DAG is alive.  0.45 of the post-slot slack leaves a
#: >2x cushion on top of the explicit fsum inflation below.
_VECTOR_UTIL_FRACTION = 0.45

#: Relative inflation applied to the fsum of predicted work so the
#: bound provably dominates the scheduler's left-folded sums at any
#: summation order (fsum is correctly rounded; the fold's error is
#: well below 1e-7 relative at these magnitudes).
_PRED_SUM_INFLATION = 1.0000001

#: Safety margin (µs) on the makespan pre-check: completion times are
#: accumulated as ``now + delay`` per event, so a bound that only just
#: fits could differ from the serialized sum by rounding.  One whole
#: microsecond dwarfs any float error at slot magnitudes.
_MAKESPAN_MARGIN_US = 1.0

#: Upper bound of the multi-core memory-stall penalty
#: (``repro.ran.tasks._MAX_CORE_PENALTY``) applied in the makespan
#: pre-check regardless of how many cores end up active.
_STALL_CEIL = 1.25


class SlotPlan:
    """Static per-slot precompute for the closed-form commit.

    Built off the boundary hot path (at window-fill time) by
    :meth:`ArraySlotKernel.build_plan` or
    :meth:`ArraySlotKernel.build_plan_static`.  Only a plan whose
    static vector gates held has ``ok`` set; it then carries the
    certification ceiling sum (checked against the boundary's makespan
    budget) and the closed-form schedule.
    """

    __slots__ = ("ok", "ceiling_sum", "runtimes", "completion",
                 "n_tasks", "release_us", "deadline_us")

    def __init__(self, release_us: float, deadline_us: float) -> None:
        self.release_us = release_us
        self.deadline_us = deadline_us
        self.ok = False
        self.ceiling_sum = None
        self.runtimes = None
        self.completion = None
        self.n_tasks = 0


class ArraySlotKernel:
    """Commits certified slots in closed form for one ``Simulation``."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.engine = sim.engine
        self.pool = sim.pool
        #: A scheduler tick coincides with the next slot boundary; the
        #: event engine fires it right *after* the boundary callback,
        #: so the kernel accounts it at the top of the next slot.
        self._pending_boundary_tick = False
        # max_latency_us recomputes a bucket max per call; the isolated
        # mixture is fixed for the pool's lifetime.
        self._wake_bound_us = sim.pool.os_model.max_latency_us(False)
        #: Wall-clock phase accounting for ``repro bench --profile``:
        #: committed slots, and slots rejected to the event path.
        self.vector_wall_s = 0.0
        self.gate_wall_s = 0.0
        # Cached SchedulerPolicy.vector_params() (constant per policy).
        self._vp: Optional[dict] = None
        # tuple(kind_key per dag) -> (exec order, completion order).
        self._order_cache: dict = {}
        # Deferred metrics from committed slots: flushed (in original
        # chronological order) before the event path can make a live
        # metrics call, and at end of run.
        self._pend_wakeups: list = []
        self._pend_lat: list = []
        self._pend_dl: list = []
        self._pend_res: list = []
        self._pend_busy: list = []
        self._pend_core_now = 0.0

    # -- certification -----------------------------------------------------

    def _gate_budget(self, now: float, slot_end: float) -> Optional[float]:
        """Certification gates; the makespan runtime budget or None.

        Everything from the module-docstring contract except the
        per-task ceiling fold, whose precomputed :class:`SlotPlan` sum
        the caller checks against the returned budget.
        """
        pool = self.pool
        if not pool.policy.array_certify():
            return None
        if pool.active_dags or pool._ready or pool._waking or pool._pinned:
            return None
        if not self.lazy_ok() or self.engine._run_end < slot_end:
            return None
        # Worst-case makespan: one wakeup window plus the serialized
        # pressure-0 runtime ceilings (see module docstring).
        return slot_end - now - _MAKESPAN_MARGIN_US - self._wake_bound_us

    def lazy_ok(self) -> bool:
        """Whether the side-channel gates are open.

        The stable part of :meth:`_gate_budget`; policy certification,
        pool quiescence and the horizon vary per boundary.  Window fill
        asks it before deferring DAG materialization: while any of
        these trips, the boundary would reject every slot anyway and
        lazily planned slots would each pay a per-slot materialization
        instead of the window-batched build.
        """
        pool = self.pool
        if pool.accelerator is not None or pool.task_observer is not None:
            return False
        if pool.metrics.record_tasks:
            return False
        bus = pool.event_bus
        if bus is not None and bus.enabled:
            return False
        return pool.cache_model.pressure == 0.0

    # -- slot plans (static topology/cost precompute) ----------------------

    def _vector_params(self) -> Optional[dict]:
        vp = self._vp
        if vp is None:
            vp = self._vp = self.pool.policy.vector_params()
        return vp

    def _merged_order(self, dags: list) -> tuple:
        """(flat execution order, completion order) for one slot's DAGs.

        Simulates the pool's merged EDF queue for the certified case —
        uniform deadlines, a single serving core, entry tasks pushed
        dag-by-dag at release — over the per-kind topology templates.
        With equal deadlines the EDF key ``(deadline, seq)`` reduces to
        FIFO by push sequence, so the order depends only on the tuple
        of DAG kinds and is cached on it.  Flat indices are dag-major
        in ``dag.tasks`` order; the completion order is sorted
        ``(last execution position, dag index)`` pairs.
        """
        key = tuple(dag.kind_key for dag in dags)
        cached = self._order_cache.get(key)
        if cached is not None:
            return cached
        return self._merged_order_for(
            key, [topology_for_kind(dag) for dag in dags])

    def _merged_order_for(self, key: tuple, topos: list) -> tuple:
        """:meth:`_merged_order` body, from topology templates alone."""
        cached = self._order_cache.get(key)
        if cached is not None:
            return cached
        offsets = []
        owner: list[int] = []
        preds: list[int] = []
        succs: list[tuple] = []
        total = 0
        for di, topo in enumerate(topos):
            offsets.append(total)
            owner.extend([di] * topo.num_tasks)
            preds.extend(topo.pred_counts)
            for successor_ids in topo.successors:
                succs.append(tuple(total + s for s in successor_ids))
            total += topo.num_tasks
        # Push entry tasks exactly as release_slot would: dag order,
        # then per-dag entry order, consuming one sequence number each.
        heap: list[tuple] = []
        seq = 0
        for di, topo in enumerate(topos):
            base = offsets[di]
            for i in topo.entry_indices:
                heappush(heap, (seq, base + i))
                seq += 1
        order: list[int] = []
        while heap:
            _, flat = heappop(heap)
            order.append(flat)
            for fs in succs[flat]:
                preds[fs] -= 1
                if preds[fs] == 0:
                    heappush(heap, (seq, fs))
                    seq += 1
        last_pos = [0] * len(topos)
        for pos, flat in enumerate(order):
            last_pos[owner[flat]] = pos
        completion = tuple(sorted(
            (last_pos[di], di) for di in range(len(topos))))
        cached = (tuple(order), completion)
        self._order_cache[key] = cached
        return cached

    def build_plan(self, dags: list, release_us: float,
                   deadline_us: float, slot_us: float) -> "SlotPlan":
        """Precompute one slot's certification fold and vector schedule.

        Called by the runner at window-fill time, off the boundary hot
        path.  ``plan.ok`` is True only when the static vector gates
        hold:

        * every DAG is kind-keyed with the slot's uniform release and
          deadline and strictly positive base costs (so EDF reduces to
          FIFO and each Concordia DAG state keeps positive work);
        * the inflated predicted-work bound keeps the summed DAG
          utilization at most :data:`_VECTOR_UTIL_FRACTION` of the
          post-slot slack — the demand stays exactly one core — and
          leaves more than a tick period of slack over the critical
          path, so no tick can enter the critical-stage escalation.

        The remaining conditions (certification gates, makespan budget,
        wakeup timing, tick-grid collisions) are per-boundary and are
        checked when the slot is offered for commit.
        """
        plan = SlotPlan(release_us, deadline_us)
        total = 0.0
        runtimes_flat: list[float] = []
        bases: list[float] = []
        for dag in dags:
            if (dag.kind_key is None or dag.release_us != release_us
                    or dag.deadline_us != deadline_us):
                return plan
            for task in dag.tasks:
                mult = task.stoch_mult
                if mult is None:
                    return plan  # presampling disabled: never certified
                base = task.base_cost_us
                if base <= 0.0:
                    return plan
                runtime = ceiling = base * mult
                if task.memory_bound:
                    ceiling *= _STALL_CEIL
                total += ceiling if ceiling > 0.3 else 0.3
                # Pressure-0 single-core runtime: base · stoch · 1.0 ·
                # 1.0, clamped exactly like CostModel.sample_runtime.
                runtimes_flat.append(runtime if runtime > 0.3 else 0.3)
                bases.append(base)
        return self._finish_plan(plan, total, runtimes_flat, bases,
                                 slot_us, math.inf,
                                 lambda: self._merged_order(dags))

    def build_plan_static(self, key: tuple, topos: list, bases: list,
                          mults: list, membound: list, release_us: float,
                          deadline_us: float,
                          slot_us: float) -> "SlotPlan":
        """Build a slot plan from cost rows alone — no DAG objects.

        ``bases``/``mults``/``membound`` are flat dag-major lists in
        ``dag.tasks`` order (``repro.ran.dag.plan_task_rows`` order);
        ``key`` is the tuple of per-DAG kind keys and ``topos`` their
        registered topology templates.  Applies the same gates and
        folds as :meth:`build_plan` — bit-identical, since the inputs
        equal what the built tasks would carry — plus a static budget
        pre-check (for a certified window the boundary budget depends
        only on the slot length), so a plan that comes back ``ok``
        almost never forces its DAGs to be materialized at the
        boundary.
        """
        plan = SlotPlan(release_us, deadline_us)
        total = 0.0
        runtimes_flat: list[float] = []
        for base, mult, is_membound in zip(bases, mults, membound):
            if base <= 0.0:
                return plan
            runtime = ceiling = base * mult
            if is_membound:
                ceiling *= _STALL_CEIL
            total += ceiling if ceiling > 0.3 else 0.3
            runtimes_flat.append(runtime if runtime > 0.3 else 0.3)
        # The boundary budget would (modulo float dust) reject a larger
        # ceiling sum; keep such a slot on the materialized path.
        budget = slot_us - _MAKESPAN_MARGIN_US - self._wake_bound_us
        return self._finish_plan(plan, total, runtimes_flat, bases,
                                 slot_us, budget,
                                 lambda: self._merged_order_for(key, topos))

    def _finish_plan(self, plan: SlotPlan, total: float,
                     runtimes_flat: list, bases: list, slot_us: float,
                     budget: float, merged_order) -> SlotPlan:
        """Shared gate/order tail of :meth:`build_plan` and its static twin.

        ``total`` is the slot's ceiling fold, ``runtimes_flat`` and
        ``bases`` its per-task pressure-0 runtimes and base costs
        (dag-major, ``dag.tasks`` order).  A fold above ``budget``
        keeps the plan off the closed form; ``merged_order()`` yields
        the slot's (execution, completion) order once every gate held.
        """
        if total > budget:
            return plan
        vp = self._vector_params()
        if vp is None:
            return plan
        margin_slack = plan.deadline_us - (plan.release_us + slot_us)
        if margin_slack <= 0.0:
            return plan
        bound = (_PRED_SUM_INFLATION * vp["wcet_margin"]
                 * math.fsum(bases))
        if bound > _VECTOR_UTIL_FRACTION * margin_slack:
            return plan
        if bound + vp["tick_us"] + _MAKESPAN_MARGIN_US >= margin_slack:
            return plan
        order, completion = merged_order()
        plan.ceiling_sum = total
        plan.runtimes = [runtimes_flat[i] for i in order]
        plan.completion = completion
        plan.n_tasks = len(runtimes_flat)
        plan.ok = True
        return plan

    # -- deferred metrics --------------------------------------------------

    def flush_pending(self) -> None:
        """Apply metrics deferred by committed slots.

        Wakeup latencies, slot completions and core-time segments are
        buffered across consecutive committed slots and folded into
        the metrics accumulators in their original chronological order.
        Each accumulator is independent, so batching per accumulator
        preserves byte identity; the buffers only ever span committed
        slots (a slot rejected to the event path flushes first, and the
        runner flushes before finalize/detach/attach).
        """
        metrics = self.pool.metrics
        wakeups = self._pend_wakeups
        if wakeups:
            metrics.record_wakeup_batch(wakeups)
            self._pend_wakeups = []
        latencies = self._pend_lat
        if latencies:
            metrics.record_slot_batch(latencies, self._pend_dl)
            self._pend_lat = []
            self._pend_dl = []
        reserved = self._pend_res
        if reserved:
            metrics.record_core_segments(
                self._pend_core_now, reserved, self._pend_busy)
            self._pend_res = []
            self._pend_busy = []

    # -- the slot decision -------------------------------------------------

    def try_vector(self, plan: Optional[SlotPlan]) -> bool:
        """Commit a lazily planned slot, whose DAGs were never built.

        Called from the boundary for slots the window fill left
        unmaterialized.  False means the caller must materialize the
        slot's DAGs (a counter-keyed rebuild, byte-identical to having
        built them at fill time) and release them on the event path.
        """
        return self._commit(None, plan)

    def replay(self, dags: list,
               plan: Optional[SlotPlan] = None) -> bool:
        """Commit a materialized slot; False means "run the event path".

        Called from the slot-boundary callback with the boundary's
        DAGs, before ``release_slot``.  On True the slot is fully
        processed (release, execution, ticks, completions) and the
        engine clock is still at the boundary time.
        """
        return self._commit(dags, plan)

    def _commit(self, dags: Optional[list],
                plan: Optional[SlotPlan]) -> bool:
        """Certify and vector-commit one slot, or prepare the fallback.

        A slot commits only with a plan whose static gates held, when
        the certification gates and the makespan budget hold at the
        boundary and :meth:`_vector_replay` accepts the per-boundary
        trace.  A rejection changes nothing but the deferred metrics,
        which are flushed because the event path records live.
        """
        wall_start = time.perf_counter()
        if plan is not None and plan.ok:
            now = self.engine._now
            slot_end = now + self.sim._slot_us
            budget = self._gate_budget(now, slot_end)
            if (budget is not None and plan.ceiling_sum <= budget
                    and self._vector_replay(dags, plan, now, slot_end)):
                self.vector_wall_s += time.perf_counter() - wall_start
                return True
        self.flush_pending()
        self.gate_wall_s += time.perf_counter() - wall_start
        return False

    # -- the closed-form commit --------------------------------------------

    def _vector_replay(self, dags: Optional[list], plan: SlotPlan,
                       now: float, slot_end: float) -> bool:
        """Commit one certified slot in closed form; False to fall back.

        Preconditions (established by the caller): the structural
        certification gates hold and ``plan.ok`` is True.  This method
        re-checks everything that can vary per boundary, derives the
        unique trace the per-event path would produce — wake at
        ``now + L``, serial FIFO execution on one core, yield at the
        first tick past the release hold — and applies its net effect
        through the same model objects (policy counters and reclaim
        window via :meth:`SchedulerPolicy.vector_commit`, churn EWMA
        events, OS-model draw, listener callbacks) at the same
        simulated times.  Latency/core-time metrics are deferred to the
        pending buffers.  Any condition whose event-path outcome is not
        provably the closed form (an overdue wakeup, a tick colliding
        with a timer firing, a release hold crossing the boundary)
        rejects, and the slot takes the event path instead.
        """
        pool = self.pool
        policy = pool.policy
        engine = self.engine
        # Quiescent start: no cores held over from a previous slot
        # (an event-path slot's release hold can cross the boundary).
        if pool._reserved or pool.target_cores:
            return False
        if not policy.vector_ready():
            return False
        tick_event = pool._tick_event
        if tick_event is None:
            return False
        vp = self._vector_params()
        if vp is None:
            return False
        if plan.release_us != now:
            return False
        if dags is not None:
            # Re-checked dynamically: predictor warmup can inflate
            # WCETs after the window (and its plans) were built.  A
            # lazily planned slot (dags None) never saw warmup — the
            # runner materializes the whole window while warmup holds.
            for dag in dags:
                if dag.wcet_inflation != 1.0:
                    return False
        # Wakeup: peek the latency the (single) _wake would draw, then
        # the serial FIFO finish fold — one spinning core, each task
        # starts the instant its predecessor run finishes, so the fold
        # is the exact per-event `now + delay` accumulation.
        os_model = pool.os_model
        latency = os_model.peek(False)
        t_awake = now + latency
        finishes: list[float] = []
        f = t_awake
        for runtime in plan.runtimes:
            f += runtime
            finishes.append(f)
        c_max = f
        # One pass over the slot's tick grid (accumulated exactly like
        # the recurring engine entry: start + k·period as a running
        # float sum), checking every per-tick condition in order:
        # * a tick while the wakeup is in flight must not trip the
        #   overdue escalation, and no tick may collide with the wakeup
        #   or a task-finish timer firing time (the closed form does
        #   not model those tie-breaks);
        # * Concordia's reclaim window holds one core for
        #   release_hold_us past the last demand-1 tick (the last grid
        #   tick before c_max, or the release itself); the yield must
        #   land inside this slot, else the state crosses the boundary.
        period = vp["tick_us"]
        overdue_limit = now + vp["wakeup_overdue_us"]
        hold_us = vp["release_hold_us"]
        if self._pending_boundary_tick:
            t = now  # deferred boundary tick fires first
        else:
            t = tick_event.time
        n_grid = 0
        last_tick = t
        t_head = now
        t_yield = None
        fi = 0
        n_finish = len(finishes)
        while t < slot_end:
            n_grid += 1
            last_tick = t
            if t < t_awake:
                if t > overdue_limit:
                    return False
            else:
                if t == t_awake:
                    return False
                # finishes is ascending: advance the merge pointer to
                # the first finish >= t; equality is a collision (this
                # also covers a tick landing exactly on c_max).
                while fi < n_finish and finishes[fi] < t:
                    fi += 1
                if fi < n_finish and finishes[fi] == t:
                    return False
                if t < c_max:
                    t_head = t
                elif t_yield is None and t_head < t - hold_us:
                    t_yield = t
                    # Every remaining condition is settled; the rest of
                    # the grid only advances the running float sum (the
                    # re-park position must accumulate exactly like the
                    # recurring engine entry).
                    t += period
                    while t < slot_end:
                        n_grid += 1
                        last_tick = t
                        t += period
                    break
            t += period
        if not n_grid or t_yield is None:
            return False
        # ---- commit: apply the trace's net effect --------------------
        metrics = pool.metrics
        cache = pool.cache_model
        # _wake at the boundary: consume the peeked OS-latency draw,
        # sample occupancy-preemption, record the churn event, notify
        # the availability listener with one core gone.
        self._pend_wakeups.append(os_model.sample(False))
        occupancy = pool._occupancy_provider
        if occupancy is not None and occupancy():
            metrics.on_preemption()
        cache.record_scheduling_event(now)
        listener = pool._available_listener
        if listener is not None:
            listener(now, pool.num_cores - 1)
        # DAG completions in (last finish position, dag index) order —
        # the order the per-event path observes them.
        recycler = pool.dag_recycler if dags is not None else None
        lat = self._pend_lat
        dls = self._pend_dl
        deadline_lat = plan.deadline_us - now
        for pos, di in plan.completion:
            lat.append(finishes[pos] - now)
            dls.append(deadline_lat)
            if recycler is not None:
                recycler(dags[di])
        # Core-time segments: reserved from wake to yield, busy while a
        # task runs.  The first busy segment starts at t_awake (the
        # pre-wake reserved span is charged at running-change with the
        # old count of zero).
        res = self._pend_res
        busy = self._pend_busy
        res.append(t_awake - now)
        prev = t_awake
        for fi in finishes:
            dt = fi - prev
            res.append(dt)
            busy.append(dt)
            prev = fi
        res.append(t_yield - prev)
        self._pend_core_now = t_yield
        # _yield at the yield tick.
        metrics.on_yield()
        cache.record_scheduling_event(t_yield)
        if listener is not None:
            listener(t_yield, pool.num_cores)
        # One zero-pressure interference sample per task dispatch.
        cache.record_neutral_samples(plan.n_tasks)
        # Policy net effect: per-tick/per-release counters plus the
        # final reclaim-window state.
        policy.vector_commit(n_grid, last_tick)
        # Re-park the recurring tick entry at the grid's next position.
        # A position exactly on the next boundary must fire *after*
        # that boundary's callback, which a fresh entry (sequence
        # assigned now, before the boundary entry's re-key) cannot do —
        # park it one period later and account the boundary tick at the
        # top of the next slot instead.  The final slot has no next
        # boundary (the runner cancelled the slot event and set quiet =
        # inf), so the entry parks on the boundary position itself.
        tick_event.cancel()
        self._pending_boundary_tick = False
        if t == slot_end and not math.isinf(pool._quiet_until):
            self._pending_boundary_tick = True
            t += period
        pool._tick_event = engine.schedule_every(
            period, pool._tick, start=t)
        self.sim.kernel_stats["vector_slots"] += 1
        return True

    def after_fallback_release(self) -> None:
        """Fire a deferred boundary tick on the event path.

        When a slot takes the event path with a boundary-coincident
        tick parked by the previous commit, the event engine would have
        fired that tick immediately after the boundary callback: same
        time, DAGs just released.  ``VranPool._tick`` reduces to
        ``policy.on_tick`` there (the pool is never quiescent right
        after a release), so fire that, then refresh the recurring
        entry's sequence number — the event engine re-keys *after* the
        boundary's arms, so the parked entry's stale (older) sequence
        would tie-break wrongly against timers armed this boundary.
        """
        if not self._pending_boundary_tick:
            return
        self._pending_boundary_tick = False
        pool = self.pool
        engine = self.engine
        policy = pool.policy
        policy.on_tick(engine._now)
        tick_event = pool._tick_event
        if tick_event is not None:
            next_time = tick_event.time
            tick_event.cancel()
            pool._tick_event = engine.schedule_every(
                policy.tick_interval_us, pool._tick, start=next_time)
