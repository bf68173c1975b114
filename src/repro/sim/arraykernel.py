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
  ``pool.release_slot`` and runs on the event heap, followed by
  :meth:`ArraySlotKernel.after_fallback_release`.

The runner arms the kernel wherever its static gates hold (no
best-effort workload, no reconfig timeline, a policy with
:meth:`SchedulerPolicy.vector_params`).  Results are byte-identical
to an all-event run: the closed form is
taken only where it provably equals the per-event trace, and every
other slot *is* the per-event trace.

Certification contract (all must hold, checked per slot at the
boundary; any failure sends that slot alone down the event path):

* the policy certifies (:meth:`SchedulerPolicy.array_certify`) — the
  Concordia scheduler does so iff no DAG state is in flight; policies
  with wakeup pinning never certify;
* the pool is quiescent: no active DAGs, ready tasks, pinned tasks or
  in-flight wakeups (which also rules out retiring workers);
* no side channels (:meth:`VranPool.side_channels_open`): no
  accelerator, task observer or enabled event bus — their hooks
  observe interior event order;
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
gates (:meth:`ArraySlotKernel.base_gate` and
:meth:`ArraySlotKernel.build_plan`) and per-boundary trace
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
arrival order), so commits and the event path stay byte-identical across
rotations that land inside a committed slot.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Optional

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
    :meth:`ArraySlotKernel.build_plan`, and only for a slot whose
    static vector gates held.  It carries the certification ceiling
    sum (checked against the boundary's makespan budget) and the
    closed-form schedule.
    """

    __slots__ = ("ceiling_sum", "runtimes", "completion",
                 "n_tasks", "release_us", "deadline_us")

    def __init__(self, release_us: float, deadline_us: float,
                 ceiling_sum: float, runtimes: list, completion: tuple,
                 n_tasks: int) -> None:
        self.release_us = release_us
        self.deadline_us = deadline_us
        self.ceiling_sum = ceiling_sum
        self.runtimes = runtimes
        self.completion = completion
        self.n_tasks = n_tasks


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
        pool quiescence and the horizon vary per boundary.  The window
        fill asks it before planning any slot: while any of these
        trips, the boundary would reject every slot anyway, so the
        fill builds every DAG in its window-batched build instead.
        """
        pool = self.pool
        return (not pool.side_channels_open()
                and pool.cache_model.pressure == 0.0)

    # -- slot plans (static topology/cost precompute) ----------------------

    def _vector_params(self) -> Optional[dict]:
        vp = self._vp
        if vp is None:
            vp = self._vp = self.pool.policy.vector_params()
        return vp

    def base_gate(self, bases, release_us: float, deadline_us: float,
                  slot_us: float) -> bool:
        """Static predicted-work gate of one slot, from base costs alone.

        ``bases`` iterates the slot's task base costs (any order: the
        sum is an ``fsum``).  The inflated predicted-work bound must
        keep the summed DAG utilization at most
        :data:`_VECTOR_UTIL_FRACTION` of the post-slot slack — the
        demand stays exactly one core — and leave more than a tick
        period of slack over the critical path, so no tick can enter
        the critical-stage escalation.  The window fill asks this before
        drawing a slot's stochastic multipliers, so a slot that can
        never commit costs no draws and no plan.
        """
        margin_slack = deadline_us - (release_us + slot_us)
        if margin_slack <= 0.0:
            return False
        vp = self._vector_params()
        bound = _PRED_SUM_INFLATION * vp["wcet_margin"] * math.fsum(bases)
        return (bound <= _VECTOR_UTIL_FRACTION * margin_slack
                and bound + vp["tick_us"] + _MAKESPAN_MARGIN_US
                < margin_slack)

    def _merged_order(self, key: tuple, topos: list) -> tuple:
        """(flat execution order, completion order) for one slot's DAGs.

        Simulates the pool's merged EDF queue for the certified case —
        uniform deadlines, a single serving core, entry tasks pushed
        dag-by-dag at release — over the per-kind topology templates
        ``topos``.  With equal deadlines the EDF key ``(deadline, seq)``
        reduces to FIFO by push sequence, so the order depends only on
        ``key``, the tuple of DAG kinds, and is cached on it.  Flat
        indices are dag-major in ``dag.tasks`` order; the completion
        order is each DAG's last execution position, ascending.
        """
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
        completion = tuple(sorted(last_pos))
        cached = (tuple(order), completion)
        self._order_cache[key] = cached
        return cached

    def build_plan(self, key: tuple, topos: list, bases: list,
                   mults: list, membound: list, release_us: float,
                   deadline_us: float,
                   slot_us: float) -> Optional[SlotPlan]:
        """One slot's certification fold and vector schedule, or None.

        Built from cost rows alone, at window-fill time, off the
        boundary hot path, for a slot that passed :meth:`base_gate`.
        ``bases``/``mults``/``membound`` are flat dag-major lists in
        ``dag.tasks`` order (``repro.ran.dag.plan_task_rows`` order) —
        exactly the values the slot's built tasks carry; ``key`` is the
        tuple of per-DAG kind keys and ``topos`` their topology
        templates.  Returns None unless every base cost is strictly
        positive (each Concordia DAG state keeps positive work) and the
        ceiling fold fits the makespan budget, which for a certified
        boundary depends only on the slot length.  The remaining
        conditions (certification gates, wakeup timing, tick-grid
        collisions) are per-boundary and are checked when the slot is
        offered for commit.
        """
        total = 0.0
        runtimes_flat: list[float] = []
        for base, mult, is_membound in zip(bases, mults, membound):
            if base <= 0.0:
                return None
            runtime = ceiling = base * mult
            if is_membound:
                ceiling *= _STALL_CEIL
            total += ceiling if ceiling > 0.3 else 0.3
            # Pressure-0 single-core runtime: base · stoch · 1.0 · 1.0,
            # clamped exactly like CostModel.sample_runtime.
            runtimes_flat.append(runtime if runtime > 0.3 else 0.3)
        if total > slot_us - _MAKESPAN_MARGIN_US - self._wake_bound_us:
            return None
        order, completion = self._merged_order(key, topos)
        return SlotPlan(release_us, deadline_us, total,
                        [runtimes_flat[i] for i in order], completion,
                        len(runtimes_flat))

    #: Old name of :meth:`build_plan`; ``bench/tracer.py`` still wraps it.
    build_plan_static = build_plan

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

    def try_vector(self, plan: SlotPlan) -> bool:
        """Commit a planned slot, whose DAGs were never built.

        A slot commits when the certification gates and the makespan
        budget hold at the boundary and :meth:`_vector_replay` accepts
        the per-boundary trace.  False means the caller must build the
        slot's DAGs and release them on the event path; a rejection
        changes nothing but the deferred metrics, which are flushed
        because the event path records live.
        """
        now = self.engine._now
        slot_end = now + self.sim._slot_us
        budget = self._gate_budget(now, slot_end)
        if (budget is not None and plan.ceiling_sum <= budget
                and self._vector_replay(plan, now, slot_end)):
            return True
        self.flush_pending()
        return False

    def replay(self, dags: list) -> None:
        """Prepare a built slot's event-path release.

        Called from the slot-boundary callback with the boundary's
        DAGs, before ``release_slot``: the event path records metrics
        live, so the deferred ones are flushed first.  The name
        predates this role; ``bench/tracer.py`` still times it.
        """
        self.flush_pending()

    # -- the closed-form commit --------------------------------------------

    def _vector_replay(self, plan: SlotPlan, now: float,
                       slot_end: float) -> bool:
        """Commit one certified slot in closed form; False to fall back.

        Preconditions (established by the caller): the structural
        certification gates hold and the slot has a plan.  This method
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
        if plan.release_us != now:
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
        # DAG completions in last-finish order — the order the
        # per-event path observes them.
        lat = self._pend_lat
        dls = self._pend_dl
        deadline_lat = plan.deadline_us - now
        for pos in plan.completion:
            lat.append(finishes[pos] - now)
            dls.append(deadline_lat)
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
