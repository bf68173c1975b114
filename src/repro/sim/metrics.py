"""Measurement collectors shared by all experiments.

Tracks everything the paper's evaluation reports:

* per-slot (DAG) processing latencies and deadline outcomes (Fig. 4b,
  11, 12, 15b);
* reserved vs best-effort core-time integrals, i.e. reclaimed CPU
  (Fig. 8a, 13a);
* busy core-time for vRAN CPU-utilization numbers (Fig. 4a, Table 3);
* scheduling (wakeup) events and their latency histogram (Fig. 10);
* best-effort preemption counts used by the workload models.

Event counters and the wakeup-latency histogram live in a
:class:`repro.obs.registry.MetricsRegistry` so every simulation result
carries a JSON-able telemetry snapshot (``result.telemetry``) through
the ``repro.exec`` cache; the legacy attribute names remain as
properties over the registered instruments.

Wakeups and best-effort preemptions are *separate* counters: every
signalled core pays a wakeup latency, but a preemption is only
recorded (via :meth:`Metrics.on_preemption`) when a best-effort
occupant was actually displaced.  Counting every wakeup as a
preemption — as an earlier revision did — inflates the Fig. 8b–d
workload efficiency discount on pools with idle reclaimed cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.registry import MetricsRegistry

__all__ = ["Metrics", "LatencySummary", "SCHED_LATENCY_BUCKETS_US"]

#: Fig. 10's histogram bucket boundaries (µs).
SCHED_LATENCY_BUCKETS_US = (1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0, 255.0,
                            float("inf"))


@dataclass
class LatencySummary:
    """Percentile summary of slot-processing latencies."""

    count: int
    mean_us: float
    p50_us: float
    p99_us: float
    p9999_us: float
    p99999_us: float
    max_us: float
    deadline_us: float
    miss_fraction: float

    @property
    def meets_four_nines(self) -> bool:
        return self.p9999_us <= self.deadline_us

    @property
    def meets_five_nines(self) -> bool:
        return self.p99999_us <= self.deadline_us


class Metrics:
    """Accumulates simulation measurements; cheap enough for hot paths."""

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._initial_cores = num_cores
        #: ``(time_us, num_cores)`` steps recorded by elastic
        #: reconfiguration (``VranPool.add_worker``/``remove_worker``);
        #: empty for a fixed-capacity run.
        self._capacity_segments: list[tuple[float, int]] = []
        self.registry = MetricsRegistry()
        self.slot_latencies: list[float] = []
        # Core-time integrals (core-µs).
        self._reserved_cores = 0
        self._running_cores = 0
        self._last_change_us = 0.0
        self.reserved_core_time_us = 0.0
        self.busy_core_time_us = 0.0
        self.start_time_us = 0.0
        self.end_time_us = 0.0
        # Scheduling events.  The instruments are bound once here; hot
        # paths touch ``.value`` directly instead of looking up names.
        self._slots = self.registry.counter("slots/completed")
        self._misses = self.registry.counter("slots/missed")
        self._wakeups = self.registry.counter("sched/wakeups")
        self._yields = self.registry.counter("sched/yields")
        self._preemptions = self.registry.counter(
            "sched/best_effort_preemptions")
        self._wakeup_hist = self.registry.histogram(
            "sched/wakeup_latency_us", SCHED_LATENCY_BUCKETS_US)

    # -- core-time accounting -------------------------------------------------

    def _advance(self, now_us: float) -> None:
        dt = now_us - self._last_change_us
        if dt > 0:
            self.reserved_core_time_us += dt * self._reserved_cores
            self.busy_core_time_us += dt * self._running_cores
            self._last_change_us = now_us

    def on_reserved_change(self, now_us: float, reserved: int) -> None:
        """Called whenever the number of vRAN-held cores changes."""
        self._advance(now_us)
        self._reserved_cores = reserved

    def on_capacity_change(self, now_us: float, num_cores: int) -> None:
        """Called when the *physical* core count of the pool changes.

        Each change starts a new piece of ``total_core_time_us``'s
        piecewise integral.
        """
        self._advance(now_us)
        self._capacity_segments.append((now_us, num_cores))
        self.num_cores = num_cores

    def on_running_change(self, now_us: float, running: int) -> None:
        """Called whenever the number of cores executing tasks changes."""
        # Inline of _advance(): one call per task completion.
        dt = now_us - self._last_change_us
        if dt > 0:
            self.reserved_core_time_us += dt * self._reserved_cores
            self.busy_core_time_us += dt * self._running_cores
            self._last_change_us = now_us
        self._running_cores = running

    def finalize(self, now_us: float) -> None:
        self._advance(now_us)
        self.end_time_us = now_us

    # -- derived core-time metrics ---------------------------------------------

    @property
    def duration_us(self) -> float:
        """Measured span; falls back to the last accounting event when
        :meth:`finalize` has not been called yet."""
        end = max(self.end_time_us, self._last_change_us)
        return max(end - self.start_time_us, 1e-9)

    @property
    def total_core_time_us(self) -> float:
        # Piecewise integral over capacity steps; with none, any run of
        # positive length gets ``duration_us * num_cores`` to the bit
        # (``0.0 + x == x``).
        end = max(self.end_time_us, self._last_change_us)
        prev_t = self.start_time_us
        prev_n = self._initial_cores
        total = 0.0
        for t, n in self._capacity_segments:
            t = min(max(t, prev_t), end)
            total += (t - prev_t) * prev_n
            prev_t, prev_n = t, n
        if end > prev_t:
            total += (end - prev_t) * prev_n
        return max(total, 1e-9)

    @property
    def reclaimed_fraction(self) -> float:
        """Fraction of pool core-time made available to other workloads."""
        return 1.0 - self.reserved_core_time_us / self.total_core_time_us

    @property
    def best_effort_core_time_us(self) -> float:
        return self.total_core_time_us - self.reserved_core_time_us

    @property
    def vran_utilization(self) -> float:
        """Busy fraction of all pool core-time (Fig. 4a's CPU util)."""
        return self.busy_core_time_us / self.total_core_time_us

    @property
    def idle_fraction_upper_bound(self) -> float:
        """Ideal reclaimable fraction: every non-busy cycle recovered."""
        return 1.0 - self.busy_core_time_us / self.total_core_time_us

    # -- slot latencies -----------------------------------------------------------

    def on_slot_complete(self, latency_us: float, deadline_us: float) -> None:
        # Single-sample ingest is the batch API with one pair, so the
        # fallback (event) path and the vectorized kernel share one
        # clamping/overflow/miss code path.
        self.record_slot_batch((latency_us,), (deadline_us,))

    def record_slot_batch(self, latencies_us: list,
                          deadlines_us: list) -> None:
        """Bulk :meth:`on_slot_complete` for the array-timeline kernel.

        Order-preserving appends plus one counter update; equivalent to
        calling :meth:`on_slot_complete` once per pair.  Slot-latency
        recording is independent of the core-time integrals, so a
        kernel may defer and flush a slot's completions in one call.
        """
        self.slot_latencies.extend(latencies_us)
        self._slots.value += len(latencies_us)
        misses = 0
        for latency, deadline in zip(latencies_us, deadlines_us):
            if latency > deadline:
                misses += 1
        if misses:
            self._misses.value += misses

    @property
    def slot_count(self) -> int:
        return self._slots.value

    @property
    def slot_deadlines_missed(self) -> int:
        return self._misses.value

    def latency_summary(self, deadline_us: float) -> LatencySummary:
        if not self.slot_latencies:
            raise ValueError("no slot latencies recorded")
        arr = np.asarray(self.slot_latencies)
        return LatencySummary(
            count=len(arr),
            mean_us=float(arr.mean()),
            p50_us=float(np.percentile(arr, 50)),
            p99_us=float(np.percentile(arr, 99)),
            p9999_us=float(np.percentile(arr, 99.99)),
            p99999_us=float(np.percentile(arr, 99.999)),
            max_us=float(arr.max()),
            deadline_us=deadline_us,
            miss_fraction=self.slot_deadlines_missed / max(1, self.slot_count),
        )

    # -- scheduling events --------------------------------------------------------

    def on_wakeup(self, latency_us: float) -> None:
        """A yielded core was signalled; it comes up ``latency_us`` later.

        This is *not* a preemption: the woken core may have been idle.
        The pool reports :meth:`on_preemption` separately when a
        best-effort occupant was actually displaced.
        """
        self._wakeups.value += 1
        self._wakeup_hist.observe(latency_us)

    def record_wakeup_batch(self, latencies_us: list) -> None:
        """Bulk :meth:`on_wakeup` for the vectorized slot kernel.

        Byte-identical to calling :meth:`on_wakeup` once per latency:
        histogram bucket counts are exact integers (``searchsorted``
        with right-closed buckets replicates ``Histogram.observe``'s
        "first edge the value is below" scan), while ``sum`` and
        ``max`` are folded sequentially in list order because the
        histogram's running float sum is order-sensitive and lands in
        the digested telemetry snapshot.
        """
        if not latencies_us:
            return
        self._wakeups.value += len(latencies_us)
        hist = self._wakeup_hist
        arr = np.asarray(latencies_us)
        if np.isnan(arr).any():
            raise ValueError(f"histogram {hist.name}: NaN observation")
        idx = np.minimum(np.searchsorted(hist.edges, arr, side="right"),
                         len(hist.edges) - 1)
        counts = np.bincount(idx, minlength=len(hist.edges))
        for bucket, n in enumerate(counts.tolist()):
            if n:
                hist.counts[bucket] += n
        hist.count += len(latencies_us)
        total = hist.sum
        maximum = hist.max
        for value in latencies_us:
            total += value
            if value > maximum:
                maximum = value
        hist.sum = total
        hist.max = maximum

    def record_core_segments(self, now_us: float, reserved_dts: list,
                             busy_dts: list) -> None:
        """Deferred core-time integral segments from the slot kernel.

        The kernel computes a certified slot's reserve/run/yield
        timeline in closed form, so instead of stepping
        :meth:`on_reserved_change`/:meth:`on_running_change` through
        every transition it hands over the per-segment ``dt`` lists
        (one core held during each).  Sequential ``+=`` folds keep the
        float accumulation order of the event path; ``now_us`` is the
        yield timestamp of the final segment, from which live
        accounting resumes.  Only valid while the live reserved/running
        levels are zero — i.e. between certified slot boundaries —
        which certification guarantees.
        """
        reserved = self.reserved_core_time_us
        for dt in reserved_dts:
            reserved += dt
        self.reserved_core_time_us = reserved
        busy = self.busy_core_time_us
        for dt in busy_dts:
            busy += dt
        self.busy_core_time_us = busy
        if now_us > self._last_change_us:
            self._last_change_us = now_us

    def on_preemption(self) -> None:
        """A wakeup displaced an actual best-effort occupant."""
        self._preemptions.value += 1

    def on_yield(self) -> None:
        self._yields.value += 1

    @property
    def yield_events(self) -> int:
        return self._yields.value

    @property
    def best_effort_preemptions(self) -> int:
        return self._preemptions.value

    @property
    def scheduling_events(self) -> int:
        return self._wakeups.value + self._yields.value

    def wakeup_histogram(self) -> dict[str, int]:
        """Fig. 10-style histogram of wakeup latencies."""
        return self._wakeup_hist.labelled_counts()

    # -- telemetry snapshot -------------------------------------------------------

    def snapshot(self) -> dict:
        """Registry snapshot plus the core-time integral gauges.

        This is the ``telemetry`` dict attached to simulation results;
        it is pure JSON and survives the ``repro.exec`` cache.
        """
        self.registry.gauge("coretime/reserved_us").set(
            self.reserved_core_time_us)
        self.registry.gauge("coretime/busy_us").set(self.busy_core_time_us)
        self.registry.gauge("coretime/duration_us").set(self.duration_us)
        self.registry.gauge("coretime/num_cores").set(self.num_cores)
        return self.registry.as_dict()
