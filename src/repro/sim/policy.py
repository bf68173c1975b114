"""Scheduler-policy interface shared by Concordia and all baselines.

A policy observes pool events (slot releases, task enqueue/finish) and —
optionally — a periodic tick, and steers the pool by calling
``pool.request_cores(n)``.  The pool owns the mechanics (waking and
yielding workers, EDF dispatch); policies own the decision of *how many*
cores the vRAN holds at any instant.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ran.tasks import TaskInstance
    from .pool import VranPool

__all__ = ["SchedulerPolicy"]


class SchedulerPolicy(abc.ABC):
    """Base class for vRAN pool core-allocation policies."""

    #: Human-readable policy name used in reports.
    name: str = "abstract"

    #: Period of :meth:`on_tick`; None disables the tick.
    tick_interval_us: Optional[float] = None

    #: Whether the pool rotates which physical cores it prefers (§5).
    rotate_cores: bool = False

    #: Queue-affinity modelling (FlexRAN's per-worker priority queues,
    #: Fig. 2): when True, a task that arrives with no spinning worker
    #: available is bound to the worker woken for it and cannot be
    #: stolen by other workers.  A wakeup stuck behind a non-preemptible
    #: kernel section therefore stalls that task for the full latency —
    #: the §2.3 failure mode Concordia's 20 µs compensation avoids.
    pin_tasks_to_wakeups: bool = False

    def __init__(self) -> None:
        self.pool: Optional["VranPool"] = None

    def attach(self, pool: "VranPool") -> None:
        """Bind the policy to its pool; called once by the pool."""
        self.pool = pool

    # -- event hooks (default: no-op) ---------------------------------------

    def on_slot_start(self, dags: list, now: float) -> None:
        """Called at a slot boundary with the DAGs about to be released."""

    def on_task_enqueued(self, task: "TaskInstance") -> None:
        """Called after a task becomes ready and enters the EDF queue."""

    def on_task_started(self, task: "TaskInstance") -> None:
        """Called when a worker begins executing a task."""

    def on_task_finished(self, task: "TaskInstance") -> None:
        """Called after a task execution completes."""

    def on_tick(self, now: float) -> None:
        """Periodic hook, fired every :attr:`tick_interval_us`."""

    def idle_tick_bound(self, now: float) -> Optional[float]:
        """Latest time (inclusive) through which ticks are no-ops.

        Called by the pool's quiescent-gap fast-forward right after
        :meth:`on_tick`, only when the pool itself is provably idle.
        Return None (the default) to veto batching; returning a time T
        certifies that, absent any other event, every tick at
        ``now < t <= T`` would neither change core targets nor any
        other observable state.  Policies that opt in must also
        implement :meth:`on_ticks_skipped` to replay whatever
        accounting those ticks would have done.
        """
        return None

    def on_ticks_skipped(self, count: int, last_time: float) -> None:
        """Replay accounting for ``count`` batched no-op ticks.

        ``last_time`` is the time of the last skipped tick; the next
        live tick fires one period after it.
        """

    # -- vectorized certified-slot kernel ------------------------------------

    def vector_params(self) -> Optional[dict]:
        """Static parameters for the closed-form certified-slot kernel.

        Returning a dict of ``tick_us`` / ``release_hold_us`` /
        ``wakeup_overdue_us`` / ``wcet_margin`` certifies that, for a
        quiescent boundary this policy would certify anyway, the
        policy's entire per-slot behaviour is the canonical
        wake-once/serial-FIFO/yield-once trace the vectorized kernel
        computes in closed form (see repro.sim.arraykernel).  The
        default None keeps every slot on the event path.
        """
        return None

    def vector_ready(self) -> bool:
        """Per-boundary re-check that the policy state is in the unique
        quiescent configuration the closed form starts from."""
        return False

    def vector_commit(self, n_ticks: int, last_tick_us: float) -> None:
        """Apply one vectorized slot's net effect on policy state.

        ``n_ticks`` grid ticks fired inside the slot and the last one
        was at ``last_tick_us``; the policy replays exactly the counter
        and reclaim-window state the per-event path would have left.
        """

    # -- predictions -----------------------------------------------------------

    def wcet(self, task: "TaskInstance") -> float:
        """Predicted WCET used for pacing decisions.

        Policies without a predictor fall back to an inflated base cost;
        Concordia overrides this with its quantile-tree prediction.
        """
        if task.predicted_wcet_us is not None:
            return task.predicted_wcet_us
        return task.base_cost_us * 1.3
