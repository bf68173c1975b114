"""Deadline-miss post-mortems: name the dominant cause of a late slot.

Automates the paper's §6.2 audit.  When a slot (DAG) misses — or merely
comes close to — its deadline, the recorded event stream contains
everything needed to apportion blame between the three failure modes
the paper discusses:

* **wakeup latency** — tasks sat ready while the cores signalled for
  them were stuck behind non-preemptible kernel sections (§2.3, the
  tail FlexRAN cannot contain);
* **WCET under-prediction** — tasks ran longer than the quantile-tree
  predicted, so the federated reservation was too small (§4);
* **queueing** — tasks waited behind work from other cells with every
  reserved core busy (the sharing cost of a consolidated pool).

The analyzer walks the missed DAG's task wait intervals (each task's
``task_done`` event carries its enqueue/start/finish times), overlaps
them with in-flight wakeups, and sums prediction overshoot on its
executed tasks.  The largest contribution names the dominant cause —
mirroring how the authors debugged FlexRAN's tail with per-task
timelines, which :func:`render_gantt` draws from the same events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .events import TaskEvent, WakeupEvent

__all__ = ["PostMortem", "analyze_miss", "render_gantt"]

#: Cause labels, in report order.
CAUSE_WAKEUP = "wakeup latency"
CAUSE_WCET = "wcet under-prediction"
CAUSE_QUEUEING = "queueing behind another cell"


@dataclass(frozen=True)
class PostMortem:
    """Apportioned lateness of one DAG (all figures in µs)."""

    dag_id: int
    cell: str
    release_us: float
    completion_us: float
    deadline_us: float
    wakeup_us: float
    underprediction_us: float
    queueing_us: float
    tasks: int

    @property
    def latency_us(self) -> float:
        return self.completion_us - self.release_us

    @property
    def missed(self) -> bool:
        return self.completion_us > self.deadline_us

    @property
    def tardiness_us(self) -> float:
        return max(0.0, self.completion_us - self.deadline_us)

    @property
    def contributions(self) -> dict:
        return {
            CAUSE_WAKEUP: self.wakeup_us,
            CAUSE_WCET: self.underprediction_us,
            CAUSE_QUEUEING: self.queueing_us,
        }

    @property
    def dominant_cause(self) -> str:
        return max(self.contributions.items(), key=lambda kv: kv[1])[0]

    def render(self) -> str:
        state = (f"MISSED by {self.tardiness_us:.0f} us"
                 if self.missed else "met")
        lines = [
            f"dag {self.dag_id} ({self.cell}): latency "
            f"{self.latency_us:.0f} us vs deadline "
            f"{self.deadline_us - self.release_us:.0f} us — {state}",
            f"  tasks analyzed: {self.tasks}",
        ]
        for cause, amount in sorted(self.contributions.items(),
                                    key=lambda kv: -kv[1]):
            marker = " <== dominant" if cause == self.dominant_cause \
                else ""
            lines.append(f"  {cause:<28s} {amount:9.1f} us{marker}")
        return "\n".join(lines)


def _interval_overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def analyze_miss(events: Iterable,
                 dag_id: Optional[int] = None) -> PostMortem:
    """Post-mortem of ``dag_id`` (default: the worst recorded DAG).

    "Worst" is the DAG with the largest completion-past-deadline (ties
    broken toward the largest latency), so on a run with no misses the
    analyzer still audits the closest call.
    """
    events = list(events)
    releases: dict = {}
    completions: dict = {}
    for event in events:
        if isinstance(event, TaskEvent):
            if event.kind == "dag_release":
                releases[event.dag_id] = event
            elif event.kind == "dag_complete":
                completions[event.dag_id] = event
    if not completions:
        raise ValueError("no completed DAGs in the event stream")

    if dag_id is None:
        def badness(item):
            dag, complete = item
            release = releases.get(dag)
            if release is None:
                return (float("-inf"), float("-inf"))
            return (complete.ts_us - complete.deadline_us,
                    complete.ts_us - release.ts_us)
        dag_id = max(completions.items(), key=badness)[0]
    if dag_id not in completions or dag_id not in releases:
        raise ValueError(f"dag {dag_id} not fully recorded")

    release = releases[dag_id]
    complete = completions[dag_id]
    span0, span1 = release.ts_us, complete.ts_us

    # In-flight wakeup windows overlapping the DAG's span: time during
    # which a signalled core had not yet come up.
    wakeup_windows = [
        (e.ts_us, e.ts_us + e.latency_us)
        for e in events
        if isinstance(e, WakeupEvent) and e.kind == "wakeup"
        and _interval_overlap(e.ts_us, e.ts_us + e.latency_us,
                              span0, span1) > 0.0
    ]

    wakeup_us = 0.0
    queueing_us = 0.0
    underprediction_us = 0.0
    tasks = 0
    for event in events:
        if not isinstance(event, TaskEvent) or event.dag_id != dag_id \
                or event.kind != "task_done":
            continue
        tasks += 1
        if event.predicted_us is not None:
            underprediction_us += max(
                0.0, event.runtime_us - event.predicted_us)
        wait0, wait1 = event.enqueue_us, event.start_us
        if wait1 <= wait0 or wait0 < 0.0:
            continue
        # Wait time covered by a wakeup in flight is the OS tail's
        # fault; the remainder is queueing behind other work.
        covered = 0.0
        for w0, w1 in wakeup_windows:
            covered += _interval_overlap(wait0, wait1, w0, w1)
        covered = min(covered, wait1 - wait0)
        wakeup_us += covered
        queueing_us += (wait1 - wait0) - covered

    # float() everywhere: event fields may carry numpy scalars, which
    # would make the report non-JSON-serializable.
    return PostMortem(
        dag_id=int(dag_id),
        cell=release.cell,
        release_us=float(span0),
        completion_us=float(span1),
        deadline_us=float(complete.deadline_us),
        wakeup_us=float(wakeup_us),
        underprediction_us=float(underprediction_us),
        queueing_us=float(queueing_us),
        tasks=tasks,
    )


def render_gantt(events: list, width: int = 72, title: str = "") -> str:
    """ASCII Gantt chart of one DAG's ``task_done`` events.

    Rows are tasks in start order; ``.`` marks queueing time (enqueue
    to start), ``#`` marks execution (start to the event's finish
    time ``ts_us``).
    """
    if not events:
        raise ValueError("nothing to render")
    t0 = min(e.enqueue_us for e in events)
    t1 = max(e.ts_us for e in events)
    span = max(t1 - t0, 1e-9)
    scale = (width - 1) / span
    lines = [title] if title else []
    lines.append(f"span {t0:.0f}-{t1:.0f} us ({span:.0f} us total)")
    label_width = max(len(e.task_type) for e in events)
    for event in sorted(events, key=lambda e: (e.start_us, e.ts_us)):
        row = [" "] * width
        q0 = int((event.enqueue_us - t0) * scale)
        s0 = int((event.start_us - t0) * scale)
        f0 = max(int((event.ts_us - t0) * scale), s0 + 1)
        for i in range(q0, min(s0, width)):
            row[i] = "."
        for i in range(s0, min(f0, width)):
            row[i] = "#"
        wait = event.start_us - event.enqueue_us
        lines.append(f"{event.task_type.ljust(label_width)} |"
                     f"{''.join(row)}| {event.runtime_us:6.1f} us"
                     + (f" (wait {wait:.1f})" if wait > 1.0 else ""))
    return "\n".join(lines)
