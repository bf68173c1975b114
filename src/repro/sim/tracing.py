"""Execution tracing: per-task timelines for debugging and analysis.

Attach a :class:`TraceRecorder` to a simulation to capture every task's
(enqueue, start, finish) triple plus scheduling events, then render an
ASCII Gantt chart of a slot or export the trace as JSON/CSV.  Used by
the deep-dive debugging workflow (why did *this* slot miss its
deadline?) that mirrors how the paper's authors audited FlexRAN.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import Optional

__all__ = ["TaskTrace", "TraceRecorder", "render_gantt"]


@dataclass(frozen=True)
class TaskTrace:
    """One task execution record."""

    dag_id: int
    cell: str
    task_type: str
    enqueue_us: float
    start_us: float
    finish_us: float
    runtime_us: float
    predicted_wcet_us: Optional[float]
    uplink: bool
    slot_index: int

    @property
    def wait_us(self) -> float:
        return self.start_us - self.enqueue_us


class TraceRecorder:
    """Collects task traces from a pool via its ``task_observers`` hook."""

    def __init__(self, capacity: int = 200_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.tasks: list[TaskTrace] = []
        self.dropped = 0
        self._attached_pool = None

    def attach(self, simulation) -> "TraceRecorder":
        """Append to a Simulation's pool observers (keeps any existing).

        Idempotent: attaching twice to the same simulation is a no-op
        (an earlier revision double-recorded every task).  Attaching to
        a different simulation detaches from the old one first.
        """
        pool = simulation.pool
        if self._attached_pool is pool:
            return self
        self.detach()
        pool.task_observers.append(self.record)
        self._attached_pool = pool
        return self

    def detach(self) -> None:
        """Stop recording, in any order; no-op if detached."""
        pool = self._attached_pool
        if pool is None:
            return
        pool.task_observers.remove(self.record)
        self._attached_pool = None

    def record(self, task) -> None:
        if len(self.tasks) >= self.capacity:
            self.dropped += 1
            return
        self.tasks.append(TaskTrace(
            dag_id=task.dag.dag_id,
            cell=task.cell_name,
            task_type=task.task_type.value,
            enqueue_us=task.enqueue_time,
            start_us=task.start_time,
            finish_us=task.finish_time,
            runtime_us=task.runtime_us,
            predicted_wcet_us=task.predicted_wcet_us,
            uplink=task.dag.uplink,
            slot_index=task.dag.slot_index,
        ))

    # -- queries -------------------------------------------------------------

    def for_dag(self, dag_id: int) -> list:
        return [t for t in self.tasks if t.dag_id == dag_id]

    def slowest_dags(self, top: int = 5) -> list:
        """DAG ids ranked by completion span (release→finish proxy)."""
        spans: dict[int, list[float]] = {}
        for trace in self.tasks:
            bucket = spans.setdefault(trace.dag_id, [float("inf"), 0.0])
            bucket[0] = min(bucket[0], trace.enqueue_us)
            bucket[1] = max(bucket[1], trace.finish_us)
        ranked = sorted(spans.items(), key=lambda kv: kv[1][1] - kv[1][0],
                        reverse=True)
        return [dag_id for dag_id, __ in ranked[:top]]

    # -- export ----------------------------------------------------------------

    def to_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(t) for t in self.tasks], handle, indent=1)

    def to_csv(self, path) -> None:
        if not self.tasks:
            raise ValueError("empty trace")
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle,
                                    fieldnames=list(asdict(
                                        self.tasks[0]).keys()))
            writer.writeheader()
            for trace in self.tasks:
                writer.writerow(asdict(trace))


def render_gantt(traces: list, width: int = 72,
                 title: str = "") -> str:
    """ASCII Gantt chart of one DAG's task executions.

    Rows are tasks in start order; ``.`` marks queueing time, ``#``
    marks execution.
    """
    if not traces:
        raise ValueError("nothing to render")
    t0 = min(t.enqueue_us for t in traces)
    t1 = max(t.finish_us for t in traces)
    span = max(t1 - t0, 1e-9)
    scale = (width - 1) / span
    lines = [title] if title else []
    lines.append(f"span {t0:.0f}-{t1:.0f} us ({span:.0f} us total)")
    label_width = max(len(t.task_type) for t in traces)
    for trace in sorted(traces, key=lambda t: (t.start_us, t.finish_us)):
        row = [" "] * width
        q0 = int((trace.enqueue_us - t0) * scale)
        s0 = int((trace.start_us - t0) * scale)
        f0 = max(int((trace.finish_us - t0) * scale), s0 + 1)
        for i in range(q0, min(s0, width)):
            row[i] = "."
        for i in range(s0, min(f0, width)):
            row[i] = "#"
        lines.append(f"{trace.task_type.ljust(label_width)} |"
                     f"{''.join(row)}| {trace.runtime_us:6.1f} us"
                     + (f" (wait {trace.wait_us:.1f})"
                        if trace.wait_us > 1.0 else ""))
    return "\n".join(lines)
