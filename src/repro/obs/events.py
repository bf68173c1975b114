"""Structured event bus with zero overhead when disabled.

Instrumented components hold an optional :class:`EventBus` reference
(``None`` by default).  Hot paths guard every emission with a plain
attribute test::

    bus = self.event_bus
    if bus is not None and bus.enabled:
        bus.record(REC_TASK, now, "task_done", dag_id, ...)

so a simulation without a bus pays one pointer comparison per
would-be event — nothing is allocated, formatted or stored.  This is
the Shenango-style "telemetry must not perturb the datapath" rule that
the CI overhead guard enforces (<10 % wall-clock with the bus on, and
no measurable cost with it off).

Every emit site records through :meth:`EventBus.record`, passing one
``REC_*`` index and the event's fields as a flat tuple; readers get
small ``__slots__`` dataclasses rather than dicts, so typed fields keep
the exporters simple.  The bus is a
bounded buffer (drops are counted, never silently): the one recorded
timeline, read after the run by the Chrome-trace exporter, ``repro
postmortem`` and :func:`repro.obs.postmortem.render_gantt`.  Live
per-task consumers (offline training, profiling drivers) use the pool's
``task_observers`` hook instead, which hands them the task objects
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

__all__ = [
    "CacheEvent",
    "CoreEvent",
    "EventBus",
    "REC_CACHE",
    "REC_CORE",
    "REC_TASK",
    "REC_TICK",
    "REC_WAKEUP",
    "TaskEvent",
    "TickEvent",
    "WakeupEvent",
    "global_bus",
]


@dataclass(slots=True)
class TaskEvent:
    """Task/DAG lifecycle: kind is one of ``dag_release``,
    ``task_done``, ``dag_complete``.

    A task's whole lifecycle is carried by **one** ``task_done`` event
    recorded at finish time (``ts_us``); ``enqueue_us`` and ``start_us``
    pin down the queueing and execution intervals.  Emitting separate
    enqueue/start/finish events tripled the record rate on the hottest
    path and blew the CI overhead budget; a task that never finished
    (simulation ended mid-flight) simply leaves no event, which is the
    same information the exporter's B/E pruning used to reconstruct.
    """

    ts_us: float
    kind: str
    dag_id: int
    task_id: int = -1
    task_type: str = ""
    cell: str = ""
    core: int = -1
    runtime_us: float = 0.0
    predicted_us: Optional[float] = None
    deadline_us: float = 0.0
    enqueue_us: float = -1.0
    start_us: float = -1.0


@dataclass(slots=True)
class CoreEvent:
    """Core-reservation mechanics: ``core_reserve`` (a worker is
    signalled awake), ``core_release`` (a worker yields) and
    ``core_rotate`` (the 2 ms preferred-order rotation, §5).
    ``reserved`` is the pool's reserved count *after* the transition.

    Elastic reconfiguration adds four kinds: ``pool.core_grant`` /
    ``pool.core_revoke`` (the vRAN↔best-effort ratchet changed the
    effective reserved set; ``core`` carries the *signed delta*, one
    aggregate event per ``_apply_target`` that changed anything) and
    ``pool.worker_add`` / ``pool.worker_remove`` (the physical core
    set grew or shrank; ``core`` is the worker's core id).
    """

    ts_us: float
    kind: str
    core: int
    reserved: int
    target: int


@dataclass(slots=True)
class WakeupEvent:
    """One worker wakeup: signalled at ``ts_us``, the core comes up
    ``latency_us`` later.  ``preempted`` is True when a best-effort
    occupant was actually displaced (see ``Metrics.on_preemption``).
    """

    ts_us: float
    kind: str  # "wakeup" (pool signal) or "wakeup_sample" (OS model)
    latency_us: float
    core: int = -1  # raw OS-model samples have no core attribution
    collocated: bool = False
    preempted: bool = False


@dataclass(slots=True)
class TickEvent:
    """One scheduler decision: the 20 µs tick or a slot-start pass."""

    ts_us: float
    kind: str  # "tick" or "slot_start"
    demand_cores: int
    target_cores: int
    active_dags: int
    critical: bool


@dataclass(slots=True)
class CacheEvent:
    """Result-cache traffic from the batch runner."""

    ts_us: float
    kind: str  # "cache_hit" or "cache_miss"
    key: str
    label: str


#: Record-type indices for :meth:`EventBus.record`.  Emit sites
#: pass one of these followed by the event's fields *positionally and
#: completely* — the bus stores the flat argument tuple and only
#: constructs the dataclass when someone reads :attr:`EventBus.events`.
#: Tuples of atomic values are untracked by CPython's cyclic GC after
#: their first collection pass, so a million-event buffer costs the
#: generational collector almost nothing; a buffer of dataclass
#: instances, by contrast, made every gen-2 pass rescan the whole run
#: and pushed the overhead guard past its budget.
REC_TASK = 0
REC_CORE = 1
REC_WAKEUP = 2
REC_TICK = 3
REC_CACHE = 4

_CLASSES = (TaskEvent, CoreEvent, WakeupEvent, TickEvent, CacheEvent)


class EventBus:
    """Bounded event buffer with an explicit enable switch.

    Disabled (the default for :func:`global_bus`) it records nothing;
    emit sites must guard on :attr:`enabled` so disabled runs never
    construct event objects.  ``clock`` supplies timestamps to emitters
    that have no clock of their own (the OS model, the batch runner);
    simulations point it at their engine.
    """

    def __init__(self, capacity: int = 1_000_000,
                 enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.enabled = enabled
        self.capacity = capacity
        self.dropped = 0
        self.clock: Callable[[], float] = lambda: 0.0
        self._buffer: list = []
        self._raw = 0  # pending un-materialized records in _buffer

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def events(self) -> list:
        """Recorded events as objects, materializing lazily in place."""
        buffer = self._buffer
        if self._raw:
            classes = _CLASSES
            for i, rec in enumerate(buffer):
                if type(rec) is tuple:
                    buffer[i] = classes[rec[0]](*rec[1:])
            self._raw = 0
        return buffer

    def record(self, *rec) -> None:
        """Record one event: ``record(REC_*, field0, field1, ...)``.

        Fields are positional in dataclass order (trailing fields with
        defaults may be omitted); the tuple is stored as-is and turned
        into the corresponding event class only when :attr:`events` is
        read.
        """
        if len(self._buffer) < self.capacity:
            self._buffer.append(rec)
            self._raw += 1
        else:
            self.dropped += 1

    def now(self) -> float:
        """Timestamp source for emitters without their own clock."""
        return self.clock()

    # -- consumers -----------------------------------------------------------

    def of_kind(self, *kinds: str) -> Iterator:
        """Recorded events whose ``kind`` is one of ``kinds``."""
        wanted = frozenset(kinds)
        return (e for e in self.events if e.kind in wanted)

    def clear(self) -> None:
        self._buffer.clear()
        self._raw = 0
        self.dropped = 0


#: Process-wide bus for emitters that outlive any one simulation (the
#: batch runner's cache hits/misses).  Disabled by default; enable it
#: explicitly when auditing a batch.
_GLOBAL = EventBus(enabled=False)


def global_bus() -> EventBus:
    return _GLOBAL
