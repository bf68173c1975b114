"""Unified observability: event bus, metrics registry, exporters.

The paper's evaluation is built on instrumentation — Fig. 10 counts
scheduling events, Fig. 15a measures scheduler/predictor overhead, and
§6.2 debugs FlexRAN's tail from per-task timelines.  This package is
the first-class telemetry layer those measurements hang off:

* :mod:`repro.obs.events` — a structured event bus with zero overhead
  when disabled (the default).  ``sim.pool``, ``sim.osmodel``,
  ``core.scheduler`` and ``exec.batch`` emit typed events (task
  lifecycle, core reserve/release/rotate, wakeups, scheduler ticks,
  cache hits/misses) into it.
* :mod:`repro.obs.registry` — named counters/gauges/fixed-bucket
  histograms.  ``sim.metrics`` and the Concordia scheduler keep their
  accounting in registries, and every simulation result carries a
  JSON-able registry snapshot (``result.telemetry``) through the
  ``repro.exec`` cache.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (one track per
  core plus one per DAG; loads in ``chrome://tracing`` / Perfetto) and
  flat JSON/CSV metric dumps.
* :mod:`repro.obs.postmortem` — given a missed slot, names the dominant
  cause: wakeup-latency tail, WCET under-prediction, or queueing behind
  another cell (the §6.2 audit, automated), and draws one DAG's task
  timeline as an ASCII Gantt chart.
"""

import importlib

from .events import (
    CacheEvent,
    CoreEvent,
    EventBus,
    TaskEvent,
    TickEvent,
    WakeupEvent,
    global_bus,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry

#: Exporters and the post-mortem, imported on first use: a simulation
#: process records into the bus and the registry but calls neither.
_LAZY = {
    "chrome_trace": "export",
    "metrics_rows": "export",
    "write_chrome_trace": "export",
    "write_metrics_csv": "export",
    "write_metrics_json": "export",
    "PostMortem": "postmortem",
    "analyze_miss": "postmortem",
    "render_gantt": "postmortem",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "CacheEvent",
    "CoreEvent",
    "Counter",
    "EventBus",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PostMortem",
    "TaskEvent",
    "TickEvent",
    "WakeupEvent",
    "analyze_miss",
    "chrome_trace",
    "global_bus",
    "metrics_rows",
    "render_gantt",
    "write_chrome_trace",
    "write_metrics_csv",
    "write_metrics_json",
]
