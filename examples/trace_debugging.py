#!/usr/bin/env python
"""Auditing a deadline miss with the recorded event timeline.

Recreates the debugging workflow used throughout the reproduction (and
presumably by the paper's authors against FlexRAN): run the vulnerable
baseline under collocation with an event bus recording, find the
slowest slots, and render their task timelines as Gantt charts — the
stuck-wakeup stall is directly visible as a long queueing gap before a
pinned task.

Run:  python examples/trace_debugging.py
"""

import numpy as np

from repro import Scenario, build_simulation, pool_20mhz_7cells
from repro.obs import EventBus, render_gantt

#: Simulated slots; the bus's default capacity holds every event of a
#: run this long, so the audit below covers the whole run.
NUM_SLOTS = 2000


def main():
    print("Running vanilla FlexRAN + Redis with the event bus on...")
    bus = EventBus()
    simulation = build_simulation(
        Scenario(pool=pool_20mhz_7cells(), policy="flexran",
                 workload="redis", load_fraction=0.5, seed=23),
        event_bus=bus)
    result = simulation.run(NUM_SLOTS)
    latency = result.latency
    print(f"  {latency.count} slot DAGs; p99 = {latency.p99_us:.0f} us, "
          f"max = {latency.max_us:.0f} us "
          f"(deadline {latency.deadline_us:.0f})")
    print(f"  {len(bus):,} events recorded, {bus.dropped:,} dropped")
    if bus.dropped:
        raise SystemExit("the bus overflowed: the audit would miss the "
                         "end of the run; shorten it or raise capacity")

    tasks: dict = {}
    for event in bus.of_kind("task_done"):
        tasks.setdefault(event.dag_id, []).append(event)
    # A dag_complete event carries the DAG's latency in runtime_us.
    slowest = sorted(bus.of_kind("dag_complete"),
                     key=lambda event: event.runtime_us, reverse=True)[:3]
    print("\nThe three slowest DAGs, as task Gantt charts "
          "('.' = queued, '#' = executing):\n")
    for done in slowest:
        events = tasks[done.dag_id]
        print(render_gantt(events, title=f"DAG {done.dag_id} "
                                         f"({done.runtime_us:.0f} us)"))
        worst = max(events, key=lambda e: e.start_us - e.enqueue_us)
        print(f"  worst queueing: {worst.task_type} waited "
              f"{worst.start_us - worst.enqueue_us:.0f} us before "
              "starting -> a worker stuck behind a non-preemptible "
              "kernel section (§2.3)\n")

    print("Statistical check: are the long waits really the tail driver?")
    done_events = [e for events in tasks.values() for e in events]
    waits = [e.start_us - e.enqueue_us for e in done_events]
    runtimes = [e.runtime_us for e in done_events]
    runtime_tail = np.percentile(runtimes, 99.99)
    wait_tail = np.percentile(waits, 99.99)
    print(f"  p99.99 runtime = {runtime_tail:.0f} us vs "
          f"p99.99 queueing wait = {wait_tail:.0f} us "
          f"over all {len(done_events):,} tasks")
    if wait_tail > runtime_tail:
        print("  -> the extreme waits dominate the extreme runtimes: "
              "the tail is a\n     scheduling-latency problem, not a "
              "compute problem — exactly the gap\n     Concordia's "
              "proactive reservation + 20 us compensation closes.")


if __name__ == "__main__":
    main()
