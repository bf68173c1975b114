"""Tests for the repro.obs observability layer.

Covers the event bus, the metrics registry, the Chrome trace exporter
(structural validation: monotonic timestamps, matched B/E pairs,
per-core tracks), the deadline-miss post-mortem analyzer, the
telemetry path through the repro.exec result cache, and the recorded
task timeline with its Gantt rendering.
"""

import json

import pytest

from repro.obs import render_gantt
from repro.obs.events import (REC_TICK, REC_WAKEUP, CacheEvent, CoreEvent,
                              EventBus, TaskEvent, TickEvent, WakeupEvent,
                              global_bus)
from repro.obs.export import chrome_trace, metrics_rows
from repro.obs.postmortem import (CAUSE_QUEUEING, CAUSE_WAKEUP, CAUSE_WCET,
                                  analyze_miss)
from repro.obs.registry import MetricsRegistry
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.scenario import Scenario, build_simulation


def small_config(num_cores=4):
    return PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=num_cores,
                      deadline_us=2000.0)


def recorded_run(num_slots=80, workload="none", num_cores=4, seed=5):
    bus = EventBus()
    simulation = build_simulation(
        Scenario(pool=small_config(num_cores), policy="concordia-noml",
                 workload=workload, load_fraction=0.5, seed=seed),
        event_bus=bus)
    result = simulation.run(num_slots)
    return result, bus


class TestEventBus:
    def test_disabled_bus_records_nothing_via_guard(self):
        bus = EventBus(enabled=False)
        # Emit sites guard on .enabled; a disabled bus is never fed.
        if bus.enabled:
            bus.record(REC_TICK, 0.0, "tick", 0, 0, 0, False)
        assert len(bus) == 0

    def test_capacity_bound_counts_drops(self):
        bus = EventBus(capacity=2)
        for i in range(5):
            bus.record(REC_TICK, float(i), "tick", 0, 0, 0, False)
        assert len(bus) == 2
        assert bus.dropped == 3
        bus.clear()
        assert len(bus) == 0 and bus.dropped == 0

    def test_of_kind_filters(self):
        bus = EventBus()
        bus.record(REC_TICK, 0.0, "tick", 0, 0, 0, False)
        bus.record(REC_TICK, 1.0, "slot_start", 0, 0, 0, False)
        bus.record(REC_WAKEUP, 2.0, "wakeup", 5.0, 1)
        assert len(list(bus.of_kind("tick"))) == 1
        assert len(list(bus.of_kind("tick", "wakeup"))) == 2

    def test_events_have_no_dict(self):
        # slots=True keeps events small and construction cheap (frozen
        # dataclasses cost ~3x more per emit, which the overhead guard
        # does not tolerate at task-lifecycle emission rates).
        event = TaskEvent(0.0, "task_done", dag_id=1)
        with pytest.raises(AttributeError):
            event.arbitrary_attribute = 5.0


class TestRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("a").value += 3
        registry.gauge("b").set(1.5)
        hist = registry.histogram("h", (1.0, 10.0, float("inf")))
        hist.observe(0.5)
        hist.observe(55.0)
        payload = registry.as_dict()
        json.dumps(payload)
        rebuilt = MetricsRegistry.from_dict(payload)
        assert rebuilt.value("a") == 3
        assert rebuilt.value("b") == 1.5
        assert rebuilt.get("h").count == 2
        assert rebuilt.get("h").labelled_counts() == \
            registry.get("h").labelled_counts()

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_histogram_rejects_nan(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", (1.0, float("inf")))
        with pytest.raises(ValueError):
            hist.observe(float("nan"))

    def test_metrics_rows_flatten(self):
        registry = MetricsRegistry()
        registry.counter("c").value += 1
        registry.histogram("h", (1.0, float("inf"))).observe(0.5)
        rows = dict(metrics_rows(registry))
        assert rows["c"] == 1
        assert rows["h{0-1}"] == 1
        assert rows["h.count"] == 1


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def run(self):
        return recorded_run()

    def test_simulation_emits_all_event_families(self, run):
        __, bus = run
        kinds = {type(e).__name__ for e in bus.events}
        assert {"TaskEvent", "CoreEvent", "WakeupEvent",
                "TickEvent"} <= kinds

    def test_trace_is_json_with_monotonic_timestamps(self, run):
        __, bus = run
        trace = chrome_trace(bus.events)
        json.dumps(trace)
        events = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert events, "trace must contain real events"
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_duration_pairs_match(self, run):
        __, bus = run
        trace = chrome_trace(bus.events)
        stacks = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "B":
                stacks.setdefault((event["pid"], event["tid"]),
                                  []).append(event["name"])
            elif event["ph"] == "E":
                stack = stacks.get((event["pid"], event["tid"]))
                assert stack, f"E without B on {event}"
                assert stack.pop() == event["name"]
        assert all(not s for s in stacks.values()), \
            "every B must have a matching E"

    def test_per_core_and_per_dag_tracks(self, run):
        __, bus = run
        trace = chrome_trace(bus.events)
        names = {(e["pid"], e.get("tid")): e["args"]["name"]
                 for e in trace["traceEvents"] if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        core_tids = {tid for (pid, tid) in names if pid == 1}
        assert core_tids  # at least one core track
        assert core_tids <= set(range(4))
        assert all(names[(1, tid)] == f"core {tid}" for tid in core_tids)
        assert any(pid == 2 for (pid, __) in names), "DAG tracks exist"
        # Task executions land on core tracks.
        assert any(e["ph"] == "B" and e["pid"] == 1
                   for e in trace["traceEvents"])

    def test_counter_series_present(self, run):
        __, bus = run
        trace = chrome_trace(bus.events)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all("reserved" in e["args"] for e in counters)

    def test_unfinished_dags_are_pruned(self):
        events = [
            TaskEvent(0.0, "dag_release", dag_id=1, task_id=0,
                      cell="c", deadline_us=500.0),
            # No dag_complete: the DAG's B must be pruned.  (Tasks in
            # flight at simulation end leave no task_done record at
            # all, so no task B can ever dangle.)
        ]
        trace = chrome_trace(events)
        assert [e for e in trace["traceEvents"] if e["ph"] == "B"] == []


class TestPostMortem:
    def _missed_dag_events(self, wakeup_latency=400.0):
        """A slot whose only delay is one long wakeup tail."""
        return [
            TaskEvent(0.0, "dag_release", dag_id=7, task_id=3,
                      cell="cell0", deadline_us=300.0),
            WakeupEvent(0.0, "wakeup", wakeup_latency, core=2),
            TaskEvent(wakeup_latency + 50.0, "task_done", dag_id=7,
                      task_id=0, task_type="fft", cell="cell0", core=2,
                      runtime_us=50.0, predicted_us=60.0,
                      enqueue_us=0.0, start_us=wakeup_latency),
            TaskEvent(wakeup_latency + 50.0, "dag_complete", dag_id=7,
                      task_id=3, cell="cell0",
                      runtime_us=wakeup_latency + 50.0,
                      deadline_us=300.0),
        ]

    def test_wakeup_tail_named_dominant(self):
        report = analyze_miss(self._missed_dag_events())
        assert report.dag_id == 7
        assert report.missed
        assert report.tardiness_us == pytest.approx(450.0 - 300.0)
        assert report.contributions[CAUSE_WAKEUP] == pytest.approx(400.0)
        assert report.contributions[CAUSE_QUEUEING] == pytest.approx(0.0)
        assert report.dominant_cause == CAUSE_WAKEUP
        assert "wakeup latency" in report.render()

    def test_queueing_without_wakeup_in_flight(self):
        events = self._missed_dag_events()
        # Remove the wakeup: the same wait now reads as queueing.
        events = [e for e in events if not isinstance(e, WakeupEvent)]
        report = analyze_miss(events)
        assert report.contributions[CAUSE_QUEUEING] == pytest.approx(400.0)
        assert report.dominant_cause == CAUSE_QUEUEING

    def test_underprediction_accounted(self):
        events = [
            TaskEvent(0.0, "dag_release", dag_id=1, task_id=0,
                      cell="c", deadline_us=100.0),
            TaskEvent(150.0, "task_done", dag_id=1, task_id=0,
                      task_type="fft", cell="c", core=0,
                      runtime_us=150.0, predicted_us=20.0,
                      enqueue_us=0.0, start_us=0.0),
            TaskEvent(150.0, "dag_complete", dag_id=1, task_id=0,
                      cell="c", runtime_us=150.0, deadline_us=100.0),
        ]
        report = analyze_miss(events)
        assert report.contributions[CAUSE_WCET] == pytest.approx(130.0)
        assert report.dominant_cause == CAUSE_WCET

    def test_picks_worst_dag_by_default(self):
        events = (self._missed_dag_events(wakeup_latency=400.0)
                  + [TaskEvent(0.0, "dag_release", dag_id=8, task_id=0,
                               cell="c", deadline_us=500.0),
                     TaskEvent(10.0, "dag_complete", dag_id=8, task_id=0,
                               cell="c", runtime_us=10.0,
                               deadline_us=500.0)])
        assert analyze_miss(events).dag_id == 7
        assert analyze_miss(events, dag_id=8).dag_id == 8

    def test_no_completions_raises(self):
        with pytest.raises(ValueError):
            analyze_miss([])

    def test_real_simulation_analyzable(self):
        __, bus = recorded_run(num_slots=40)
        report = analyze_miss(bus.events)
        assert report.tasks > 0
        total = sum(report.contributions.values())
        assert total >= 0.0
        assert report.dominant_cause in (CAUSE_WAKEUP, CAUSE_WCET,
                                         CAUSE_QUEUEING)


class TestPreemptionSplit:
    def test_no_workload_means_no_preemptions(self):
        result, __ = recorded_run(num_slots=60, workload="none")
        counters = result.telemetry["counters"]
        assert counters["sched/wakeups"] > 0
        assert counters["sched/best_effort_preemptions"] == 0

    def test_active_workload_makes_wakeups_preemptions(self):
        result, bus = recorded_run(num_slots=60, workload="redis")
        counters = result.telemetry["counters"]
        assert counters["sched/wakeups"] > 0
        # Redis is always active, so every wakeup displaces it.
        assert counters["sched/best_effort_preemptions"] == \
            counters["sched/wakeups"]
        wakeups = [e for e in bus.events
                   if isinstance(e, WakeupEvent) and e.kind == "wakeup"]
        assert wakeups and all(e.preempted for e in wakeups)


class TestTelemetryThroughCache:
    def test_cached_result_carries_telemetry(self, tmp_path):
        from repro.exec.batch import run_batch
        from repro.exec.cache import ResultCache
        from repro.experiments.common import make_spec

        spec = make_spec(Scenario(pool=small_config(),
                                  policy="concordia-noml",
                                  load_fraction=0.4, seed=3), 50)
        cache = ResultCache(tmp_path / "cache")
        first = run_batch([spec], cache=cache)
        assert first.outcomes[0].status == "ok"
        second = run_batch([spec], cache=cache)
        assert second.outcomes[0].status == "cached"
        live, cached = first.results()[0], second.results()[0]
        assert cached.to_dict() == live.to_dict()  # plain data
        assert cached.telemetry == live.telemetry
        assert cached.telemetry["counters"]["slots/completed"] > 0
        hist = cached.telemetry["histograms"]["sched/wakeup_latency_us"]
        assert hist["count"] == \
            cached.telemetry["counters"]["sched/wakeups"]

    def test_cache_traffic_on_global_bus(self, tmp_path):
        from repro.exec.batch import run_batch
        from repro.exec.cache import ResultCache
        from repro.experiments.common import make_spec

        spec = make_spec(Scenario(pool=small_config(),
                                  policy="concordia-noml",
                                  load_fraction=0.4, seed=4), 50)
        cache = ResultCache(tmp_path / "cache")
        bus = global_bus()
        bus.enabled = True
        bus.clear()
        try:
            run_batch([spec], cache=cache)
            run_batch([spec], cache=cache)
            kinds = [e.kind for e in bus.events
                     if isinstance(e, CacheEvent)]
            assert kinds == ["cache_miss", "cache_hit"]
            assert all(e.key and e.label for e in bus.events
                       if isinstance(e, CacheEvent))
        finally:
            bus.enabled = False
            bus.clear()


class TestCoreEventConsistency:
    def test_reserved_counts_track_pool_transitions(self):
        __, bus = recorded_run(num_slots=60)
        last = None
        for event in bus.events:
            if isinstance(event, CoreEvent) and \
                    event.kind in ("core_reserve", "core_release"):
                if last is not None:
                    delta = event.reserved - last
                    assert delta == (1 if event.kind == "core_reserve"
                                     else -1)
                last = event.reserved

    def test_tick_events_emitted_for_both_kinds(self):
        __, bus = recorded_run(num_slots=40)
        kinds = {e.kind for e in bus.events if isinstance(e, TickEvent)}
        assert kinds == {"tick", "slot_start"}


@pytest.fixture(scope="module")
def traced_run():
    """A recorded run plus the tasks a live observer saw in it."""
    config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                        deadline_us=2000.0)
    bus = EventBus()
    simulation = build_simulation(
        Scenario(pool=config, policy="flexran", load_fraction=0.5, seed=2),
        event_bus=bus)
    observed = []
    simulation.pool.task_observers.append(
        lambda task: observed.append((task.dag.dag_id, task.task_id)))
    simulation.run(200)
    return bus, observed


class TestTaskTimeline:
    def test_bus_records_every_task(self, traced_run):
        bus, observed = traced_run
        done = list(bus.of_kind("task_done"))
        assert bus.dropped == 0
        assert len(done) > 200
        assert sorted((e.dag_id, e.task_id) for e in done) \
            == sorted(observed)
        for event in done:
            assert event.ts_us >= event.start_us >= event.enqueue_us >= 0
            assert event.runtime_us > 0


class TestGantt:
    def test_renders_dag_timeline(self, traced_run):
        bus, __ = traced_run
        # dag_complete events carry the DAG's latency in runtime_us.
        slowest = max(bus.of_kind("dag_complete"),
                      key=lambda e: e.runtime_us)
        chart = render_gantt([e for e in bus.of_kind("task_done")
                              if e.dag_id == slowest.dag_id], title="slot")
        assert "slot" in chart
        assert "#" in chart
        assert "us total" in chart

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            render_gantt([])
