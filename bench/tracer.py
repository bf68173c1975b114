"""Outside-in call tracing for ``bench/run.py --trace 1``.

Nothing inside ``src/`` is edited to trace it.  :func:`instrument`
replaces public methods of one built :class:`~repro.sim.runner.Simulation`
graph with timing wrappers set as *instance* attributes, so only that
simulation is affected, and the benchmark patches a few module functions
(predictor training, the batch runner's job entry point) for the length
of one phase.  Every wrapper pushes a frame on one stack, which yields
per-key call counts, total time and *self* time (total minus the time of
wrapped calls nested inside).  Because self times telescope, the self
times of every key under ``sim.runner.run`` add up to the run's wall
time exactly; what no wrapper covers (the event heap, the pool's private
dispatch and finish paths, the boundary callback, the window fill's own
code) stays as the run's own self time, reported as
``sim.engine.residual_s``.

Coarse calls additionally become spans (id, parent id, start, end, slot
index) kept in memory, up to :data:`SPAN_CAP`, and are written as a
Chrome ``trace_event`` file at exit.  Per-task hooks are only
aggregated, so memory stays bounded however long the run is.
"""

from __future__ import annotations

import itertools
import statistics
import time

import repro.core.models
import repro.core.predictor
import repro.core.training

#: Spans kept per process; later spans are counted, not stored.
SPAN_CAP = 20_000

#: Module functions wrapped while a traced set-up trains predictors:
#: (owner, attribute, key); each feeds the metric ``key + "_s"``.
#: ``select_features`` is patched where ``fit_offline`` looks it up.
TRAINING_HOOKS = (
    (repro.core.training, "collect_offline_dataset",
     "core.training.profile"),
    (repro.core.predictor, "select_features", "core.features.select"),
    (repro.core.models.QuantileTreeWCET, "fit", "core.models.fit"),
)

#: Simulation counters folded into a snapshot: name -> reader.
_SIM_COUNTERS = {
    "slots": lambda sim: sim.kernel_stats["slots"],
    "windows": lambda sim: sim.kernel_stats["windows"],
    "idle_slots": lambda sim: sim.kernel_stats["idle_slots"],
    "array_slots": lambda sim: sim.kernel_stats["array_slots"],
    "vector_slots": lambda sim: sim.kernel_stats["vector_slots"],
    "fill_s": lambda sim: sim.fill_wall_s,
    "summary_s": lambda sim: sim.summary_wall_s,
}


def _no_slot():
    return None


class Tracer:
    """Stack-based call accounting plus a bounded span log."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: key -> [calls, total_s, self_s, items]
        self.recs: dict = {}
        #: (id, parent id, key, start, end, slot) tuples.
        self.spans: list = []
        self.dropped = 0
        #: Simulations instrumented since the last :meth:`reset`.
        self.sims: list = []
        #: Returns the slot index recorded on each new span.
        self.slot = _no_slot
        self._frames: list = []   # nested wrapped time, per open call
        self._open: list = []     # ids of the open spans
        self._ids = itertools.count(1)

    def reset(self) -> None:
        """Zero the aggregates in place (wrappers keep their records)."""
        for rec in self.recs.values():
            rec[:] = [0, 0.0, 0.0, 0]
        self.sims = []
        self.slot = _no_slot

    def wrap(self, key: str, fn, span: bool = False, items: bool = False):
        """A timing wrapper around ``fn`` accounted under ``key``.

        ``items`` also adds ``len(result)`` to the record (DAGs built);
        ``span`` logs each call as a span.
        """
        rec = self.recs.setdefault(key, [0, 0.0, 0.0, 0])
        frames = self._frames
        clock = time.perf_counter

        def call(*args, **kwargs):
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = frames.pop()
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - nested
                if frames:
                    frames[-1] += elapsed
            if items:
                rec[3] += len(result)
            return result

        if not span:
            return call
        open_ids = self._open

        def call_span(*args, **kwargs):
            span_id = next(self._ids)
            parent = open_ids[-1] if open_ids else 0
            slot = self.slot()
            open_ids.append(span_id)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                open_ids.pop()
                self._log(span_id, parent, key, start, clock(), slot)
        return call_span

    def attach(self, obj, attr: str, key: str, span: bool = False,
               items: bool = False) -> None:
        """Shadow ``obj.attr`` with a wrapper held on the instance."""
        setattr(obj, attr, self.wrap(key, getattr(obj, attr), span, items))

    def add_span(self, key: str, start: float, end: float) -> None:
        """Log a span timed elsewhere (a forked batch job) as a child of
        the innermost open span."""
        parent = self._open[-1] if self._open else 0
        self._log(next(self._ids), parent, key, start, end, None)

    def _log(self, *span) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append(span)
        else:
            self.dropped += 1

    def snapshot(self) -> dict:
        """Aggregates plus the counters of the instrumented simulations."""
        sim = {name: 0 for name in _SIM_COUNTERS}
        for simulation in self.sims:
            for name, read in _SIM_COUNTERS.items():
                sim[name] += read(simulation)
        return {"recs": {k: list(v) for k, v in self.recs.items()},
                "sim": sim}

    def chrome_events(self, pid: int) -> list:
        """The span log as Chrome ``trace_event`` complete events."""
        origin = self.origin
        return [
            {"name": key, "ph": "X", "pid": pid, "tid": 0,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": span_id, "parent": parent, "slot": slot}}
            for span_id, parent, key, start, end, slot in self.spans
        ]


def instrument(tracer: Tracer, sim) -> None:
    """Wrap the public layer methods of one built simulation."""
    tracer.sims.append(sim)
    stats = sim.kernel_stats
    tracer.slot = lambda: stats["slots"]
    attach = tracer.attach
    attach(sim, "run", "sim.runner.run", span=True)
    pool = sim.pool
    attach(pool, "release_slot", "sim.pool.release_slot", span=True)
    policy = sim.policy
    attach(policy, "on_slot_start", "core.scheduler.slot_start", span=True)
    attach(policy, "on_tick", "core.scheduler.tick")
    for hook in ("on_task_enqueued", "on_task_started", "on_task_finished"):
        attach(policy, hook, "core.scheduler.task_hooks")
    predictor = getattr(policy, "predictor", None)
    if predictor is not None:
        attach(predictor, "predict_task", "core.predictor.predict")
        attach(predictor, "observe_task", "core.predictor.observe")
    attach(sim.builder, "build_many", "ran.dag.build_many", span=True,
           items=True)
    for cell in sim.traffic:
        for source in (cell.uplink, cell.downlink):
            attach(source, "next_slot", "ran.traffic.next_slots")
            attach(source, "next_slots", "ran.traffic.next_slots")
    # The array kernel is reachable only through the runner's private
    # attribute; it exists only under engine_mode="array".
    kernel = getattr(sim, "_array_kernel", None)
    if kernel is not None:
        attach(kernel, "try_vector", "sim.arraykernel.try_vector", span=True)
        attach(kernel, "replay", "sim.arraykernel.replay", span=True)
        attach(kernel, "build_plan", "sim.arraykernel.build_plan")
        attach(kernel, "build_plan_static", "sim.arraykernel.build_plan")
    # ``sample_multipliers`` draws its randomness and then calls
    # ``multipliers_for``, so wrapping that alone counts each call once.
    attach(pool.cache_model, "multipliers_for", "sim.cache.multipliers")
    attach(pool.os_model, "sample", "sim.osmodel.sample")
    pool.set_available_listener(
        tracer.wrap("workloads.host", sim.host.on_available_change))
    for name in ("on_slot_complete", "record_slot_batch", "on_wakeup",
                 "record_wakeup_batch", "record_core_segments"):
        attach(sim.metrics, name, "sim.metrics.ingest")


def merge_snapshots(snapshots: list) -> dict:
    """Sum snapshots key by key (the jobs of one batch)."""
    recs: dict = {}
    sim: dict = {name: 0 for name in _SIM_COUNTERS}
    for snap in snapshots:
        for key, rec in snap["recs"].items():
            total = recs.setdefault(key, [0, 0.0, 0.0, 0])
            for i, value in enumerate(rec):
                total[i] += value
        for name, value in snap["sim"].items():
            sim[name] += value
    return {"recs": recs, "sim": sim}


def setup_metrics(snap: dict) -> dict:
    """Set-up phase metrics (training) from one set-up's snapshot."""
    recs = snap["recs"]
    return {key + "_s": recs.get(key, [0, 0.0, 0.0, 0])[1]
            for _, _, key in TRAINING_HOOKS}


def round_metrics(snap: dict, batch: dict) -> dict:
    """Per-round layer metrics from a snapshot and the batch report."""
    recs = snap["recs"]
    sim = snap["sim"]

    def rec(key):
        return recs.get(key, (0, 0.0, 0.0, 0))

    run = rec("sim.runner.run")
    slots = sim["slots"]
    array_slots = sim["array_slots"]
    return {
        "core.predictor.predict_calls": rec("core.predictor.predict")[0],
        "core.predictor.predict_s": rec("core.predictor.predict")[2],
        "core.predictor.observe_calls": rec("core.predictor.observe")[0],
        "core.predictor.observe_s": rec("core.predictor.observe")[2],
        "core.scheduler.slot_start_s": rec("core.scheduler.slot_start")[2],
        "core.scheduler.tick_calls": rec("core.scheduler.tick")[0],
        "core.scheduler.tick_s": rec("core.scheduler.tick")[2],
        "core.scheduler.task_hook_calls": rec("core.scheduler.task_hooks")[0],
        "core.scheduler.task_hooks_s": rec("core.scheduler.task_hooks")[2],
        "ran.dag.build_many_calls": rec("ran.dag.build_many")[0],
        "ran.dag.build_many_s": rec("ran.dag.build_many")[2],
        "ran.dag.dags_built": rec("ran.dag.build_many")[3],
        "ran.traffic.next_slots_s": rec("ran.traffic.next_slots")[2],
        "sim.arraykernel.certified_share": array_slots / max(1, slots),
        "sim.arraykernel.vector_share":
            sim["vector_slots"] / max(1, array_slots),
        "sim.arraykernel.heap_replay_slots":
            array_slots - sim["vector_slots"],
        "sim.arraykernel.try_vector_s": rec("sim.arraykernel.try_vector")[2],
        "sim.arraykernel.replay_s": rec("sim.arraykernel.replay")[2],
        "sim.arraykernel.build_plan_s": rec("sim.arraykernel.build_plan")[2],
        "sim.runner.run_s": run[1],
        "sim.runner.windows": sim["windows"],
        "sim.runner.idle_share": sim["idle_slots"] / max(1, slots),
        "sim.runner.fill_s": sim["fill_s"],
        "sim.pool.release_slot_s": rec("sim.pool.release_slot")[2],
        "sim.cache.multipliers_calls": rec("sim.cache.multipliers")[0],
        "sim.cache.multipliers_s": rec("sim.cache.multipliers")[2],
        "sim.osmodel.sample_calls": rec("sim.osmodel.sample")[0],
        "sim.osmodel.sample_s": rec("sim.osmodel.sample")[2],
        "workloads.host_s": rec("workloads.host")[2],
        "sim.metrics.ingest_s": rec("sim.metrics.ingest")[2],
        "sim.metrics.summary_s": sim["summary_s"],
        "sim.engine.residual_s": run[2],
        **batch,
    }


def batch_metrics(report=None, wall_s: float = 0.0) -> dict:
    """``exec.batch`` metrics of one :class:`BatchReport` (zeros if none)."""
    if report is None:
        return dict.fromkeys(
            ("exec.batch.batch_s", "exec.batch.job_s_sum",
             "exec.batch.job_s_p50", "exec.batch.job_s_max",
             "exec.batch.worker_busy_frac", "exec.batch.retried",
             "exec.batch.failed"), 0)
    jobs = [outcome.wall_s for outcome in report.outcomes]
    job_sum = sum(jobs)
    return {
        "exec.batch.batch_s": wall_s,
        "exec.batch.job_s_sum": job_sum,
        "exec.batch.job_s_p50": statistics.median(jobs),
        "exec.batch.job_s_max": max(jobs),
        "exec.batch.worker_busy_frac": job_sum / (report.jobs * wall_s),
        "exec.batch.retried": report.retried,
        "exec.batch.failed": report.failed,
    }
