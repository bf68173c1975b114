"""The benchmark's workloads, and the child process that runs one.

``bench/run.py`` starts a fresh interpreter on ``bench/child.py``, which
calls :func:`main` here, with ``REPRO_*`` removed from the environment,
once per set-up it times and once per measured run::

    python bench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

The child sets the workload up (training any predictor it needs), notes
the monotonic time at which set-up ended, and, unless ``--setup-only``,
then repeats fixed-length *rounds* (one simulation, or one 10-job batch
for ``fig08-sweep``) until ``--seconds`` have passed.  Every result is
checked: against ``bench/golden.json`` when the seed has an entry, else
against the first round of the same run, and always against the
invariant that every released DAG's latency was recorded.  With
``--trace 1`` every second round is traced (see ``tracer.py``) and must
reproduce the untraced digests and array/window path counts.  Host
speed (``hostspeed.py``) is sampled throughout set-up and read before
and after every round.  The last line of standard output is one JSON
object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import gc
import json
import os
import pathlib
import resource
import time
import traceback
from typing import Callable, Optional
from unittest import mock

import repro.exec.batch
import repro.scenario
from repro.exec.batch import run_batch
from repro.exec.digest import result_digest
from repro.exec.spec import pool_config_from_dict
from repro.experiments.common import get_predictor
from repro.experiments.fig08_reclaim import build_reclaim_specs
from repro.ran.config import (PoolConfig, SlotType, cell_20mhz_fdd,
                              pool_20mhz_7cells)
from repro.scenario import Scenario, build_simulation

import hostspeed
from tracer import (TRAINING_HOOKS, Tracer, batch_metrics, instrument,
                    merge_snapshots, round_metrics, setup_metrics)

BENCH_DIR = pathlib.Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

#: Offline-profiling slots per trained predictor: the experiment
#: drivers' minimum.  A smaller budget grows shallower trees whose
#: ``predict_task``/``observe_task`` calls are about a third cheaper, so
#: it would measure a different predictor.
TRAINING_SLOTS = 300
TRAINING_SEED = 42

#: Worker processes of the ``fig08-sweep`` batch (the host's core count).
BATCH_JOBS = 2

_ENGINE_MODE = "engine_mode" in {f.name for f in
                                 dataclasses.fields(Scenario)}


def released_dags(pool: PoolConfig, slots: int) -> int:
    """DAGs a run of ``slots`` slots releases: one per cell direction."""
    both = (SlotType.FULL_DUPLEX, SlotType.SPECIAL)
    return sum(2 if cell.slot_type(i) in both else 1
               for cell in pool.cells for i in range(slots))


@dataclasses.dataclass
class Round:
    """One measured round: its wall time and what it produced."""

    wall: float
    cell_slots: int
    #: Per operation: (result payload or None, error or None, DAGs the
    #: operation released).
    ops: list
    #: ``kernel_stats`` path counts (single-simulation workloads).
    paths: Optional[dict] = None
    #: Tracer snapshot of the round (traced rounds only).
    snapshot: Optional[dict] = None
    batch: dict = dataclasses.field(default_factory=batch_metrics)


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """A workload whose round is one simulation of ``slots`` slots."""

    pool: Callable[[], PoolConfig]
    policy: str
    workload: str
    load: float
    slots: int
    array: bool = False

    #: Processes a round keeps busy; its host-speed readings use as many.
    processes = 1

    def setup(self, seed: int) -> dict:
        pool = self.pool()
        predictor = None
        if self.policy == "concordia":
            predictor = get_predictor(pool, seed=TRAINING_SEED,
                                      num_slots=TRAINING_SLOTS)
        return {"pool": pool, "predictor": predictor, "seed": seed}

    def ops(self, state: dict) -> int:
        return 1

    def run_round(self, state: dict, tracer: Optional[Tracer] = None,
                  slots: Optional[int] = None) -> Round:
        slots = self.slots if slots is None else slots
        pool = state["pool"]
        extra = {"engine_mode": "array"} if self.array and _ENGINE_MODE \
            else {}
        # Online learning mutates the predictor: every round starts
        # from its own copy of the trained one, made before the clock.
        predictor = copy.deepcopy(state["predictor"])
        start = time.perf_counter()
        scenario = Scenario(pool=pool, policy=self.policy,
                            workload=self.workload, load_fraction=self.load,
                            seed=state["seed"], **extra)
        sim = build_simulation(scenario, predictor=predictor,
                               policy_seed=TRAINING_SEED)
        if tracer is not None:
            instrument(tracer, sim)
        result = sim.run(slots)
        wall = time.perf_counter() - start
        return Round(
            wall=wall,
            cell_slots=len(pool.cells) * slots,
            ops=[(result.to_dict(), None, released_dags(pool, slots))],
            paths=dict(sim.kernel_stats),
            snapshot=tracer.snapshot() if tracer is not None else None,
        )


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    """The Fig. 8a grid as one ``run_batch`` per round."""

    slots: int

    processes = BATCH_JOBS

    def setup(self, seed: int) -> list:
        specs, _ = build_reclaim_specs(num_slots=self.slots, seed=seed)
        specs = [dataclasses.replace(spec, training_slots=TRAINING_SLOTS)
                 for spec in specs]
        for spec in specs:
            get_predictor(pool_config_from_dict(spec.config),
                          seed=spec.training_seed,
                          num_slots=spec.training_slots)
        return specs

    def ops(self, specs: list) -> int:
        return len(specs)

    def run_round(self, specs: list, tracer: Optional[Tracer] = None,
                  slots: Optional[int] = None) -> Round:
        if slots is not None:
            specs = [dataclasses.replace(spec, num_slots=slots)
                     for spec in specs]
        job_dir = OUT_DIR / f"jobs-{os.getpid()}"
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(_traced_jobs(tracer, job_dir))
            start = time.perf_counter()
            report = run_batch(specs, jobs=BATCH_JOBS, use_cache=False)
            wall = time.perf_counter() - start
        snapshot = None
        if tracer is not None:
            snapshot = merge_snapshots(_collect_jobs(tracer, job_dir))
        ops = []
        for spec, outcome in zip(specs, report.outcomes):
            expected = released_dags(pool_config_from_dict(spec.config),
                                     spec.num_slots)
            error = None if outcome.succeeded else \
                f"job {outcome.status}: {outcome.error}"
            ops.append((outcome.result, error, expected))
        return Round(
            wall=wall,
            cell_slots=sum(len(spec.config["cells"]) * spec.num_slots
                           for spec in specs),
            ops=ops,
            snapshot=snapshot,
            batch=batch_metrics(report, wall),
        )


@contextlib.contextmanager
def _traced_jobs(tracer: Tracer, job_dir: pathlib.Path):
    """Instrument the simulation of every job the batch runner forks.

    Each forked job zeroes its inherited aggregates, instruments the
    simulation ``execute_spec`` builds, and leaves its snapshot and job
    span in ``job_dir`` for :func:`_collect_jobs`.
    """
    run_job = repro.exec.batch.run_job_in_child
    build = repro.scenario.build_simulation

    def traced_build(*args, **kwargs):
        sim = build(*args, **kwargs)
        instrument(tracer, sim)
        return sim

    def traced_job(conn, payload, attempt):
        tracer.reset()
        start = time.perf_counter()
        try:
            run_job(conn, payload, attempt)
        finally:
            record = {"start": start, "end": time.perf_counter(),
                      "snapshot": tracer.snapshot()}
            path = job_dir / f"{os.getpid()}-{time.monotonic_ns()}.json"
            path.write_text(json.dumps(record))

    job_dir.mkdir(parents=True, exist_ok=True)
    with mock.patch.object(repro.exec.batch, "run_job_in_child",
                           traced_job), \
            mock.patch.object(repro.scenario, "build_simulation",
                              traced_build):
        yield


def _collect_jobs(tracer: Tracer, job_dir: pathlib.Path) -> list:
    """Read and remove the jobs' records; log each job as a span."""
    snapshots = []
    for path in sorted(job_dir.glob("*.json")):
        record = json.loads(path.read_text())
        path.unlink()
        tracer.add_span("exec.batch.job", record["start"], record["end"])
        snapshots.append(record["snapshot"])
    job_dir.rmdir()
    return snapshots


#: The workloads by name; ``BENCHMARK.json`` says why each was chosen.
WORKLOADS = {
    "fig11-redis": SimWorkload(
        pool=lambda: pool_20mhz_7cells(num_cores=8), policy="concordia",
        workload="redis", load=0.5, slots=300),
    "fig03-idle": SimWorkload(
        pool=lambda: PoolConfig(cells=(cell_20mhz_fdd("bench-idle"),),
                                num_cores=4, deadline_us=2000.0),
        policy="concordia-noml", workload="none", load=0.02, slots=20_000,
        array=True),
    "multicell-mixed": SimWorkload(
        pool=pool_20mhz_7cells, policy="concordia-noml", workload="none",
        load=0.1, slots=1000, array=True),
    "fig08-sweep": SweepWorkload(slots=100),
}


def load_golden() -> dict:
    """workload -> seed (str) -> list of per-operation digests."""
    golden = json.loads(GOLDEN_PATH.read_text())
    return {name: {seed: [d] if isinstance(d, str) else d
                   for seed, d in seeds.items()}
            for name, seeds in golden.items()}


class Checker:
    """Judges each operation of each round against one reference."""

    def __init__(self, workload: str, seed: int) -> None:
        self.digests = load_golden().get(workload, {}).get(str(seed))
        self.source = "golden" if self.digests is not None else \
            "first round"
        self.paths = None

    def check(self, round_: Round) -> list:
        """Per-operation records: ok, why, digest and model outputs."""
        records = []
        for index, (payload, error, released) in enumerate(round_.ops):
            record = {"ok": False, "why": error, "digest": None}
            records.append(record)
            if error is not None:
                continue
            latency = payload["latency"]
            digest = result_digest(payload)
            record.update(digest=digest,
                          p99999_us=latency["p99999_us"],
                          miss_fraction=latency["miss_fraction"],
                          reclaimed_fraction=payload["reclaimed_fraction"])
            if latency["count"] != released:
                record["why"] = (f"{latency['count']} latencies recorded "
                                 f"for {released} DAGs released")
            elif self.digests is None:
                continue
            elif self.digests[index] is None:
                record["why"] = "no reference digest (first round failed)"
            elif digest != self.digests[index]:
                record["why"] = (f"digest {digest[:16]} != {self.source} "
                                 f"{self.digests[index][:16]}")
        if self.digests is None:
            self.digests = [r["digest"] for r in records]
        if self.paths is None:
            self.paths = round_.paths
        elif round_.paths != self.paths:
            for record in records:
                record["why"] = record["why"] or (
                    f"path counts {round_.paths} != first round "
                    f"{self.paths}")
        for record in records:
            record["ok"] = record["why"] is None
        return records


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for, in MiB."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool,
            sampler: hostspeed.Sampler, setup_only: bool = False) -> dict:
    """Set up, then run rounds for ``seconds``; the parent's report.

    ``sampler`` has sampled host speed since the child started; it is
    stopped when set-up ends.
    """
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    report: dict = {}
    if tracer is None:
        state = workload.setup(seed)
    else:
        with contextlib.ExitStack() as stack:
            for owner, attr, key in TRAINING_HOOKS:
                hook = tracer.wrap(key, getattr(owner, attr), span=True)
                stack.enter_context(mock.patch.object(owner, attr, hook))
            state = tracer.wrap("bench.setup", workload.setup,
                                span=True)(seed)
        report["setup"] = setup_metrics(tracer.snapshot())
    report["setup_end"] = time.monotonic()
    report["setup_probe"] = sampler.stop()
    if setup_only:
        return report

    checker = Checker(name, seed)
    # Training leaves numpy's helper threads spinning for ~0.1 s, which
    # slows a reading taken at once by up to half.
    time.sleep(0.2)
    probe = hostspeed.reading(workload.processes)
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        # Rounds alternate untraced/traced, starting untraced, so the
        # first round is the untraced reference of a traced run.
        traced = tracer is not None and len(rounds) % 2 == 1
        # The previous round's simulation is cyclic garbage; collect it
        # here rather than at a varying point inside the next round.
        gc.collect()
        round_ = _one_round(workload, state, tracer if traced else None,
                            checker)
        after = hostspeed.reading(workload.processes)
        round_["probes"] = [probe, after]
        probe = after
        rounds.append(round_)
        if time.perf_counter() >= deadline and \
                len(rounds) >= (2 if trace else 1):
            break
    report.update(rounds=rounds, peak_rss_mb=peak_rss_mb(),
                  reference=checker.source)
    if tracer is not None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}.json"
        trace_path.write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "displayTimeUnit": "ms",
            "spans_dropped": tracer.dropped,
            "rounds": [r["layers"] for r in rounds if r["traced"]],
            "traceEvents": tracer.chrome_events(os.getpid()),
        }))
    return report


def _one_round(workload, state, tracer: Optional[Tracer],
               checker: Checker) -> dict:
    """Run and check one round; an exception fails all its operations."""
    try:
        if tracer is None:
            round_ = workload.run_round(state)
        else:
            tracer.reset()
            round_ = tracer.wrap("bench.round", workload.run_round,
                                 span=True)(state, tracer)
    except Exception:  # noqa: BLE001 - a failed round is reported
        traceback.print_exc()
        why = "round raised: see stderr"
        return {"traced": tracer is not None, "wall": None,
                "cell_slots": 0, "layers": None,
                "ops": [{"ok": False, "why": why, "digest": None}] *
                workload.ops(state)}
    layers = None
    if tracer is not None:
        layers = round_metrics(round_.snapshot, round_.batch)
    return {"traced": tracer is not None, "wall": round_.wall,
            "cell_slots": round_.cell_slots, "ops": checker.check(round_),
            "layers": layers}


def main(argv: list, sampler: hostspeed.Sampler) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    report = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), sampler, args.setup_only)
    print(json.dumps(report))
    return 0
