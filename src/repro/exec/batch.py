"""The fork-per-job runner, and the spec batches it executes.

:func:`run_jobs` is the one process pool: it runs a queue of
:class:`Job` payloads through a child entry point, forking one process
per attempt (``jobs=1`` runs in-process instead), and owns the failure
policy — retry, timeout, straggler warning.  Its two callers keep their
own outcome types: :func:`run_batch` (``repro sweep`` and the
experiment drivers) and the fleet :class:`~repro.fleet.planner.Planner`.

Execution model of a batch (the experiment-faabric work-queue shape,
adapted):

* jobs already in the cache are reported as hits without spawning
  anything;
* the parent pre-trains (or reloads) every distinct predictor the
  batch needs, so forked children inherit the trained models instead
  of re-training them per process;
* at most ``jobs`` child processes run at once, each executing one
  spec hermetically and reporting through a pipe;
* a job that raises or dies is recorded and retried up to ``retries``
  times — a crash degrades to a recorded error, never kills the batch;
* a job that exceeds ``timeout_s`` is killed (``SIGTERM``) and
  recorded as a timeout (not retried: a deterministic job that timed
  out once will time out again).

``jobs=1`` (the default without ``REPRO_JOBS``) executes in-process in
submission order; because every spec is hermetic, the parallel results
are byte-identical to that serial baseline.
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Callable, List, Optional, Sequence

from ..obs.events import CacheEvent, global_bus
from .cache import ResultCache, activated_cache, active_cache
from .fingerprint import model_fingerprint
from .spec import SimSpec, pool_config_from_dict, spec_key
from .worker import run_job_in_child

__all__ = ["BatchReport", "Job", "JobOutcome", "check_jobs",
           "default_jobs", "run_batch", "run_jobs"]

logger = logging.getLogger(__name__)

ProgressCallback = Callable[[dict], None]
#: ``child(conn, payload, attempt)``: runs one attempt, reports on ``conn``.
ChildEntry = Callable[[object, dict, int], None]

#: A running job is flagged as a straggler once it runs past this
#: multiple of the median completed-attempt wall time.
STRAGGLER_FACTOR = 10.0

#: Floor for the straggler threshold, so short jobs on a noisy machine
#: don't trip spurious warnings.
STRAGGLER_MIN_S = 30.0


def check_jobs(jobs, source: str = "jobs") -> int:
    """``jobs`` as a positive worker count; ``ValueError`` otherwise."""
    try:
        count = int(jobs)
    except (TypeError, ValueError):
        count = 0
    if count <= 0:
        raise ValueError(
            f"{source} must be a positive integer, got {jobs!r}")
    return count


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (defaults to 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS")
    return 1 if raw is None else check_jobs(raw, "REPRO_JOBS")


@dataclass
class JobOutcome:
    """What happened to one spec in a batch."""

    index: int
    spec: SimSpec
    key: str
    status: str  # "ok" | "cached" | "failed" | "timeout"
    attempts: int = 1
    wall_s: float = 0.0  # cumulative over attempts; 0 for cache hits
    error: Optional[str] = None
    result: Optional[dict] = None

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class BatchReport:
    """All outcomes plus the aggregate telemetry of one batch run."""

    outcomes: List[JobOutcome]
    jobs: int
    batch_wall_s: float
    fingerprint: str = ""
    retried: int = 0

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def executed(self) -> int:
        """Jobs that actually ran a simulation (successfully)."""
        return self._count("ok")

    @property
    def cached(self) -> int:
        return self._count("cached")

    @property
    def failed(self) -> int:
        return self._count("failed") + self._count("timeout")

    @property
    def total_job_wall_s(self) -> float:
        """CPU-side wall-clock spent inside jobs (all attempts)."""
        return sum(o.wall_s for o in self.outcomes)

    @property
    def speedup(self) -> float:
        """Aggregate job time over batch time (1.0 = no overlap)."""
        return self.total_job_wall_s / max(self.batch_wall_s, 1e-9)

    def results(self, strict: bool = True) -> list:
        """Per-spec :class:`SimulationResult`s, in submission order."""
        from ..sim.runner import SimulationResult

        failures = [o for o in self.outcomes if not o.succeeded]
        if failures and strict:
            lines = "; ".join(
                f"job {o.index} ({o.spec.label()}): {o.status}"
                f" — {o.error}" for o in failures)
            raise RuntimeError(
                f"{len(failures)} of {len(self.outcomes)} jobs failed: "
                f"{lines}")
        return [
            SimulationResult.from_dict(o.result) if o.succeeded else None
            for o in self.outcomes
        ]

    def summary(self) -> str:
        return (f"{len(self.outcomes)} jobs on {self.jobs} worker(s): "
                f"{self.executed} executed, {self.cached} cached, "
                f"{self.failed} failed ({self.retried} retries) | "
                f"wall {self.batch_wall_s:.1f}s, "
                f"job time {self.total_job_wall_s:.1f}s, "
                f"speedup {self.speedup:.1f}x")


@dataclass
class Job:
    """One unit of work for :func:`run_jobs`, with its attempt accounting."""

    index: int
    payload: dict
    attempt: int = 0
    wall_s: float = 0.0  # accumulated over every attempt


@dataclass
class _Running:
    job: Job
    process: multiprocessing.Process
    conn: object
    started: float = field(default_factory=time.perf_counter)
    straggler: bool = False


def _result_loadable(artifact: dict) -> bool:
    """True when the cached result payload deserializes today."""
    from ..sim.runner import RESULT_SCHEMAS

    result = artifact.get("result")
    return (isinstance(result, dict)
            and result.get("schema") in RESULT_SCHEMAS)


def run_batch(
    specs: Sequence[SimSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> BatchReport:
    """Execute a batch of specs; never raises for individual jobs."""
    jobs = default_jobs() if jobs is None else check_jobs(jobs)
    if use_cache and cache is None:
        cache = active_cache()
    if not use_cache:
        cache = None
    fingerprint = model_fingerprint()
    started = time.perf_counter()
    keys = [spec_key(spec, fingerprint) for spec in specs]
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    done = 0
    retried = 0

    def emit(kind: str, index: int, status: str, wall_s: float = 0.0,
             error: Optional[str] = None) -> None:
        if progress is None:
            return
        progress({
            "kind": kind,
            "index": index,
            "total": len(specs),
            "done": done,
            "status": status,
            "label": specs[index].label(),
            "wall_s": wall_s,
            "error": error,
        })

    pending: List[Job] = []
    bus = global_bus()
    for index, (spec, key) in enumerate(zip(specs, keys)):
        artifact = cache.get(key) if cache is not None else None
        if artifact is not None and not _result_loadable(artifact):
            # Result-schema bump since the artifact was written (the
            # spec payload hashes identically but the stored result
            # can no longer be deserialized): treat as a miss and
            # re-execute instead of crashing in BatchReport.results().
            artifact = None
        if artifact is not None:
            done += 1
            outcomes[index] = JobOutcome(index=index, spec=spec, key=key,
                                         status="cached", attempts=0,
                                         result=artifact["result"])
            if bus.enabled:
                bus.emit(CacheEvent(ts_us=bus.now(), kind="cache_hit",
                                    key=key, label=spec.label()))
            emit("cached", index, "cached")
        else:
            if bus.enabled:
                bus.emit(CacheEvent(ts_us=bus.now(), kind="cache_miss",
                                    key=key, label=spec.label()))
            pending.append(Job(index=index, payload=spec.to_dict()))

    if pending:
        # Activate the cache process-wide while warming so predictor
        # training persists/reloads through it (forked children
        # inherit both the activation and the trained models).
        needed = [specs[job.index] for job in pending]
        if cache is not None:
            with activated_cache(cache):
                _warm_predictors(needed)
        else:
            _warm_predictors(needed)

    def finish(job: Job, status: str, result: Optional[dict],
               error: Optional[str]) -> None:
        nonlocal done, retried
        done += 1
        retried += job.attempt
        outcome = JobOutcome(index=job.index, spec=specs[job.index],
                             key=keys[job.index], status=status,
                             attempts=job.attempt + 1, wall_s=job.wall_s,
                             result=result, error=error)
        outcomes[job.index] = outcome
        if status == "ok" and cache is not None and result is not None:
            cache.put(outcome.key, {
                "schema": 1,
                "key": outcome.key,
                "fingerprint": fingerprint,
                "spec": outcome.spec.to_dict(),
                "result": result,
                "meta": {"wall_s": outcome.wall_s,
                         "attempts": outcome.attempts,
                         "created_unix": time.time()},
            })
        emit(status if outcome.succeeded else "failed", job.index,
             status, job.wall_s, error)

    def notify(kind: str, job: Job, **info) -> None:
        if kind == "straggler":
            emit(kind, job.index, kind, info["elapsed_s"])

    # ``run_job_in_child`` is looked up in the module globals here, at
    # call time, so a patched entry point reaches every job.
    run_jobs(pending, jobs, run_job_in_child, finish, notify,
             retries=retries, timeout_s=timeout_s)

    return BatchReport(
        outcomes=[o for o in outcomes if o is not None],
        jobs=jobs,
        batch_wall_s=time.perf_counter() - started,
        fingerprint=fingerprint,
        retried=retried,
    )


# -- predictor pre-warming ---------------------------------------------------------


def _warm_predictors(specs: Sequence[SimSpec]) -> None:
    """Train/reload each distinct predictor once, in the parent.

    Forked children then inherit the trained models through the
    process-local predictor cache instead of re-training one copy per
    job; with an on-disk cache active the models also persist
    across batches.
    """
    from ..experiments.common import get_predictor
    from .spec import canonical_json

    seen = set()
    for spec in specs:
        if spec.policy != "concordia" or spec.training_slots is None:
            continue
        if "predictor" in spec.policy_kwargs:
            continue
        key = canonical_json({"config": spec.config,
                              "seed": spec.training_seed,
                              "slots": spec.training_slots})
        if key in seen:
            continue
        seen.add(key)
        try:
            get_predictor(pool_config_from_dict(spec.config),
                          seed=spec.training_seed,
                          num_slots=spec.training_slots)
        except Exception:  # noqa: BLE001 - the job itself will report it
            pass


# -- the job runner ----------------------------------------------------------------


class _Mailbox:
    """In-process stand-in for a child's pipe (the ``jobs=1`` path)."""

    message = ("error", {"error": "job returned without reporting a "
                                  "result"})

    def send(self, message) -> None:
        self.message = message

    def close(self) -> None:
        pass


def run_jobs(queue: Sequence[Job], jobs: int, child: ChildEntry,
             finish: Callable[[Job, str, Optional[object],
                               Optional[str]], None],
             notify: Callable[..., None], *, retries: int = 1,
             timeout_s: Optional[float] = None) -> None:
    """Run every job through ``child`` and settle each one exactly once.

    ``child(conn, payload, attempt)`` is a child entry point (see
    :func:`repro.exec.worker.report_to_parent`).  ``jobs=1`` calls it
    in-process in queue order; otherwise at most ``jobs`` forked
    children run at once.  The failure policy is the same either way:

    * a reported exception, or a child that dies without reporting, is
      retried up to ``retries`` times and then finished as ``failed``;
    * a child running past ``timeout_s`` (parallel only) is killed with
      ``SIGTERM`` and finished as ``timeout``, without retry;
    * a child running past ``max(STRAGGLER_FACTOR`` x the median
      completed attempt, ``STRAGGLER_MIN_S)`` (parallel only) is logged
      once and reported as a ``straggler``.

    ``finish(job, status, result, error)`` receives each job's final
    status (``ok`` | ``failed`` | ``timeout``); ``job.attempt`` and
    ``job.wall_s`` then account for every attempt.  ``notify(kind, job,
    **info)`` sees ``dispatch`` (each attempt), ``retry`` (``error``)
    and ``straggler`` (``elapsed_s``).
    """
    def settle(job: Job, status: str, info: dict) -> bool:
        """Account one finished attempt; True when the job is requeued."""
        job.wall_s += info.get("wall_s", 0.0)
        if status == "error" and job.attempt < retries:
            job.attempt += 1
            notify("retry", job, error=info.get("error"))
            return True
        finish(job, "failed" if status == "error" else status,
               info.get("result"), info.get("error"))
        return False

    if jobs <= 1:
        for job in queue:
            while True:
                notify("dispatch", job)
                mailbox = _Mailbox()
                child(mailbox, job.payload, job.attempt)
                if not settle(job, *mailbox.message):
                    break
    else:
        _run_parallel(list(queue), jobs, child, settle, notify, timeout_s)


def _straggler_threshold(walls: Sequence[float]) -> Optional[float]:
    """Seconds after which a running job counts as a straggler."""
    if not walls:
        return None
    return max(STRAGGLER_FACTOR * statistics.median(walls),
               STRAGGLER_MIN_S)


def _mp_context():
    """Fork when available (children inherit trained predictors)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def _spawn(ctx, child: ChildEntry, job: Job) -> _Running:
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=child,
                          args=(child_conn, job.payload, job.attempt))
    # Fork from a frozen heap: the child's collector never walks the
    # inherited objects, so it does not copy-on-write their pages.
    gc.freeze()
    try:
        process.start()
    finally:
        gc.unfreeze()
    child_conn.close()
    return _Running(job=job, process=process, conn=parent_conn)


def _receive(run: _Running) -> tuple:
    """The child's ``(status, info)``; a closed pipe means it died."""
    try:
        status, info = run.conn.recv()
    except (EOFError, OSError):
        # Died without reporting (segfault, os._exit, ...): the closed
        # pipe is what made the connection ready.
        run.process.join(timeout=5.0)
        status, info = "error", {
            "error": f"worker exited with code {run.process.exitcode} "
                     f"without reporting a result",
            "wall_s": time.perf_counter() - run.started}
    run.conn.close()
    run.process.join()
    return status, info


def _run_parallel(queue: List[Job], jobs: int, child: ChildEntry,
                  settle: Callable[[Job, str, dict], bool],
                  notify: Callable[..., None],
                  timeout_s: Optional[float]) -> None:
    """The spawn/wait loop: fork per attempt until every job settles.

    The parent blocks in :func:`multiprocessing.connection.wait` on the
    children's pipes — zero CPU while simulations run, immediate wakeup
    on the first completion.  The wait is bounded by the earliest
    timeout or straggler deadline, so both fire on schedule.
    """
    ctx = _mp_context()
    active: List[_Running] = []
    walls: List[float] = []  # completed attempts, for the straggler clock
    try:
        while queue or active:
            while queue and len(active) < jobs:
                job = queue.pop(0)
                active.append(_spawn(ctx, child, job))
                notify("dispatch", job)
            now = time.perf_counter()
            straggler_s = _straggler_threshold(walls)
            deadlines = []
            for run in list(active):
                elapsed = now - run.started
                if timeout_s is not None:
                    if elapsed > timeout_s:
                        run.process.terminate()
                        run.process.join(timeout=5.0)
                        run.conn.close()
                        active.remove(run)
                        settle(run.job, "timeout", {
                            "wall_s": elapsed,
                            "error": f"job exceeded timeout "
                                     f"({timeout_s:g}s) and was killed"})
                        continue
                    deadlines.append(timeout_s - elapsed)
                if straggler_s is None or run.straggler:
                    continue
                if elapsed > straggler_s:
                    run.straggler = True
                    logger.warning(
                        "job %d is a straggler: %.1fs elapsed, past "
                        "%.1fs (%gx the median completed attempt, at "
                        "least %gs)", run.job.index, elapsed,
                        straggler_s, STRAGGLER_FACTOR, STRAGGLER_MIN_S)
                    notify("straggler", run.job, elapsed_s=elapsed)
                else:
                    deadlines.append(straggler_s - elapsed)
            if not active:
                continue
            ready = connection_wait(
                [run.conn for run in active],
                timeout=max(0.0, min(deadlines)) if deadlines else None)
            by_conn = {run.conn: run for run in active}
            for conn in ready:
                run = by_conn[conn]
                status, info = _receive(run)
                active.remove(run)
                if status == "ok":
                    walls.append(info["wall_s"])
                if settle(run.job, status, info):
                    queue.append(run.job)
    except BaseException:
        # Ctrl-C (or any parent-side failure): kill the children so
        # the interpreter's atexit join doesn't hang on orphaned
        # simulations.
        for run in active:
            run.process.terminate()
        for run in active:
            run.process.join(timeout=5.0)
            run.conn.close()
        raise
