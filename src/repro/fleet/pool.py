"""The persistent forked-worker pool backing the fleet planner.

Unlike :mod:`repro.exec.batch` — which forks one process per job —
this pool forks ``workers`` children *once* and keeps them warm: each
worker runs :func:`repro.fleet.worker.shard_worker_loop`, serving any
number of jobs over a duplex pipe.  The parent multiplexes completions
with :func:`multiprocessing.connection.wait`, so it burns no CPU while
shards simulate and reacts to the first completion immediately (the
same primitive replaced ``exec.batch``'s poll loop).

A worker that dies mid-job surfaces as an EOF on its pipe; the pool
retires it and reports the failure to the caller rather than crashing
the fleet run.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional

from .worker import shard_worker_loop

__all__ = ["ShardWorkerPool", "WorkerMessage"]


def _mp_context():
    """Fork when available (workers inherit the parent's warm state)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def _close_process(process) -> None:
    """Release a joined worker's Process handle (its sentinel fd).

    Long planner sessions retire many workers; without this the
    sentinel pipe fd of every dead worker leaks until the Process
    object is garbage-collected.  A process that refused to die keeps
    its handle (``close()`` on a live process raises), which only
    happens on the hard-kill path for a wedged child.
    """
    try:
        process.close()
    except ValueError:  # still alive after terminate+join
        pass


@dataclass
class WorkerMessage:
    """One completion delivered by :meth:`ShardWorkerPool.wait`."""

    worker_id: int
    status: str  # "ok" | "error" | "died"
    payload: dict = field(default_factory=dict)


@dataclass
class _Worker:
    worker_id: int
    process: multiprocessing.Process
    conn: object
    busy: bool = False


class ShardWorkerPool:
    """A fixed set of warm forked workers speaking the shard protocol."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self._requested = workers
        self._workers: Dict[int, _Worker] = {}
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("pool already started")
        ctx = _mp_context()
        for worker_id in range(self._requested):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=shard_worker_loop,
                args=(child_conn, worker_id),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers[worker_id] = _Worker(
                worker_id=worker_id, process=process, conn=parent_conn)
        self._started = True

    def shutdown(self, timeout_s: float = 5.0) -> None:
        """Stop every worker: polite ``stop``, then terminate stragglers."""
        for worker in self._workers.values():
            try:
                worker.conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers.values():
            worker.process.join(timeout=timeout_s)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=timeout_s)
            worker.conn.close()
            _close_process(worker.process)
        self._workers.clear()
        self._started = False

    def terminate(self) -> None:
        """Hard-kill everything (Ctrl-C path)."""
        for worker in self._workers.values():
            worker.process.terminate()
        for worker in self._workers.values():
            worker.process.join(timeout=5.0)
            worker.conn.close()
            _close_process(worker.process)
        self._workers.clear()
        self._started = False

    def __enter__(self) -> "ShardWorkerPool":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.shutdown()
        else:
            self.terminate()

    # -- work --------------------------------------------------------------------

    @property
    def alive(self) -> int:
        return len(self._workers)

    def idle_workers(self) -> List[int]:
        return [w.worker_id for w in self._workers.values() if not w.busy]

    def submit(self, worker_id: int, payload: dict) -> None:
        """Dispatch one shard job to an idle worker."""
        worker = self._workers[worker_id]
        if worker.busy:
            raise RuntimeError(f"worker {worker_id} is busy")
        try:
            worker.conn.send(("run", payload))
        except (BrokenPipeError, OSError) as exc:
            # The worker died between wait() and submit(): retire it
            # (closing both the pipe and the process handle) so the
            # caller can requeue the shard on a surviving worker.
            worker.process.join(timeout=5.0)
            worker.conn.close()
            _close_process(worker.process)
            del self._workers[worker_id]
            raise RuntimeError(
                f"worker {worker_id} died before accepting work"
            ) from exc
        worker.busy = True

    def wait(self, timeout: Optional[float] = None) -> List[WorkerMessage]:
        """Block until >= 1 busy worker reports (or the timeout passes).

        Returns completions in worker-id order; a worker that died
        without reporting comes back as status ``"died"`` and is
        retired from the pool.
        """
        busy = {w.conn: w for w in self._workers.values() if w.busy}
        if not busy:
            return []
        ready = connection_wait(list(busy), timeout=timeout)
        messages = []
        for conn in sorted(ready, key=lambda c: busy[c].worker_id):
            worker = busy[conn]
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                worker.process.join(timeout=5.0)
                exitcode = worker.process.exitcode
                conn.close()
                _close_process(worker.process)
                del self._workers[worker.worker_id]
                messages.append(WorkerMessage(
                    worker_id=worker.worker_id,
                    status="died",
                    payload={"error": f"worker exited with code "
                                      f"{exitcode} without reporting"},
                ))
                continue
            worker.busy = False
            messages.append(WorkerMessage(
                worker_id=worker.worker_id, status=status,
                payload=payload))
        return messages
