"""Host-speed probe that scales the benchmark's times to a reference host.

On a shared host, other tenants slow every process by up to ~40 % for
minutes at a time, far beyond the changes the benchmark must resolve.
A fixed pure-Python loop timed alongside a measured phase slows by
nearly the same factor, so each time is reported in *reference
seconds*: host seconds × :data:`REFERENCE_S` / probe time, the time the
phase would have taken on a host running the probe at its quiet-host
speed.  The probe runs no code of the repository, so a slower or faster
program moves the reported times one for one.

A round is probed right before and after it (:func:`reading`), on as
many processes as it keeps busy.  A set-up, tens of seconds long or
made mostly of imports, is probed throughout by a :class:`Sampler`.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: Iterations of the probe loop, and loops per reading.
PROBE_LOOPS = 130_000
PROBE_REPEATS = 5

#: A sampler times a loop of ``PROBE_LOOPS // SAMPLE_SHARE`` iterations
#: every ``INTERVAL_S``: about 1 % of the sampled phase.
SAMPLE_SHARE = 20
INTERVAL_S = 0.05

#: A one-process reading on a quiet 2-vCPU Xeon VM.
REFERENCE_S = 0.0085


def _loop(iterations: int) -> float:
    """Time of one run of a fixed integer loop."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return time.perf_counter() - start


def reading(processes: int = 1) -> float:
    """Median of ``PROBE_REPEATS`` loops, averaged over ``processes``
    processes probing at once: this one and forked helpers.

    A helper runs only the loop and one pipe write before ``_exit``, so
    forking is safe even beside numpy's threads; the batch runner it
    measures forks its jobs from the same process.
    """
    def probe() -> float:
        return statistics.median(_loop(PROBE_LOOPS)
                                 for _ in range(PROBE_REPEATS))
    pipes = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            os.write(write_fd, repr(probe()).encode())
            os._exit(0)
        os.close(write_fd)
        pipes.append((pid, read_fd))
    times = [probe()]
    for pid, read_fd in pipes:
        with os.fdopen(read_fd) as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return statistics.mean(times)


class Sampler:
    """Samples host speed on a daemon thread from construction until
    :meth:`stop`.  Each short loop runs while holding the interpreter
    lock, so it times the host, not the phase's own work."""

    def __init__(self) -> None:
        self._times: list = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._done.wait(INTERVAL_S):
            self._times.append(
                _loop(PROBE_LOOPS // SAMPLE_SHARE) * SAMPLE_SHARE)

    def stop(self) -> float:
        """The median sample, in :func:`reading` units (a reading if the
        phase was shorter than one interval)."""
        self._done.set()
        self._thread.join()
        return statistics.median(self._times) if self._times else reading()


def to_reference(host_s: float, *readings: float) -> float:
    """``host_s`` host seconds in reference seconds, given the readings
    taken around them."""
    return host_s * REFERENCE_S / statistics.mean(readings)
