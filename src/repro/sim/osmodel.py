"""Operating-system scheduling-latency model (paper §2.3 and Fig. 10).

When a vRAN worker thread yields its core and is later signalled to wake
up, the Linux kernel introduces a wakeup latency.  Most wakeups resolve
within a few microseconds, but the kernel is not fully preemptible: an
interrupt, RCU callback or a system call issued by a collocated
workload can hold the core in a non-preemptible section, producing rare
latencies of hundreds of microseconds to milliseconds.  The paper's
Fig. 10 histograms (0-1 µs up to 128-255 µs buckets, heavier under
collocation) and §2.3 ("tens of microseconds to tens of milliseconds")
anchor the mixture distributions below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fastrng import FastRng

__all__ = ["WakeupLatencyModel", "LatencyBucket"]


@dataclass(frozen=True)
class LatencyBucket:
    """One component of the wakeup-latency mixture."""

    probability: float
    low_us: float
    high_us: float


#: Isolated vRAN: body of a few µs, tail capped around 200 µs (Fig. 10a).
ISOLATED_BUCKETS: tuple[LatencyBucket, ...] = (
    LatencyBucket(0.82, 0.5, 3.0),
    LatencyBucket(0.12, 3.0, 16.0),
    LatencyBucket(0.05, 16.0, 64.0),
    LatencyBucket(0.0095, 64.0, 128.0),
    LatencyBucket(0.0005, 128.0, 200.0),
)

#: Collocated workloads: heavier tail, plus a rare kernel
#: non-preemptible-section stall in the millisecond range (§2.3).
COLLOCATED_BUCKETS: tuple[LatencyBucket, ...] = (
    LatencyBucket(0.70, 0.5, 4.0),
    LatencyBucket(0.18, 4.0, 16.0),
    LatencyBucket(0.08, 16.0, 64.0),
    LatencyBucket(0.035, 64.0, 128.0),
    LatencyBucket(0.0039, 128.0, 256.0),
    LatencyBucket(0.0008, 400.0, 2000.0),
    LatencyBucket(0.0003, 2000.0, 10000.0),
)


class WakeupLatencyModel:
    """Samples worker wakeup latencies from a calibrated mixture."""

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        isolated_buckets: Sequence[LatencyBucket] = ISOLATED_BUCKETS,
        collocated_buckets: Sequence[LatencyBucket] = COLLOCATED_BUCKETS,
    ) -> None:
        self.rng = FastRng(rng if rng is not None else np.random.default_rng(11))
        self._isolated = self._normalize(isolated_buckets)
        self._collocated = self._normalize(collocated_buckets)
        # Per-mode blocks of presampled latencies, refilled vectorized;
        # consumed back-to-front so sample() is a list pop.
        self._presampled: dict[bool, list[float]] = {False: [], True: []}
        #: Optional repro.obs.events.EventBus; the pool attaches its bus
        #: here so raw latency samples can be audited independently of
        #: the pool-level wakeup events.
        self.event_bus = None

    @staticmethod
    def _normalize(
        buckets: Sequence[LatencyBucket],
    ) -> tuple[np.ndarray, list[LatencyBucket]]:
        probs = np.array([b.probability for b in buckets], dtype=np.float64)
        total = probs.sum()
        if total <= 0:
            raise ValueError("bucket probabilities must sum to a positive value")
        return np.cumsum(probs / total), list(buckets)

    def _refill(self, collocated: bool, n: int = 256) -> list[float]:
        """Presample a block of ``n`` latencies with two vectorized draws."""
        cumulative, buckets = self._collocated if collocated else self._isolated
        lows = np.array([b.low_us for b in buckets])
        spans = np.array([b.high_us - b.low_us for b in buckets])
        gen = self.rng.generator
        idx = np.minimum(
            np.searchsorted(cumulative, gen.random(n), side="right"),
            len(buckets) - 1,
        )
        block = (lows[idx] + spans[idx] * gen.random(n)).tolist()
        self._presampled[collocated] = block
        return block

    def sample(self, collocated: bool) -> float:
        """One wakeup latency in µs (served from a presampled block)."""
        block = self._presampled[collocated]
        if not block:
            block = self._refill(collocated)
        latency = block.pop()
        bus = self.event_bus
        if bus is not None and bus.enabled:
            from ..obs.events import REC_WAKEUP
            bus.record(REC_WAKEUP, bus.now(), "wakeup_sample", latency,
                       -1, collocated, False)
        return latency

    def peek(self, collocated: bool) -> float:
        """The latency the *next* :meth:`sample` call will return.

        Non-consuming: the block is refilled if empty (the same refill
        point ``sample`` would hit, on the model's private stream, so
        peeking never perturbs draw order) but the value stays at the
        tail of the block for ``sample`` to pop.  The vectorized slot
        kernel peeks the boundary wakeup draw while deciding whether a
        slot's closed-form schedule is collision-free; certification
        already guarantees the event bus is disabled, so no bus record
        is skipped by peeking.
        """
        block = self._presampled[collocated]
        if not block:
            block = self._refill(collocated)
        return block[-1]

    def max_latency_us(self, collocated: bool) -> float:
        """Hard upper bound of any latency :meth:`sample` can return.

        The mixture draws uniformly within its buckets, so the bound is
        the largest bucket ceiling (200 µs isolated).  The array-timeline
        kernel uses it in its slot makespan pre-check: a slot is only
        committed in closed form when even worst-case wakeups plus
        worst-case task runtimes fit inside the slot.
        """
        _, buckets = self._collocated if collocated else self._isolated
        return max(b.high_us for b in buckets)

    def expected_body_us(self, collocated: bool) -> float:
        """Mean latency excluding the rare kernel-stall component.

        The Concordia scheduler uses this as its notion of "a wakeup
        that is taking suspiciously long" when compensating for cores
        that fail to come up (§3).
        """
        cumulative, buckets = self._collocated if collocated else self._isolated
        probs = np.diff(np.concatenate(([0.0], cumulative)))
        mean = 0.0
        mass = 0.0
        for p, bucket in zip(probs, buckets):
            if bucket.high_us > 300.0:
                continue
            mean += p * 0.5 * (bucket.low_us + bucket.high_us)
            mass += p
        return mean / mass if mass > 0 else 5.0
