"""Cache-interference model (paper §2.3, §4.1, Fig. 7b and Fig. 9).

Collocated best-effort workloads pollute the last-level cache shared
with the vRAN pool cores, inflating signal-processing runtimes and —
more importantly for reliability — making their distributions
heavier-tailed (the paper's KS tests show the collocated runtime
distributions are statistically distinct from the isolated ones).

The model has two drivers:

* **pressure** — how aggressively the active best-effort workloads use
  the memory hierarchy (a per-workload constant; e.g. MLPerf training
  streams far more data than Nginx serving small files);
* **churn** — how often the vRAN acquires/releases cores.  Every
  hand-off costs the vRAN its warm working set; this is why vanilla
  FlexRAN (frequent yields) sees ~25 % extra stall cycles per
  instruction while Concordia (proactive, stable reservations) stays
  below 2 % (Fig. 9).

Churn is tracked as an exponentially-weighted rate of scheduling events
per millisecond, updated by the pool.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["CacheInterferenceModel", "l1_miss_increase",
           "llc_load_increase"]

#: Scheduling-event rate (events/ms) at which churn saturates.  Vanilla
#: FlexRAN at a moderate load produces ~10-15 acquire/release events per
#: millisecond; Concordia's proactive reservations produce a few.
_CHURN_SATURATION_PER_MS = 15.0

#: EWMA time constant for the churn estimate (µs).
_CHURN_TAU_US = 5000.0


class CacheInterferenceModel:
    """Tracks collocation pressure/churn and turns it into runtime inflation.

    The model draws nothing itself: each task brings its presampled
    trigger and tail magnitude (``cache_u``/``cache_tail``, drawn per
    DAG by :meth:`repro.ran.dag.DagBuilder.draw_window`) to
    :meth:`multipliers_for`.
    """

    def __init__(self) -> None:
        self.pressure = 0.0  # set by the active best-effort workloads
        self._churn_rate_per_ms = 0.0
        self._last_event_us: Optional[float] = None
        # Same-timestamp memo for churn_factor: a dispatch round starts
        # several tasks at one engine time, and the EWMA only moves on
        # record_scheduling_event, so the decayed value is constant
        # in between.
        # (two scalar fields, not a tuple: the memo is checked once per
        # task start and the tuple pack/unpack was measurable)
        self._churn_memo_now = -1.0
        self._churn_memo_val = 0.0
        # Running statistics for the Fig. 9 perf-counter proxies.
        self._stall_samples = 0
        self._stall_sum = 0.0

    # -- state updates -------------------------------------------------------

    def set_pressure(self, pressure: float) -> None:
        """Cache pressure in [0, 1] exerted by active workloads."""
        self.pressure = min(1.0, max(0.0, pressure))

    def record_scheduling_event(self, now_us: float) -> None:
        """Fold one core acquire/release into the churn EWMA."""
        if self._last_event_us is None:
            self._last_event_us = now_us
            self._churn_rate_per_ms = 1.0 / (_CHURN_TAU_US / 1000.0)
            self._churn_memo_now = -1.0
            return
        dt = max(now_us - self._last_event_us, 1e-6)
        decay = math.exp(-dt / _CHURN_TAU_US)
        instantaneous = 1000.0 / dt  # events per ms implied by this gap
        self._churn_rate_per_ms = (
            decay * self._churn_rate_per_ms + (1.0 - decay) * instantaneous
        )
        self._last_event_us = now_us
        self._churn_memo_now = -1.0

    def decayed_churn(self, now_us: float) -> float:
        """Churn EWMA decayed to ``now_us`` without adding an event."""
        if self._last_event_us is None:
            return 0.0
        dt = max(now_us - self._last_event_us, 0.0)
        return self._churn_rate_per_ms * math.exp(-dt / _CHURN_TAU_US)

    def churn_factor(self, now_us: float) -> float:
        """Normalized churn in [0, 1]."""
        if self._churn_memo_now == now_us:
            return self._churn_memo_val
        value = min(1.0,
                    self.decayed_churn(now_us) / _CHURN_SATURATION_PER_MS)
        self._churn_memo_now = now_us
        self._churn_memo_val = value
        return value

    # -- interference sampling -------------------------------------------------

    def stall_increase(self, now_us: float) -> float:
        """Fractional increase in stall cycles per instruction (Fig. 9).

        Superlinear in churn: a pool that constantly hands cores back
        and forth never keeps a warm working set, while a handful of
        hand-offs per millisecond barely register (FlexRAN ≈ +25 % vs
        Concordia < +2 % in the paper's Redis experiment).
        """
        churn = self.churn_factor(now_us)
        return 0.55 * self.pressure * churn * churn

    def multipliers_for(self, now_us: float, u: float,
                        tail_value: float) -> tuple[float, float]:
        """(mean multiplier, tail multiplier) for one task execution.

        The mean multiplier converts extra stalls into runtime; the tail
        multiplier is 1.0 except for rare cache-thrash spikes whose
        probability grows with pressure and churn (heavier-tailed
        distributions of Fig. 7b).  ``u`` is the task's uniform [0, 1)
        trigger and ``tail_value`` its spike magnitude, both drawn ahead
        of time; comparing the presampled uniform against the
        *state-dependent* tail probability here yields the same
        distribution as drawing at execution time.
        """
        # Inline of churn_factor()/decayed_churn(): this runs once per
        # task start, and the two-call chain plus max() showed up in
        # the Fig. 15a hot-path profile.  Values are identical.
        if self._churn_memo_now == now_us:
            churn = self._churn_memo_val
        else:
            last = self._last_event_us
            if last is None:
                churn = 0.0
            else:
                dt = now_us - last
                if dt < 0.0:
                    dt = 0.0
                decayed = self._churn_rate_per_ms * math.exp(
                    -dt / _CHURN_TAU_US)
                churn = decayed / _CHURN_SATURATION_PER_MS
                if churn > 1.0:
                    churn = 1.0
            self._churn_memo_now = now_us
            self._churn_memo_val = churn
        stall = 0.55 * self.pressure * churn * churn  # == stall_increase
        self._stall_samples += 1
        self._stall_sum += stall
        mean_multiplier = 1.0 + 0.6 * stall
        tail_prob = 0.0002 + 0.004 * self.pressure * (0.1 + 0.9 * churn * churn)
        if self.pressure > 0 and u < tail_prob:
            tail = tail_value
        else:
            tail = 1.0
        return mean_multiplier, tail

    def record_neutral_samples(self, count: int) -> None:
        """Fold ``count`` zero-pressure stall samples into the averages.

        A certified slot replayed in closed form would have called
        :meth:`multipliers_for` once per task start, each contributing
        a ``stall`` of exactly 0.0 (certification requires zero
        pressure).  Only the sample count moves — ``_stall_sum += 0.0``
        is a float identity — so the vectorized kernel records the
        samples in one call and ``mean_stall_increase`` stays
        bit-identical to the event path.
        """
        self._stall_samples += count

    # -- reporting ---------------------------------------------------------------

    @property
    def mean_stall_increase(self) -> float:
        """Average stall-cycle increase over all sampled task executions."""
        if self._stall_samples == 0:
            return 0.0
        return self._stall_sum / self._stall_samples


# -- Fig. 9 proxies of a run's mean_stall_increase ---------------------------------


def l1_miss_increase(stall_increase: float) -> float:
    """Proxy for Fig. 9's L1-misses-per-instruction increase."""
    return 0.6 * stall_increase


def llc_load_increase(stall_increase: float) -> float:
    """Proxy for Fig. 9's LLC-loads-per-instruction increase."""
    return 0.8 * stall_increase
