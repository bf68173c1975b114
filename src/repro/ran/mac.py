"""MAC-layer radio scheduling (paper §7's 'other workloads' extension).

The paper points out that MAC schedulers are themselves deadline tasks
a vRAN pool could run, and that their complexity grows with users and
antennas.  This module provides a self-contained MAC substrate:

* :class:`UeSession` — a user with Poisson-burst downlink/uplink
  arrivals into an RLC buffer, and a slowly varying SNR
  (Ornstein-Uhlenbeck around a per-UE mean, modelling shadowing);
* :class:`ProportionalFairScheduler` — the classic PF rule: each slot,
  schedule the UEs with the largest instantaneous-rate / average-
  throughput ratio, split PRBs among them, and size transport blocks
  from the selected MCS;
* :class:`RoundRobinScheduler` — the fairness-agnostic baseline.

A scenario with ``allocation="mac"`` replaces the i.i.d.
byte-splitting of :func:`repro.ran.ue.bytes_to_allocations` with this
buffer-driven pipeline, making per-slot allocations correlated the way
real cells are (backlogged users persist across TTIs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import CellConfig
from .tasks import prbs_for_bandwidth
from .ue import UeAllocation, mcs_for_snr

__all__ = ["UeSession", "ProportionalFairScheduler",
           "RoundRobinScheduler", "MacCell"]

#: Throughput-averaging horizon of the PF metric (slots).
_PF_HORIZON = 100.0

#: Spectral-efficiency to payload factor: bytes a UE can carry on a
#: fraction of the band in one slot, per bit/s/Hz of its MCS.
_SYMBOLS_PER_PRB_PER_SLOT = 12 * 14  # subcarriers x OFDM symbols


@dataclass
class UeSession:
    """One attached user: traffic arrivals, buffer and link state."""

    ue_id: int
    mean_rate_bps: float
    mean_snr_db: float
    burst_mean_bytes: float = 4000.0
    snr_volatility_db: float = 2.0
    buffer_bytes: int = 0
    avg_throughput_bps: float = 1.0
    snr_db: float = field(default=None)

    def __post_init__(self) -> None:
        if self.mean_rate_bps < 0:
            raise ValueError("mean rate must be non-negative")
        if self.snr_db is None:
            self.snr_db = self.mean_snr_db

    def arrive(self, slot_duration_us: float,
               rng: np.random.Generator) -> None:
        """Poisson-burst arrivals into the RLC buffer."""
        mean_bytes_per_slot = self.mean_rate_bps / 8.0 * \
            slot_duration_us / 1e6
        if mean_bytes_per_slot <= 0:
            return
        burst_rate = mean_bytes_per_slot / self.burst_mean_bytes
        bursts = rng.poisson(burst_rate)
        for __ in range(bursts):
            self.buffer_bytes += int(rng.exponential(self.burst_mean_bytes))

    def fade(self, rng: np.random.Generator, theta: float = 0.05) -> None:
        """Ornstein-Uhlenbeck SNR evolution (slow shadowing)."""
        drift = theta * (self.mean_snr_db - self.snr_db)
        self.snr_db += drift + self.snr_volatility_db * math.sqrt(theta) \
            * rng.normal()

    def instantaneous_rate_bps(self, cell: CellConfig) -> float:
        """Rate if the whole band were granted this slot."""
        mcs = mcs_for_snr(self.snr_db)
        prbs = prbs_for_bandwidth(cell.bandwidth_mhz, cell.numerology)
        bits = mcs.spectral_efficiency * prbs * _SYMBOLS_PER_PRB_PER_SLOT
        return bits / (cell.slot_duration_us / 1e6)

    def record_service(self, served_bits: float,
                       slot_duration_us: float) -> None:
        """Update the PF throughput average after a slot."""
        instantaneous = served_bits / (slot_duration_us / 1e6)
        alpha = 1.0 / _PF_HORIZON
        self.avg_throughput_bps = (
            (1 - alpha) * self.avg_throughput_bps + alpha * instantaneous
        )


class ProportionalFairScheduler:
    """Max PF-metric user selection with equal PRB split."""

    name = "proportional_fair"

    def select(self, sessions: list, cell: CellConfig,
               max_ues: int) -> list:
        backlogged = [s for s in sessions if s.buffer_bytes > 0]
        backlogged.sort(
            key=lambda s: s.instantaneous_rate_bps(cell)
            / max(s.avg_throughput_bps, 1.0),
            reverse=True,
        )
        return backlogged[:max_ues]


class RoundRobinScheduler:
    """Cycle through backlogged users regardless of channel state."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next_index = 0

    def select(self, sessions: list, cell: CellConfig,
               max_ues: int) -> list:
        backlogged = [s for s in sessions if s.buffer_bytes > 0]
        if not backlogged:
            return []
        start = self._next_index % len(backlogged)
        self._next_index += max_ues
        ordered = backlogged[start:] + backlogged[:start]
        return ordered[:max_ues]


class MacCell:
    """Per-cell MAC state machine producing per-slot UE allocations."""

    def __init__(
        self,
        cell: CellConfig,
        num_ues: int,
        total_rate_bps: float,
        scheduler=None,
        rng: Optional[np.random.Generator] = None,
        mean_snr_db: float = 15.0,
    ) -> None:
        if num_ues < 1:
            raise ValueError("need at least one UE")
        self.cell = cell
        self.scheduler = scheduler if scheduler is not None else \
            ProportionalFairScheduler()
        self.rng = rng if rng is not None else np.random.default_rng(29)
        # Heterogeneous users: rates and channel quality vary.
        shares = self.rng.dirichlet(np.ones(num_ues) * 3.0)
        self.sessions = [
            UeSession(
                ue_id=i,
                mean_rate_bps=float(total_rate_bps * shares[i]),
                mean_snr_db=float(self.rng.normal(mean_snr_db, 5.0)),
            )
            for i in range(num_ues)
        ]

    def step(self) -> tuple:
        """Advance one TTI: arrivals, fading, scheduling.

        Returns the slot's :class:`UeAllocation` tuple (possibly empty).
        """
        cell = self.cell
        slot_us = cell.slot_duration_us
        for session in self.sessions:
            session.arrive(slot_us, self.rng)
            session.fade(self.rng)
        chosen = self.scheduler.select(self.sessions, cell,
                                       cell.max_ues_per_slot)
        allocations = []
        if chosen:
            prbs = prbs_for_bandwidth(cell.bandwidth_mhz, cell.numerology)
            prb_share = prbs / len(chosen)
            for session in chosen:
                mcs = mcs_for_snr(session.snr_db)
                capacity_bits = (mcs.spectral_efficiency * prb_share
                                 * _SYMBOLS_PER_PRB_PER_SLOT)
                tbs = min(session.buffer_bytes, int(capacity_bits // 8))
                if tbs <= 0:
                    continue
                session.buffer_bytes -= tbs
                session.record_service(tbs * 8, slot_us)
                allocations.append(UeAllocation(
                    ue_id=session.ue_id,
                    tbs_bytes=tbs,
                    mcs=mcs,
                    layers=int(self.rng.integers(1, cell.max_layers + 1)),
                    snr_db=session.snr_db,
                ))
        # Unscheduled users' PF averages decay toward zero service.
        for session in self.sessions:
            if session not in chosen:
                session.record_service(0.0, slot_us)
        return tuple(allocations)

    @property
    def total_backlog_bytes(self) -> int:
        return sum(s.buffer_bytes for s in self.sessions)
