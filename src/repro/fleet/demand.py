"""Per-cell sampling digests and federated core-demand rollups.

The :class:`ShardDemandRecorder` hangs off
``Simulation.demand_observer`` and sees every slot's DAG rows when the
window fill draws them — after the counter-keyed Philox draws have
fixed each task's base cost, ``stoch_mult`` and ``cache_*`` presamples,
before any scheduling happens, and whether or not the slot's DAGs are
ever built.  From that it derives two things:

* **per-cell sampling digests** — a SHA-256 over each cell's complete
  sampled demand trace (slot, direction, task costs and stochastic
  multipliers, in build order).  Because every draw involved is keyed
  by ``(global cell id, slot, direction)``, the digest is a pure
  function of ``(fleet seed, global cell id)``: it must be
  byte-identical whether the cell sits in a 50-cell pool or a 13-cell
  shard.  This is the fleet-scale proof of the PR-3 invariant that
  sampling is interleaving-independent.
* **federated core demand** — per cell, the mean per-slot work and
  critical path feed Li et al.'s federated allocation rule
  (:func:`repro.core.federated.federated_core_demand`); per shard the
  cells' demands aggregate via
  :func:`repro.core.federated.aggregate_demand` into the provisioning
  numbers the planner rolls up fleet-wide.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence

from ..core.federated import CoreDemand, aggregate_demand, \
    federated_core_demand
from ..ran.config import CellConfig
from ..ran.dag import dag_kind_key, topology_for_key
from .report import latency_histogram

__all__ = ["ShardDemandRecorder"]


class ShardDemandRecorder:
    """Accumulates per-cell digests and demand over one shard's run."""

    def __init__(self, cells: Sequence[CellConfig], deadline_us: float,
                 critical_margin_us: float = 20.0) -> None:
        self.deadline_us = deadline_us
        self.critical_margin_us = critical_margin_us
        self._hash: Dict[str, "hashlib._Hash"] = {
            cell.name: hashlib.sha256() for cell in cells}
        self._work_sum = {cell.name: 0.0 for cell in cells}
        self._crit_sum = {cell.name: 0.0 for cell in cells}
        self._peak_work = {cell.name: 0.0 for cell in cells}
        self._slots = {cell.name: 0 for cell in cells}
        self._dags = {cell.name: 0 for cell in cells}

    def __call__(self, jobs: list, costed: tuple, span: tuple) -> None:
        """Observe one slot's DAG rows (all cells) at window-fill time.

        ``jobs`` and ``costed`` are the window's build jobs and
        :meth:`~repro.ran.dag.DagBuilder.costed_rows` columns; ``span``
        is this slot's ``(first job, end job, first row, end row)``.
        """
        costs, _cbs, _bytes, _margins, _probes, mults, cache_us, \
            cache_tails = costed
        first, end, row = span[:3]
        slot_work: Dict[str, float] = {}
        slot_crit: Dict[str, float] = {}
        for load, cell, _release, _deadline, _index in jobs[first:end]:
            name = cell.name
            topology = topology_for_key(dag_kind_key(load))
            rows = slice(row, row + topology.num_tasks)
            row = rows.stop
            bases = costs[rows]
            factors = mults[rows]
            sampled = [base * mult for base, mult in zip(bases, factors)]
            # The digest covers everything sampling determines for the
            # DAG: structure (task count tracks the UE allocations) and
            # the presampled stochastic draws.  repr() renders the
            # shortest exact round-trip of each double, so any
            # ULP-level drift changes the digest.
            parts = [f"{load.slot_index}|{1 if load.uplink else 0}"
                     f"|{topology.num_tasks}"]
            parts.extend(f"{base!r},{mult!r},{cache_u!r},{cache_tail!r}"
                         for base, mult, cache_u, cache_tail in zip(
                             bases, factors, cache_us[rows],
                             cache_tails[rows]))
            self._hash[name].update(";".join(parts).encode())
            work = 0.0
            for cost in sampled:  # left fold; sum() compensates (3.12+)
                work += cost
            slot_work[name] = slot_work.get(name, 0.0) + work
            slot_crit[name] = max(slot_crit.get(name, 0.0),
                                  _critical_path(topology, sampled))
            self._dags[name] += 1
        for name, work in slot_work.items():
            self._work_sum[name] += work
            self._crit_sum[name] += slot_crit[name]
            self._peak_work[name] = max(self._peak_work[name], work)
            self._slots[name] += 1

    # -- elastic migration -------------------------------------------------------

    def detach_cell(self, name: str) -> dict:
        """Remove one cell's accumulators; returns the carry state.

        The live hash object travels with the cell: the destination
        recorder keeps appending to the same SHA-256 stream, so the
        final per-cell digest of a migrated cell is byte-identical to
        an unmigrated run's.
        """
        return {
            "hash": self._hash.pop(name),
            "work_sum": self._work_sum.pop(name),
            "crit_sum": self._crit_sum.pop(name),
            "peak_work": self._peak_work.pop(name),
            "slots": self._slots.pop(name),
            "dags": self._dags.pop(name),
        }

    def attach_cell(self, name: str, carry: dict = None) -> None:
        """Adopt a cell, resuming from ``carry`` (or fresh counters)."""
        if name in self._hash:
            raise ValueError(f"recorder already tracks cell {name!r}")
        if carry is None:
            carry = {"hash": hashlib.sha256(), "work_sum": 0.0,
                     "crit_sum": 0.0, "peak_work": 0.0, "slots": 0,
                     "dags": 0}
        self._hash[name] = carry["hash"]
        self._work_sum[name] = carry["work_sum"]
        self._crit_sum[name] = carry["crit_sum"]
        self._peak_work[name] = carry["peak_work"]
        self._slots[name] = carry["slots"]
        self._dags[name] = carry["dags"]

    # -- results -----------------------------------------------------------------

    def cell_digests(self) -> Dict[str, str]:
        """SHA-256 hex digest of each cell's sampled demand trace."""
        return {name: h.hexdigest() for name, h in self._hash.items()}

    def cell_demand(self, name: str) -> CoreDemand:
        """Federated core demand of one cell at its mean per-slot load."""
        slots = self._slots[name]
        if slots == 0:
            return CoreDemand(0, False)
        return federated_core_demand(
            self._work_sum[name] / slots,
            self._crit_sum[name] / slots,
            slack_us=self.deadline_us,
            critical_margin_us=self.critical_margin_us,
        )

    def shard_demand(self) -> CoreDemand:
        """Aggregate demand over all of the shard's cells."""
        return aggregate_demand(
            self.cell_demand(name) for name in self._hash)

    def demand_payload(self) -> dict:
        """JSON-able per-cell and aggregate demand summary."""
        cells = {}
        for name in self._hash:
            demand = self.cell_demand(name)
            slots = max(1, self._slots[name])
            cells[name] = {
                "cores": demand.cores,
                "critical": demand.critical,
                "mean_work_us": self._work_sum[name] / slots,
                "mean_critical_path_us": self._crit_sum[name] / slots,
                "peak_work_us": self._peak_work[name],
                "slots": self._slots[name],
                "dags": self._dags[name],
            }
        total = self.shard_demand()
        return {
            "cells": cells,
            "cores": total.cores,
            "critical": total.critical,
            "deadline_us": self.deadline_us,
        }

    def summary(self, slot_latencies_us: Sequence[float]) -> dict:
        """The shard's ``SimulationResult.demand``: digests, demand and
        the slot-latency histogram the fleet report merges."""
        return {
            "cell_digests": self.cell_digests(),
            "demand": self.demand_payload(),
            "histogram": latency_histogram(slot_latencies_us,
                                           self.deadline_us),
        }


def _critical_path(topology, costs: list) -> float:
    """Longest chain of ``costs`` through one DAG's ``topology``.

    ``costs`` are the presampled isolated runtimes (a build-time WCET
    proxy) in topological order, so one reverse sweep suffices.
    """
    longest = costs[:]
    successors = topology.successors
    for i in range(len(costs) - 1, -1, -1):
        tail = 0.0
        for j in successors[i]:
            if longest[j] > tail:
                tail = longest[j]
        longest[i] += tail
    return max(longest)
