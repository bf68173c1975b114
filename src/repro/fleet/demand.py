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


class _CellTally:
    """One cell's digest stream and demand accumulators."""

    __slots__ = ("hash", "work_sum", "crit_sum", "peak_work", "slots",
                 "dags")

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.work_sum = 0.0
        self.crit_sum = 0.0
        self.peak_work = 0.0
        self.slots = 0
        self.dags = 0


class ShardDemandRecorder:
    """Accumulates per-cell digests and demand over one shard's run."""

    def __init__(self, cells: Sequence[CellConfig], deadline_us: float,
                 critical_margin_us: float = 20.0) -> None:
        self.deadline_us = deadline_us
        self.critical_margin_us = critical_margin_us
        self._tallies: Dict[str, _CellTally] = {
            cell.name: _CellTally() for cell in cells}

    def __call__(self, jobs: list, costed: tuple, span: tuple) -> None:
        """Observe one slot's DAG rows (all cells) at window-fill time.

        ``jobs`` and ``costed`` are the window's build jobs and
        :meth:`~repro.ran.dag.DagBuilder.costed_rows` columns; ``span``
        is this slot's ``(first job, end job, first row, end row)``.
        """
        costs, _cbs, _bytes, _margins, _probes, mults, cache_us, \
            cache_tails = costed
        first, end, row = span[:3]
        tallies = self._tallies
        slot_work: Dict[_CellTally, float] = {}
        slot_crit: Dict[_CellTally, float] = {}
        for load, cell, _release, _deadline, _index in jobs[first:end]:
            tally = tallies[cell.name]
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
            tally.hash.update(";".join(parts).encode())
            work = 0.0
            for cost in sampled:  # left fold; sum() compensates (3.12+)
                work += cost
            slot_work[tally] = slot_work.get(tally, 0.0) + work
            slot_crit[tally] = max(slot_crit.get(tally, 0.0),
                                   _critical_path(topology, sampled))
            tally.dags += 1
        for tally, work in slot_work.items():
            tally.work_sum += work
            tally.crit_sum += slot_crit[tally]
            tally.peak_work = max(tally.peak_work, work)
            tally.slots += 1

    # -- elastic migration -------------------------------------------------------

    def detach_cell(self, name: str) -> _CellTally:
        """Stop tracking one cell; returns its live tally.

        The tally's SHA-256 object travels with the cell: the
        destination recorder keeps appending to the same stream, so the
        final per-cell digest of a migrated cell is byte-identical to
        an unmigrated run's.
        """
        return self._tallies.pop(name)

    def attach_cell(self, name: str, tally: _CellTally) -> None:
        """Adopt a cell with the tally another recorder detached."""
        if name in self._tallies:
            raise ValueError(f"recorder already tracks cell {name!r}")
        self._tallies[name] = tally

    # -- results -----------------------------------------------------------------

    def cell_digests(self) -> Dict[str, str]:
        """SHA-256 hex digest of each cell's sampled demand trace."""
        return {name: tally.hash.hexdigest()
                for name, tally in self._tallies.items()}

    def cell_demand(self, name: str) -> CoreDemand:
        """Federated core demand of one cell at its mean per-slot load."""
        tally = self._tallies[name]
        if tally.slots == 0:
            return CoreDemand(0, False)
        return federated_core_demand(
            tally.work_sum / tally.slots,
            tally.crit_sum / tally.slots,
            slack_us=self.deadline_us,
            critical_margin_us=self.critical_margin_us,
        )

    def shard_demand(self) -> CoreDemand:
        """Aggregate demand over all of the shard's cells."""
        return aggregate_demand(
            self.cell_demand(name) for name in self._tallies)

    def demand_payload(self) -> dict:
        """JSON-able per-cell and aggregate demand summary."""
        cells = {}
        for name, tally in self._tallies.items():
            demand = self.cell_demand(name)
            slots = max(1, tally.slots)
            cells[name] = {
                "cores": demand.cores,
                "critical": demand.critical,
                "mean_work_us": tally.work_sum / slots,
                "mean_critical_path_us": tally.crit_sum / slots,
                "peak_work_us": tally.peak_work,
                "slots": tally.slots,
                "dags": tally.dags,
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
