"""The fleet planner: shard assignment, dispatch and aggregation.

The planner owns a fleet run end to end:

1. derive the per-server shard scenarios from the
   :class:`FleetScenario`, each as one :class:`~repro.exec.spec.SimSpec`
   whose ``knobs["demand"]`` attaches the shard's demand recorder;
2. run them through :func:`repro.exec.batch.run_batch`, the batch
   runner ``repro sweep`` uses: shards already in the active result
   cache are served from it, ``jobs <= 1`` executes the rest
   in-process, in shard order (the serial baseline), otherwise at most
   ``jobs`` forked children run one shard attempt each.  Retries,
   stragglers and dead children follow the runner's one failure policy;
3. merge the per-shard results into a
   :class:`~repro.fleet.report.FleetReport` — fleet tail latency from
   merged histograms, reclaimed-CPU totals, per-server utilization,
   the federated demand rollup and the sharding-invariant per-cell
   digests.

Because a spec run is hermetic and the report merges in shard order,
a fleet run is byte-identical (modulo wall-clock telemetry) for any
``jobs`` and warm or cold cache; and because per-cell sampling is keyed
by global cell id, the per-cell digests are further invariant to the
*shard count* itself.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from typing import Callable, List, Optional

from ..exec.batch import check_jobs, run_batch
from ..exec.spec import build_spec_simulation
from ..experiments.common import make_spec
from .report import FleetReport, build_fleet_report, missed_slots
from .scenario import FleetScenario

__all__ = ["Planner"]

logger = logging.getLogger(__name__)

ProgressCallback = Callable[[dict], None]


class Planner:
    """Runs one :class:`FleetScenario` and aggregates the fleet report."""

    def __init__(self, fleet: FleetScenario, jobs: int = 1,
                 progress: Optional[ProgressCallback] = None) -> None:
        self.fleet = fleet
        self.jobs = check_jobs(jobs)
        self.progress = progress

    # -- driving -----------------------------------------------------------------

    def run(self) -> FleetReport:
        specs = [dataclasses.replace(make_spec(scenario,
                                               self.fleet.num_slots),
                                     knobs={"demand": True})
                 for scenario in self.fleet.derive_shards()]
        migrations = self.fleet.migrations()
        started = time.perf_counter()
        reconfig: List[dict] = []
        if migrations:
            # Mid-run migration needs every simulation paused at the
            # same slot boundary, which only the in-process lockstep
            # path can do; hermetic per-shard workers cannot exchange
            # cells mid-run.
            if self.jobs > 1:
                logger.info(
                    "reconfig timeline has %d migration(s); running "
                    "the fleet in-process (lockstep), ignoring jobs=%d",
                    len(migrations), self.jobs)
            results, walls, failures, stats, reconfig = \
                self._run_lockstep(specs, migrations)
        else:
            results, walls, failures, stats = self._run_shards(specs)
        return build_fleet_report(
            self.fleet, results, walls, failures,
            jobs=self.jobs,
            wall_s=time.perf_counter() - started,
            reconfig=reconfig,
            **stats,
        )

    def _run_shards(self, specs):
        """Run every shard spec through the batch runner.

        Telemetry comes from the runner's per-attempt accounting, so a
        lost attempt (a dead child, a retried exception) counts in
        ``dispatches`` and ``total_job_wall_s`` like any other, and a
        cached shard counts in neither and takes no worker.
        """
        report = run_batch(specs, jobs=self.jobs, progress=self.progress)
        outcomes = report.outcomes
        failures = [{"shard_index": o.index, "error": o.error}
                    for o in outcomes if not o.succeeded]
        stats = {"workers": min(self.jobs, len(specs) - report.cached),
                 "dispatches": sum(o.attempts for o in outcomes),
                 "total_job_wall_s": report.total_job_wall_s}
        return ([o.result if o.succeeded else None for o in outcomes],
                [o.wall_s for o in outcomes], failures, stats)

    def _emit(self, kind: str, index: int, total: int, done: int,
              label: str, wall_s: float = 0.0) -> None:
        """A progress event in :func:`~repro.exec.batch.run_batch`'s
        shape."""
        if self.progress is not None:
            self.progress({"kind": kind, "index": index, "total": total,
                           "done": done, "status": kind, "label": label,
                           "wall_s": wall_s, "error": None})

    def _run_lockstep(self, specs, migrations):
        """In-process lockstep execution with mid-run cell migration.

        Every shard simulation advances to each migration's slot
        barrier; there the planner detaches the cell from the source
        and hands its live record (traffic generator, allocation
        stream, MAC and HARQ state) to the destination with the
        migration-cost model (state-transfer hold, predictor warm-up).
        The demand recorder's tally, live hash included, moves the same
        way, so the migrated cell's sampling digest is byte-identical
        to an unmigrated run's.  Per-server utilization and deadline-miss
        counters are read at the barrier and again at the end, giving
        each migration a before/after row in the fleet report.
        """
        fleet = self.fleet
        total = len(specs)
        started = time.perf_counter()
        sims = [build_spec_simulation(spec) for spec in specs]
        for simulation in sims:
            simulation.start(fleet.num_slots)
        # Register every pause slot before any window fills, so no
        # generator pre-draws across a membership change.
        for event in migrations:
            sims[event.src_shard].add_window_barrier(event.at_slot)
            sims[event.dst_shard].add_window_barrier(event.at_slot)
        reconfig_rows = []
        for event in migrations:
            for simulation in sims:
                simulation.run_to_barrier(event.at_slot)
            name = fleet.resolve_cell(event.cell)
            src = sims[event.src_shard]
            dst = sims[event.dst_shard]
            row = {
                "event": event.to_dict(),
                "cell": name,
                "util_before": {
                    "src": src.metrics.vran_utilization,
                    "dst": dst.metrics.vran_utilization,
                },
                "miss_at_barrier": {
                    "src": src.metrics.slot_deadlines_missed,
                    "dst": dst.metrics.slot_deadlines_missed,
                },
            }
            dst.attach_cell(
                src.detach_cell(name),
                transfer_slots=event.transfer_slots,
                warmup_slots=event.warmup_slots,
                warmup_factor=event.warmup_factor,
            )
            dst.demand_observer.attach_cell(
                name, src.demand_observer.detach_cell(name))
            reconfig_rows.append(row)
            self._emit("migrate", event.src_shard, total, 0,
                       f"{name} shard {event.src_shard}->"
                       f"{event.dst_shard} @slot {event.at_slot}")
        for simulation in sims:
            simulation.run_to_end()
        wall_each = (time.perf_counter() - started) / max(1, total)
        results = []
        for index, (spec, simulation) in enumerate(zip(specs, sims)):
            results.append(simulation.finish().to_dict())
            self._emit("ok", index, total, index + 1, spec.label(),
                       wall_each)
        for row, event in zip(reconfig_rows, migrations):
            src_r = results[event.src_shard]
            dst_r = results[event.dst_shard]
            row["util_after"] = {
                "src": src_r["vran_utilization"],
                "dst": dst_r["vran_utilization"],
            }
            # Misses accumulated after the barrier: the migration's
            # bounded transient shows up here (held DAGs released late
            # with their original deadlines).
            row["miss_after_barrier"] = {
                "src": missed_slots(src_r) - row["miss_at_barrier"]["src"],
                "dst": missed_slots(dst_r) - row["miss_at_barrier"]["dst"],
            }
        stats = {"workers": 1, "dispatches": total,
                 "total_job_wall_s": wall_each * total}
        return results, [wall_each] * total, [], stats, reconfig_rows
