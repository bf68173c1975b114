"""The fleet planner: shard assignment, dispatch and aggregation.

The planner owns a fleet run end to end:

1. derive the per-server shards from the :class:`FleetScenario`;
2. run them through :func:`repro.exec.batch.run_jobs`, the same
   fork-per-job runner ``repro sweep`` uses: ``jobs <= 1`` executes
   every shard in-process, in shard order (the serial baseline);
   otherwise at most ``jobs`` forked children run one shard attempt
   each.  Retries, stragglers and dead children follow the runner's
   one failure policy;
3. merge the per-shard payloads into a
   :class:`~repro.fleet.report.FleetReport` — fleet tail latency from
   merged histograms, reclaimed-CPU totals, per-server utilization,
   the federated demand rollup and the sharding-invariant per-cell
   digests.

Because :func:`~repro.fleet.worker.execute_shard` is hermetic and the
report normalizes merge order, a fleet run is byte-identical (modulo
wall-clock telemetry) for any ``jobs``; and because per-cell sampling
is keyed by global cell id, the per-cell digests are further invariant
to the *shard count* itself.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, List, Optional

from ..exec.batch import Job, check_jobs, run_jobs
from ..scenario import build_simulation
from .demand import ShardDemandRecorder
from .report import FleetReport, build_fleet_report
from .scenario import FleetScenario, ShardSpec
from .worker import run_shard_in_child, shard_payload

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
        shards = self.fleet.derive_shards()
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
            payloads, failures, stats, reconfig = self._run_lockstep(
                shards, migrations)
        else:
            payloads, failures, stats = self._run_shards(shards)
        return build_fleet_report(
            self.fleet, payloads, failures,
            jobs=self.jobs,
            wall_s=time.perf_counter() - started,
            reconfig=reconfig,
            **stats,
        )

    def _emit(self, kind: str, shard_index: int, total: int, done: int,
              **extra) -> None:
        if self.progress is None:
            return
        event = {"kind": kind, "shard": shard_index, "total": total,
                 "done": done}
        event.update(extra)
        self.progress(event)

    def _run_shards(self, shards: List[ShardSpec]):
        """Run every shard through the fork-per-job runner.

        Telemetry comes from the runner's per-attempt accounting, so a
        lost attempt (a dead child, a retried exception) counts in
        ``dispatches`` and ``total_job_wall_s`` like any other.
        """
        total = len(shards)
        payloads, failures = [], []
        stats = {"workers": min(self.jobs, total), "dispatches": 0,
                 "total_job_wall_s": 0.0}

        def finish(job: Job, status: str, result: Optional[dict],
                   error: Optional[str]) -> None:
            stats["dispatches"] += job.attempt + 1
            stats["total_job_wall_s"] += job.wall_s
            if status == "ok":
                payloads.append(result)
                notify("done", job, wall_s=result["wall_s"])
            else:
                failures.append({"shard_index": job.index,
                                 "error": error})
                notify("failed", job, error=error)

        def notify(kind: str, job: Job, **info) -> None:
            self._emit(kind, job.index, total,
                       len(payloads) + len(failures), **info)

        run_jobs([Job(index=shard.shard_index, payload=shard.to_dict())
                  for shard in shards],
                 self.jobs, run_shard_in_child, finish, notify, retries=1)
        return payloads, failures, stats

    def _run_lockstep(self, shards: List[ShardSpec], migrations):
        """In-process lockstep execution with mid-run cell migration.

        Every shard simulation advances to each migration's slot
        barrier; there the planner detaches the cell from the source
        (portable snapshot: exact traffic/allocation/HARQ generator
        states) and attaches it to the destination with the
        migration-cost model (state-transfer hold, predictor warm-up).
        The demand recorder's live hash travels with the cell, so the
        migrated cell's sampling digest is byte-identical to an
        unmigrated run's.  Per-server utilization and deadline-miss
        counters are read at the barrier and again at the end, giving
        each migration a before/after row in the fleet report.
        """
        fleet = self.fleet
        started = time.perf_counter()
        sims, recorders, metas = [], [], []
        for shard in shards:
            config = shard.scenario.pool_config()
            simulation = build_simulation(shard.scenario)
            recorder = ShardDemandRecorder(config.cells,
                                           config.deadline_us)
            simulation.demand_observer = recorder
            sims.append(simulation)
            recorders.append(recorder)
            metas.append({"shard_index": shard.shard_index,
                          "cell_id_base": shard.cell_id_base,
                          "cell_names": list(shard.cell_names),
                          "num_slots": shard.num_slots})
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
            snapshot = src.detach_cell(name)
            dst.attach_cell(
                snapshot,
                transfer_slots=event.transfer_slots,
                warmup_slots=event.warmup_slots,
                warmup_factor=event.warmup_factor,
            )
            recorders[event.dst_shard].attach_cell(
                name, recorders[event.src_shard].detach_cell(name))
            reconfig_rows.append(row)
            self._emit("migrate", event.src_shard, len(shards), 0,
                       cell=name, dst_shard=event.dst_shard,
                       at_slot=event.at_slot)
        for simulation in sims:
            simulation.run_to_end()
        wall_each = (time.perf_counter() - started) / max(1, len(sims))
        payloads = []
        for simulation, recorder, meta in zip(sims, recorders, metas):
            result = simulation.finish()
            payloads.append(shard_payload(
                simulation, result, recorder, meta, wall_each))
            self._emit("done", meta["shard_index"], len(shards),
                       len(payloads), wall_s=wall_each)
        for row, event in zip(reconfig_rows, migrations):
            src_p = payloads[event.src_shard]
            dst_p = payloads[event.dst_shard]
            row["util_after"] = {
                "src": src_p["vran_utilization"],
                "dst": dst_p["vran_utilization"],
            }
            # Misses accumulated after the barrier: the migration's
            # bounded transient shows up here (held DAGs released late
            # with their original deadlines).
            row["miss_after_barrier"] = {
                "src": src_p["miss_count"]
                - row["miss_at_barrier"]["src"],
                "dst": dst_p["miss_count"]
                - row["miss_at_barrier"]["dst"],
            }
        stats = {"workers": 1, "dispatches": len(shards),
                 "total_job_wall_s": wall_each * len(shards)}
        return payloads, [], stats, reconfig_rows
