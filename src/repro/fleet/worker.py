"""Shard execution: the hermetic job body and its child entry point.

:func:`execute_shard` is the job body.  :func:`run_shard_in_child`
wraps it in :mod:`repro.exec.worker`'s pipe protocol, so the planner
runs shards through :func:`repro.exec.batch.run_jobs` exactly as sweeps
run specs: in-process at ``jobs=1``, one forked child per attempt
otherwise.  Both paths execute the same body — the fleet's serial ==
parallel byte-identity rests on that.
"""

from __future__ import annotations

import time

from ..exec.worker import report_to_parent
from ..scenario import Scenario, build_simulation
from .demand import ShardDemandRecorder
from .report import latency_histogram

__all__ = ["execute_shard", "shard_payload", "run_shard_in_child"]


def shard_payload(simulation, result, recorder, meta: dict,
                  wall_s: float) -> dict:
    """The per-shard result payload, from a finished simulation.

    ``meta`` carries the shard identity keys (``shard_index``,
    ``cell_id_base``, ``cell_names``, ``num_slots``).  Shared by
    :func:`execute_shard` and the planner's in-process lockstep
    migration path, so both produce identical payload shapes.
    """
    metrics = simulation.metrics
    latency = result.latency
    deadline_us = simulation.pool_config.deadline_us
    return {
        "schema": 1,
        "shard_index": meta["shard_index"],
        "cell_id_base": meta["cell_id_base"],
        "cell_names": list(meta["cell_names"]),
        "num_cores": simulation.pool.num_cores,
        "num_slots": meta["num_slots"],
        "wall_s": wall_s,
        "latency": {
            "mean_us": latency.mean_us,
            "p50_us": latency.p50_us,
            "p99_us": latency.p99_us,
            "p9999_us": latency.p9999_us,
            "max_us": latency.max_us,
        },
        "histogram": latency_histogram(metrics.slot_latencies,
                                       deadline_us),
        "miss_count": metrics.slot_deadlines_missed,
        "slot_count": metrics.slot_count,
        "reclaimed_fraction": result.reclaimed_fraction,
        "vran_utilization": result.vran_utilization,
        "scheduling_events": result.scheduling_events,
        "duration_us": result.duration_us,
        "cell_digests": recorder.cell_digests(),
        "demand": recorder.demand_payload(),
    }


def execute_shard(payload: dict) -> dict:
    """Run one cell-shard to completion; returns a JSON-able payload.

    Hermetic: everything is rebuilt from the shard payload alone, so
    the result is a pure function of the payload — which worker (or
    the parent) executes it cannot matter.
    """
    started = time.perf_counter()
    scenario = Scenario.from_dict(payload["scenario"])
    config = scenario.pool_config()
    simulation = build_simulation(scenario)
    recorder = ShardDemandRecorder(config.cells, config.deadline_us)
    simulation.demand_observer = recorder
    result = simulation.run(payload["num_slots"])
    return shard_payload(simulation, result, recorder, payload,
                         time.perf_counter() - started)


def run_shard_in_child(conn, payload: dict, attempt: int) -> None:
    """Child entry point: execute one shard, report it through ``conn``.

    ``attempt`` is unused — a shard is a pure function of its payload —
    but keeps the signature of every :func:`repro.exec.batch.run_jobs`
    entry point.
    """
    report_to_parent(conn, lambda: execute_shard(payload))
