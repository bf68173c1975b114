"""repro.fleet — metro-scale multi-cell sharding and the fleet planner.

The fleet layer scales one :class:`~repro.scenario.Scenario`-based
simulation to a metro deployment: a :class:`FleetScenario` describes N
cells partitioned into K per-server shards, a :class:`Planner` runs
the shards through :func:`repro.exec.batch.run_jobs` (the fork-per-job
runner ``repro sweep`` uses: one forked child per shard attempt, or
in-process at ``jobs=1``), and the per-shard payloads aggregate into a
:class:`FleetReport` (fleet tail latency, reclaimed CPU, per-server
utilization, federated core demand).

Determinism contract: per-cell sampling streams are keyed by *global*
cell id, so each cell's demand-trace digest is byte-identical for any
shard count or worker placement — ``repro fleet --verify-serial``
checks exactly that.
"""

from .demand import ShardDemandRecorder
from .planner import Planner
from .report import (
    FleetReport,
    build_fleet_report,
    combined_digest,
    histogram_percentile,
    latency_histogram,
    merge_histograms,
)
from .scenario import CELL_KINDS, FLEET_SCHEMA, FleetScenario, ShardSpec
from .worker import execute_shard, run_shard_in_child

__all__ = [
    "CELL_KINDS",
    "FLEET_SCHEMA",
    "FleetReport",
    "FleetScenario",
    "Planner",
    "ShardDemandRecorder",
    "ShardSpec",
    "build_fleet_report",
    "combined_digest",
    "execute_shard",
    "histogram_percentile",
    "latency_histogram",
    "merge_histograms",
    "run_shard_in_child",
]
