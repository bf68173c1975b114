"""repro.fleet — metro-scale multi-cell sharding and the fleet planner.

The fleet layer scales one :class:`~repro.scenario.Scenario`-based
simulation to a metro deployment: a :class:`FleetScenario` describes N
cells partitioned into K per-server shard scenarios, a :class:`Planner`
runs each shard as one :class:`~repro.exec.spec.SimSpec` through
:func:`repro.exec.batch.run_batch` (the batch runner ``repro sweep``
uses: cache hits, then one forked child per shard attempt, or
in-process at ``jobs=1``), and the per-shard results aggregate into a
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
from .scenario import CELL_KINDS, FLEET_SCHEMA, FleetScenario

__all__ = [
    "CELL_KINDS",
    "FLEET_SCHEMA",
    "FleetReport",
    "FleetScenario",
    "Planner",
    "ShardDemandRecorder",
    "build_fleet_report",
    "combined_digest",
    "histogram_percentile",
    "latency_histogram",
    "merge_histograms",
]
