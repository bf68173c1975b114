"""Benchmark: metro-scale fleet runs through the planner.

Not a paper figure — the fleet driver exercises the §6-scale claim
that Concordia's per-server behaviour composes to a metro deployment:
a 50-cell fleet sharded across reference servers keeps the deadline
tail flat, reclaims half the provisioned CPU for best-effort work, and
the planner's forked shard processes turn shard count into
near-linear wall-clock speedup.  Slot budgets scale with ``REPRO_SCALE``; worker count
follows ``REPRO_JOBS`` (default: one worker per shard, capped at 4).
"""

import os

from repro.experiments.common import scaled_slots
from repro.fleet import FleetScenario, Planner

CELLS = 50
SHARDS = 4


def _jobs() -> int:
    raw = os.environ.get("REPRO_JOBS")
    return max(1, int(raw)) if raw else min(SHARDS, 4)


def run_fleet():
    fleet = FleetScenario(cells=CELLS, shards=SHARDS,
                          num_slots=scaled_slots(200), seed=7)
    report = Planner(fleet, jobs=_jobs()).run()
    serial = Planner(FleetScenario(cells=CELLS, shards=1,
                                   num_slots=scaled_slots(200), seed=7),
                     jobs=1).run()
    return report, serial


def test_fleet_scale(benchmark, write_report):
    report, serial = benchmark.pedantic(run_fleet, rounds=1,
                                        iterations=1)
    write_report("fleet_scale", report.render())

    assert report.ok, report.failures
    # Determinism contract at metro scale: sampling is shard-invariant.
    assert report.cell_digests == serial.cell_digests
    assert len(report.cell_digests) == CELLS

    # The fleet keeps the RAN deadline tail: sub-deadline p99.9 and a
    # (near-)zero miss fraction at 50% load.
    assert report.latency_us["p999"] < report.latency_us["deadline"]
    assert report.miss_fraction < 1e-3

    # Sharing still reclaims a large share of the provisioned cores
    # fleet-wide (paper: ~50-70% at mid load), and the federated
    # demand rollup stays within the provisioned envelope.
    assert report.reclaimed_fraction > 0.30
    assert 0 < report.demand_cores <= report.provisioned_cores + SHARDS

    # Every server carries a balanced slice: utilizations within a
    # tight band around the fleet mean.
    utils = [row["utilization"] for row in report.servers]
    assert max(utils) - min(utils) < 0.15, utils

    # Forked shards overlap execution (only when workers > 1).
    if report.workers > 1:
        assert report.speedup > 1.3, report.speedup
