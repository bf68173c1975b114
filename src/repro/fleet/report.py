"""Fleet-level aggregation: mergeable histograms and the FleetReport.

Per-shard workers cannot ship every slot latency for a metro-scale run,
so each shard returns a fixed-geometry histogram (bins derived from the
fleet deadline, identical across shards) plus exact counts for the
quantities that must not be approximated (deadline misses, maxima,
core-time totals).  The planner merges histograms bin-wise — integer
counts, order-independent — and interpolates the fleet tail percentiles
from the merged distribution.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "FleetReport",
    "build_fleet_report",
    "histogram_percentile",
    "latency_histogram",
    "merge_histograms",
]

#: Bins per histogram; the range spans [0, 4 x deadline), so one bin is
#: deadline/128 wide (15.6 us at the 20 MHz deployment's 2 ms deadline).
HISTOGRAM_BINS = 512
_RANGE_DEADLINES = 4.0


def latency_histogram(latencies_us: Sequence[float],
                      deadline_us: float) -> dict:
    """Fixed-geometry latency histogram keyed off the fleet deadline.

    Rejects non-finite and negative latencies explicitly: ``int()``
    truncates toward zero, so a small negative value would land in bin
    0 and a large one would Python-negative-index into the top bins —
    both silently corrupt the tail percentiles.
    """
    width = _RANGE_DEADLINES * deadline_us / HISTOGRAM_BINS
    counts = [0] * HISTOGRAM_BINS
    overflow = 0
    max_us = 0.0
    total = 0.0
    for value in latencies_us:
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(
                f"latency values must be finite and non-negative, "
                f"got {value!r}")
        total += value
        if value > max_us:
            max_us = value
        index = int(value / width)
        if index >= HISTOGRAM_BINS:
            overflow += 1
        else:
            counts[index] += 1
    return {
        "bin_width_us": width,
        "counts": counts,
        "overflow": overflow,
        "count": len(latencies_us),
        "sum_us": total,
        "max_us": max_us,
    }


def merge_histograms(histograms: Sequence[dict]) -> dict:
    """Bin-wise merge; all inputs must share the bin geometry."""
    if not histograms:
        return latency_histogram([], 1.0)
    widths = {round(h["bin_width_us"], 9) for h in histograms}
    if len(widths) != 1:
        raise ValueError(
            f"cannot merge histograms with different bin widths: {widths}")
    merged = {
        "bin_width_us": histograms[0]["bin_width_us"],
        "counts": [0] * HISTOGRAM_BINS,
        "overflow": 0,
        "count": 0,
        "sum_us": 0.0,
        "max_us": 0.0,
    }
    for hist in histograms:
        for i, c in enumerate(hist["counts"]):
            merged["counts"][i] += c
        merged["overflow"] += hist["overflow"]
        merged["count"] += hist["count"]
        merged["sum_us"] += hist["sum_us"]
        merged["max_us"] = max(merged["max_us"], hist["max_us"])
    return merged


def histogram_percentile(hist: dict, quantile: float) -> float:
    """Percentile estimate by linear interpolation within a bin.

    A percentile that lands past the histogram range interpolates
    through the *overflow* region — between the range top and the
    exact recorded maximum, proportionally to how deep into the
    overflow count it falls — instead of collapsing the whole tail
    onto ``max_us``.  (p99.9 with a handful of overflowed slots used
    to report the single worst slot; now it reports a tail estimate
    that is monotone in the quantile.)
    """
    count = hist["count"]
    if count == 0:
        return 0.0
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    needed = quantile * count
    width = hist["bin_width_us"]
    overflow = hist["overflow"]
    in_range = count - overflow
    if overflow and needed > in_range:
        range_top = width * len(hist["counts"])
        inside = min(float(overflow), needed - in_range)
        return range_top + (hist["max_us"] - range_top) * (
            inside / overflow)
    cumulative = 0.0
    for index, bin_count in enumerate(hist["counts"]):
        if bin_count == 0:
            continue
        if cumulative + bin_count >= needed:
            inside = max(0.0, needed - cumulative)
            return width * (index + inside / bin_count)
        cumulative += bin_count
    return hist["max_us"]


# -- the report --------------------------------------------------------------------


@dataclass
class FleetReport:
    """Fleet-level rollup of one planner run."""

    fleet: dict  # serialized FleetScenario
    servers: List[dict]  # per-shard rows, sorted by shard_index
    failures: List[dict]
    #: Fleet tail latency from the merged histogram (p50/p99/p99.9/max).
    latency_us: dict
    miss_fraction: float
    slot_count: int
    #: Reclaimed-CPU totals: mean fraction and whole-fleet core count.
    reclaimed_fraction: float
    reclaimed_cores: float
    provisioned_cores: int
    #: Federated demand rollup (repro.core.federated) over all shards.
    demand_cores: int
    demand_critical: bool
    #: name -> SHA-256 of the cell's sampled demand trace.
    cell_digests: Dict[str, str] = field(repr=False)
    #: SHA-256 over the sorted per-cell digests: one fleet-wide value
    #: that must be invariant to sharding and worker placement.
    fleet_digest: str = ""
    #: One row per applied migration (lockstep planner path): the
    #: event, and per-server utilization / deadline-miss counters
    #: before and after the cell moved.  Empty for static runs.
    reconfig: List[dict] = field(default_factory=list)
    # planner telemetry
    jobs: int = 1
    workers: int = 0
    wall_s: float = 0.0
    #: Wall time of every shard attempt, lost ones included.
    total_job_wall_s: float = 0.0
    #: Shard attempts (retries included).
    dispatches: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def idle_worker_s(self) -> float:
        """Worker-slot seconds of the run that no shard attempt used."""
        return max(0.0, self.workers * self.wall_s - self.total_job_wall_s)

    @property
    def speedup(self) -> float:
        return self.total_job_wall_s / max(self.wall_s, 1e-9)

    @property
    def idle_fraction(self) -> float:
        """Idle worker-slot share of the planner's parallel span."""
        span = self.wall_s * max(self.workers, 1)
        return self.idle_worker_s / max(span, 1e-9)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "fleet": self.fleet,
            "servers": self.servers,
            "failures": self.failures,
            "latency_us": self.latency_us,
            "miss_fraction": self.miss_fraction,
            "slot_count": self.slot_count,
            "reclaimed_fraction": self.reclaimed_fraction,
            "reclaimed_cores": self.reclaimed_cores,
            "provisioned_cores": self.provisioned_cores,
            "demand_cores": self.demand_cores,
            "demand_critical": self.demand_critical,
            "cell_digests": self.cell_digests,
            "fleet_digest": self.fleet_digest,
            "reconfig": self.reconfig,
            "planner": {
                "jobs": self.jobs,
                "workers": self.workers,
                "wall_s": self.wall_s,
                "total_job_wall_s": self.total_job_wall_s,
                "speedup": self.speedup,
                "idle_worker_s": self.idle_worker_s,
                "idle_fraction": self.idle_fraction,
                "dispatches": self.dispatches,
            },
        }

    def render(self) -> str:
        fleet = self.fleet
        lines = [
            f"fleet: {fleet['cells']} x {fleet['cell_kind']} cells, "
            f"{fleet['shards']} shard(s), policy={fleet['policy']}, "
            f"workload={fleet['workload']}"
            f"@{fleet['load_fraction']:.2f}, "
            f"{fleet['num_slots']} slots, seed={fleet['seed']}",
            f"planner: {self.dispatches} dispatches on "
            f"{self.workers or 1} worker(s), wall {self.wall_s:.1f}s, "
            f"job time {self.total_job_wall_s:.1f}s "
            f"(speedup {self.speedup:.1f}x, "
            f"idle slots {self.idle_fraction * 100:.0f}%)",
            f"tail latency: p50={self.latency_us['p50']:.0f}us "
            f"p99={self.latency_us['p99']:.0f}us "
            f"p99.9={self.latency_us['p999']:.0f}us "
            f"max={self.latency_us['max']:.0f}us "
            f"(deadline {self.latency_us['deadline']:.0f}us, "
            f"miss {self.miss_fraction:.2e} over {self.slot_count} "
            f"cell-slots)",
            f"reclaimed CPU: {self.reclaimed_fraction * 100:.1f}% = "
            f"{self.reclaimed_cores:.1f} of {self.provisioned_cores} "
            f"provisioned cores; federated demand "
            f"{self.demand_cores} cores"
            + (" [CRITICAL]" if self.demand_critical else ""),
        ]
        for row in self.servers:
            lines.append(
                f"  server {row['shard_index']:3d}: "
                f"{len(row['cells']):3d} cells / {row['num_cores']:3d} "
                f"cores  util={row['utilization'] * 100:5.1f}%  "
                f"reclaimed={row['reclaimed_fraction'] * 100:5.1f}%  "
                f"p99={row['p99_us']:7.0f}us  "
                f"miss={row['miss_fraction']:.2e}  "
                f"demand={row['demand_cores']}c")
        for row in self.failures:
            lines.append(f"  server {row['shard_index']:3d}: FAILED — "
                         f"{row['error']}")
        for row in self.reconfig:
            event = row["event"]
            lines.append(
                f"  migrate {row['cell']} shard "
                f"{event['src_shard']}->{event['dst_shard']} "
                f"@slot {event['at_slot']}: util "
                f"src {row['util_before']['src'] * 100:.1f}%"
                f"->{row['util_after']['src'] * 100:.1f}%  "
                f"dst {row['util_before']['dst'] * 100:.1f}%"
                f"->{row['util_after']['dst'] * 100:.1f}%  "
                f"transient misses "
                f"src+{row['miss_after_barrier']['src']} "
                f"dst+{row['miss_after_barrier']['dst']}")
        lines.append(f"fleet digest: {self.fleet_digest}")
        return "\n".join(lines)


def combined_digest(cell_digests: Dict[str, str]) -> str:
    """One order-independent SHA-256 over all per-cell digests."""
    blob = "\n".join(f"{name}:{digest}" for name, digest
                     in sorted(cell_digests.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_fleet_report(
    fleet,
    shard_payloads: Sequence[dict],
    failures: Sequence[dict] = (),
    *,
    jobs: int = 1,
    workers: int = 0,
    wall_s: float = 0.0,
    total_job_wall_s: Optional[float] = None,
    dispatches: Optional[int] = None,
    reconfig: Sequence[dict] = (),
) -> FleetReport:
    """Aggregate per-shard result payloads into a :class:`FleetReport`.

    ``shard_payloads`` are :func:`repro.fleet.worker.execute_shard`
    dicts; merge order is normalized to shard_index so serial and
    parallel planner runs aggregate identically.
    """
    payloads = sorted(shard_payloads, key=lambda p: p["shard_index"])
    deadline = fleet.deadline_us
    merged = merge_histograms([p["histogram"] for p in payloads])
    miss_count = sum(p["miss_count"] for p in payloads)
    slot_count = sum(p["slot_count"] for p in payloads)
    servers = []
    cell_digests: Dict[str, str] = {}
    total_cores = 0
    reclaimed_cores = 0.0
    demand_total = 0
    demand_critical = False
    for payload in payloads:
        demand = payload["demand"]
        servers.append({
            "shard_index": payload["shard_index"],
            "cells": list(payload["cell_names"]),
            "num_cores": payload["num_cores"],
            "utilization": payload["vran_utilization"],
            "reclaimed_fraction": payload["reclaimed_fraction"],
            "reclaimed_cores": payload["reclaimed_fraction"]
            * payload["num_cores"],
            "p99_us": payload["latency"]["p99_us"],
            "miss_fraction": payload["miss_count"]
            / max(1, payload["slot_count"]),
            "demand_cores": demand["cores"],
            "demand_critical": demand["critical"],
            "wall_s": payload["wall_s"],
        })
        cell_digests.update(payload["cell_digests"])
        total_cores += payload["num_cores"]
        reclaimed_cores += payload["reclaimed_fraction"] \
            * payload["num_cores"]
        demand_total += demand["cores"]
        demand_critical = demand_critical or demand["critical"]
    latency = {
        "p50": histogram_percentile(merged, 0.50),
        "p99": histogram_percentile(merged, 0.99),
        "p999": histogram_percentile(merged, 0.999),
        "max": merged["max_us"],
        "mean": merged["sum_us"] / max(1, merged["count"]),
        "deadline": deadline,
    }
    return FleetReport(
        fleet=fleet.to_dict(),
        servers=servers,
        failures=sorted(failures, key=lambda f: f["shard_index"]),
        latency_us=latency,
        miss_fraction=miss_count / max(1, slot_count),
        slot_count=slot_count,
        reclaimed_fraction=reclaimed_cores / max(1, total_cores),
        reclaimed_cores=reclaimed_cores,
        provisioned_cores=total_cores,
        demand_cores=demand_total,
        demand_critical=demand_critical,
        cell_digests=cell_digests,
        fleet_digest=combined_digest(cell_digests),
        reconfig=list(reconfig),
        jobs=jobs,
        workers=workers,
        wall_s=wall_s,
        total_job_wall_s=(total_job_wall_s if total_job_wall_s is not None
                          else sum(p["wall_s"] for p in payloads)),
        dispatches=dispatches if dispatches is not None else len(payloads),
    )
