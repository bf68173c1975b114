"""Figure 10: OS scheduling latency of vRAN pool worker threads.

Histograms of wakeup latencies (runqlat-style buckets) for vanilla
FlexRAN and Concordia, isolated and with a collocated Redis workload,
on a 2 × 100 MHz / 8-core pool.  The paper's findings:

* FlexRAN generates ~230 % more scheduling events than Concordia
  (reactive yield/wake on every queue transition vs proactive
  reservations);
* under collocation both see a heavier latency tail; Concordia has
  proportionally more high-tail events (it retains cores longer, so
  unmigratable kernel work queues up) but compensates for stuck cores
  every 20 µs.
"""

from __future__ import annotations

from ..ran.config import pool_100mhz_2cells
from ..scenario import Scenario
from .common import format_table, make_spec, run_spec_batch, scaled_slots

__all__ = ["run", "main"]


def run(num_slots: int = None, load_fraction: float = 0.5,
        seed: int = 7) -> dict:
    if num_slots is None:
        num_slots = scaled_slots(6000)
    config = pool_100mhz_2cells(num_cores=8)
    grid = [(policy, workload) for policy in ("flexran", "concordia")
            for workload in ("none", "redis")]
    runs = run_spec_batch([
        make_spec(Scenario(pool=config, policy=policy, workload=workload,
                           load_fraction=load_fraction, seed=seed),
                  num_slots)
        for policy, workload in grid])
    results = {key: {
        "histogram": result.wakeup_histogram,
        "total_events": result.scheduling_events,
        "wakeups": result.telemetry["counters"].get("sched/wakeups", 0),
    } for key, result in zip(grid, runs)}
    results["event_ratio"] = (
        results[("flexran", "redis")]["total_events"]
        / max(1, results[("concordia", "redis")]["total_events"])
    )
    return results


def main(num_slots: int = None) -> str:
    results = run(num_slots)
    buckets = list(results[("flexran", "none")]["histogram"].keys())
    out = []
    for workload, label in (("none", "Isolated vRAN"),
                            ("redis", "vRAN with Redis")):
        rows = []
        for bucket in buckets:
            rows.append([
                bucket,
                results[("flexran", workload)]["histogram"][bucket],
                results[("concordia", workload)]["histogram"][bucket],
            ])
        rows.append(["total events",
                     results[("flexran", workload)]["total_events"],
                     results[("concordia", workload)]["total_events"]])
        out.append(format_table(
            ["latency (us)", "FlexRAN", "Concordia"], rows,
            title=f"Figure 10 - scheduling latency histogram ({label})"))
    out.append(
        f"FlexRAN/Concordia total scheduling events (Redis): "
        f"{results['event_ratio']:.1f}x (paper: ~3.3x, i.e. 230% higher)")
    return "\n\n".join(out)


if __name__ == "__main__":
    print(main())
