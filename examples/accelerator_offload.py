#!/usr/bin/env python
"""Hardware-accelerator offload study (paper §7, Tables 3-4).

Attaches the FPGA LDPC offload model to a 100 MHz TDD pool and shows:

* how many CPU cores accelerated cells need (Table 3);
* why cores remain idle even then — the per-slot offload waits
  (Table 4) and the TDD uplink/downlink asymmetry;
* that Concordia can reclaim the resulting idle CPU for a collocated
  workload while keeping the deadline.

Run:  python examples/accelerator_offload.py
"""

from repro import Scenario, build_simulation, train_predictor
from repro.accel.offload import (
    Accelerator,
    AcceleratorConfig,
    attach_accelerator,
    pool_100mhz_accel,
)

NUM_SLOTS = 3000


def run(config):
    simulation = build_simulation(Scenario(
        pool=config, policy="dedicated", load_fraction=1.0, seed=5))
    accel = attach_accelerator(
        simulation.pool,
        Accelerator(simulation.engine,
                    AcceleratorConfig(pipelines=2 * len(config.cells))),
    )
    return simulation.run(NUM_SLOTS), accel, simulation


def main():
    print("Table 3 - minimum cores with FPGA LDPC offload "
          "(1.6 Gbps DL / 150 Mbps UL per cell):")
    for cells in (1, 2, 3):
        for cores in range(1, 7):
            config = pool_100mhz_accel(num_cells=cells, num_cores=cores)
            result, accel, __ = run(config)
            if result.latency.miss_fraction < 1e-3:
                print(f"  {cells} cell(s): {cores} core(s), CPU util "
                      f"{result.vran_utilization * 100:4.1f}%, FPGA served "
                      f"{accel.tasks_served} coding tasks")
                break

    print("\nTable 4 - where the CPU time goes (1 cell, 1 core):")
    config = pool_100mhz_accel(num_cells=1, num_cores=1,
                               deadline_us=4000.0)
    __, accel, simulation = run(config)
    print(f"  total accelerator busy time: {accel.busy_time_us / 1e6:.2f} "
          f"core-seconds vs CPU busy "
          f"{simulation.metrics.busy_core_time_us / 1e6:.2f}")
    print("  -> workers block on offload waits; cores idle below 60% "
          "even at peak")

    print("\nConcordia on the accelerated pool (2 cells, 4 cores, "
          "Redis collocated):")
    config = pool_100mhz_accel(num_cells=2, num_cores=4)
    predictor = train_predictor(config, num_slots=500, seed=42)
    simulation = build_simulation(
        Scenario(pool=config, policy="concordia", workload="redis",
                 load_fraction=1.0, seed=5),
        predictor=predictor)
    attach_accelerator(
        simulation.pool,
        Accelerator(simulation.engine, AcceleratorConfig(pipelines=4)))
    result = simulation.run(NUM_SLOTS)
    print(f"  deadline misses: {result.latency.miss_fraction:.2e}   "
          f"p99.99 latency: {result.latency.p9999_us:.0f} us "
          f"(deadline {result.latency.deadline_us:.0f})")
    print(f"  CPU reclaimed for Redis: "
          f"{result.reclaimed_fraction * 100:.1f}%  -> "
          f"{sum(result.workload_rates_per_s.values()):,.0f} requests/s")


if __name__ == "__main__":
    main()
