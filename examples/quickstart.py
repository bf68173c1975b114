#!/usr/bin/env python
"""Quickstart: share a 5G vRAN pool with Redis using Concordia.

Builds the paper's 7-cell 20 MHz deployment, trains the WCET predictor
offline (isolated profiling + quantile decision trees), then runs the
pool side by side with a Redis workload and reports the reliability and
the CPU reclaimed — the paper's headline result in ~a minute.

Run:  python examples/quickstart.py
"""

from repro import (
    Scenario,
    build_simulation,
    pool_20mhz_7cells,
    train_predictor,
)

NUM_SLOTS = 4000  # 4 simulated seconds of 1 ms TTIs
LOAD = 0.5  # half of the cells' maximum average traffic


def describe(result):
    latency = result.latency
    print(f"  slot DAGs processed  : {latency.count}")
    print(f"  mean slot latency    : {latency.mean_us:7.0f} us")
    print(f"  99.99% latency       : {latency.p9999_us:7.0f} us "
          f"(deadline {latency.deadline_us:.0f} us)")
    print(f"  deadline misses      : {latency.miss_fraction:.2e}")
    print(f"  CPU reclaimed        : {result.reclaimed_fraction * 100:5.1f}%"
          f"  (upper bound {result.idle_upper_bound * 100:.1f}%)")
    redis_rate = sum(result.workload_rates_per_s.values())
    print(f"  Redis throughput     : {redis_rate:12,.0f} requests/s")
    print(f"  scheduling events    : {result.scheduling_events}")


def main():
    config = pool_20mhz_7cells()
    print(f"Deployment: {len(config.cells)} x 20 MHz cells, "
          f"{config.num_cores} cores, deadline {config.deadline_us:.0f} us")

    print("\nTraining the Concordia WCET predictor offline "
          "(isolated profiling)...")
    predictor = train_predictor(config, num_slots=600, seed=42)
    for task_type, model in sorted(predictor.models.items(),
                                   key=lambda kv: kv[0].value):
        features = predictor.selected_features[task_type]
        print(f"  {task_type.value:20s} -> {len(features)} features, "
              f"{model.tree.num_leaves:3d} leaves")

    print(f"\nConcordia + Redis at {LOAD * 100:.0f}% cell load:")
    scenario = Scenario(pool=config, policy="concordia", workload="redis",
                        load_fraction=LOAD, seed=1)
    sim = build_simulation(scenario, predictor=predictor)
    describe(sim.run(NUM_SLOTS))

    print("\nVanilla FlexRAN + Redis (the baseline):")
    scenario = Scenario(pool=config, policy="flexran", workload="redis",
                        load_fraction=LOAD, seed=1)
    describe(build_simulation(scenario).run(NUM_SLOTS))

    print("\nConcordia reclaims idle vRAN CPU for Redis while keeping "
          "the slot deadline;\nthe baseline shares more aggressively but "
          "its latency tail blows past the deadline\n(run longer for "
          "tighter tail percentiles).")


if __name__ == "__main__":
    main()
