#!/usr/bin/env python
"""Collocation study: every scheduler against every workload.

Sweeps the scheduling policies (Concordia, vanilla FlexRAN, a
Shenango-variant, a utilization-based scheduler, and full isolation)
against the paper's collocation scenarios (Redis, Nginx, TPCC, MLPerf,
Mix) on the 2 x 100 MHz deployment, and prints a reliability/efficiency
scorecard — a compact version of the paper's §6.2/§6.3 evaluation.

Run:  python examples/collocation_study.py [num_slots]
"""

import sys

from repro import pool_100mhz_2cells
from repro.experiments.common import format_table, make_spec, run_spec_batch
from repro.scenario import Scenario

POLICIES = ("dedicated", "concordia", "flexran", "shenango", "utilization")
WORKLOADS = ("none", "redis", "nginx", "tpcc", "mix")


def main(num_slots):
    config = pool_100mhz_2cells(num_cores=8)
    print(f"2 x 100 MHz TDD cells, 8 cores, deadline "
          f"{config.deadline_us:.0f} us, {num_slots} slots per run\n")
    # One batch (REPRO_JOBS=N runs it on N workers); Concordia trains
    # its predictor once and each run learns on a copy.
    grid = [(policy, workload) for policy in POLICIES
            for workload in WORKLOADS]
    results = run_spec_batch([
        make_spec(Scenario(pool=config, policy=policy, workload=workload,
                           load_fraction=0.5, seed=11), num_slots)
        for policy, workload in grid])
    rows = []
    for (policy, workload), result in zip(grid, results):
        latency = result.latency
        best_effort = sum(result.workload_rates_per_s.values())
        rows.append([
            policy, workload,
            f"{latency.p9999_us:7.0f}",
            "yes" if latency.p9999_us <= latency.deadline_us else "NO",
            f"{latency.miss_fraction:.1e}",
            f"{result.reclaimed_fraction * 100:5.1f}%",
            f"{best_effort:14,.0f}",
        ])
    print(format_table(
        ["policy", "workload", "p99.99 (us)", "meets deadline",
         "miss frac", "reclaimed", "best-effort ops/s"],
        rows,
        title="Scheduler x workload scorecard (deadline "
              f"{config.deadline_us:.0f} us)"))
    print(
        "\nReading guide: 'dedicated' is today's practice (safe, zero "
        "sharing);\n'flexran' shares greedily but loses the tail under "
        "any collocation;\nConcordia is the only policy that both "
        "shares and holds the deadline."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4000)
