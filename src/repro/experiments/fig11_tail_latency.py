"""Figure 11: tail TTI processing latency, Concordia vs FlexRAN.

For both deployments (7 × 20 MHz FDD and 2 × 100 MHz TDD, 8-core pool)
and workloads (isolated, Nginx, Redis, TPCC, MLPerf): the average,
99.99 % and 99.999 % slot-processing latency.  The paper's result:
isolated, both schedulers meet the deadline; under any collocated
workload vanilla FlexRAN's tail blows past the deadline while
Concordia stays within it at 99.999 %.
"""

from __future__ import annotations

from ..ran.config import pool_100mhz_2cells, pool_20mhz_7cells
from ..scenario import Scenario
from .common import format_table, make_spec, run_spec_batch, scaled_slots

__all__ = ["run", "build_specs", "main", "WORKLOADS"]

WORKLOADS = ("none", "nginx", "redis", "tpcc", "mlperf")


def build_specs(num_slots: int = None, load_fraction: float = 0.5,
                seed: int = 7, workloads=WORKLOADS,
                configs=("20MHz", "100MHz"),
                policies=("concordia", "flexran")) -> tuple:
    """The Fig. 11 grid as (specs, key metadata) pairs."""
    pool_factories = {
        "20MHz": lambda: pool_20mhz_7cells(num_cores=8),
        "100MHz": lambda: pool_100mhz_2cells(num_cores=8),
    }
    specs, meta = [], []
    for config_name in configs:
        config = pool_factories[config_name]()
        slots = num_slots if num_slots is not None else scaled_slots(
            8000 if config_name == "20MHz" else 16000)
        for policy in policies:
            for workload in workloads:
                specs.append(make_spec(
                    Scenario(pool=config, policy=policy, workload=workload,
                             load_fraction=load_fraction, seed=seed),
                    slots))
                meta.append((config_name, policy, workload))
    return specs, meta


def run(num_slots: int = None, load_fraction: float = 0.5, seed: int = 7,
        workloads=WORKLOADS, configs=("20MHz", "100MHz"),
        policies=("concordia", "flexran"), jobs: int = None) -> dict:
    specs, meta = build_specs(num_slots, load_fraction, seed, workloads,
                              configs, policies)
    results = {}
    for key, result in zip(meta, run_spec_batch(specs, jobs=jobs)):
        summary = result.latency
        results[key] = {
            "mean_us": summary.mean_us,
            "p9999_us": summary.p9999_us,
            "p99999_us": summary.p99999_us,
            "deadline_us": summary.deadline_us,
            "miss_fraction": summary.miss_fraction,
            "meets_four_nines": summary.meets_four_nines,
            "meets_five_nines": summary.meets_five_nines,
            "count": summary.count,
        }
    return results


def main(num_slots: int = None, load_fraction: float = 0.5) -> str:
    results = run(num_slots, load_fraction=load_fraction)
    out = []
    for config_name in ("20MHz", "100MHz"):
        for policy in ("concordia", "flexran"):
            rows = []
            for workload in WORKLOADS:
                key = (config_name, policy, workload)
                if key not in results:
                    continue
                entry = results[key]
                rows.append([
                    workload,
                    f"{entry['mean_us']:.0f}",
                    f"{entry['p9999_us']:.0f}",
                    f"{entry['p99999_us']:.0f}",
                    "yes" if entry["meets_five_nines"] else "NO",
                ])
            deadline = results[(config_name, policy, "none")]["deadline_us"]
            out.append(format_table(
                ["workload", "mean (us)", "p99.99", "p99.999",
                 "meets 99.999%"],
                rows,
                title=f"Figure 11 - {policy} with {config_name} cells "
                      f"(deadline {deadline:.0f} us)"))
    return "\n\n".join(out)


if __name__ == "__main__":
    print(main())
