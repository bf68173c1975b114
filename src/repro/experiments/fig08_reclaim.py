"""Figure 8: reclaimed CPU and collocated-workload performance.

Fig. 8a — percentage of vRAN pool CPU reclaimed by Concordia vs the
ideal upper bound (every idle cycle recovered), across cell loads, for
the 20 MHz (7 cells, 8 cores) and 100 MHz (2 cells, 12 cores)
deployments.  The paper reports >70 % at low load, dropping to 0 %
(20 MHz) and 38 % (100 MHz) at max load.

Fig. 8b-d — Redis / Nginx / TPCC throughput when collocated with the
vRAN under Concordia, against the "no vRAN" ideal on the same cores.
"""

from __future__ import annotations

from ..ran.config import pool_100mhz_2cells, pool_20mhz_7cells
from ..scenario import Scenario
from ..workloads.catalog import WORKLOAD_SPECS
from .common import format_table, make_spec, run_spec_batch, scaled_slots

__all__ = ["run_reclaim", "run_workloads", "build_reclaim_specs", "main",
           "LOAD_POINTS"]

LOAD_POINTS = (0.05, 0.25, 0.5, 0.75, 1.0)


def build_reclaim_specs(num_slots: int = None, seed: int = 7,
                        loads=LOAD_POINTS) -> tuple:
    """The Fig. 8a grid as (specs, (label, load) metadata) pairs."""
    specs, meta = [], []
    for label, config, slots_scale in (
        ("20MHz", pool_20mhz_7cells(), 1.0),
        ("100MHz", pool_100mhz_2cells(), 2.0),
    ):
        slots = num_slots if num_slots is not None else \
            scaled_slots(int(2500 * slots_scale))
        for load in loads:
            specs.append(make_spec(
                Scenario(pool=config, policy="concordia", workload="mix",
                         load_fraction=load, seed=seed), slots))
            meta.append((label, load))
    return specs, meta


def run_reclaim(num_slots: int = None, seed: int = 7,
                loads=LOAD_POINTS, jobs: int = None) -> dict:
    """Fig. 8a sweep: reclaimed CPU vs load for both configs."""
    specs, meta = build_reclaim_specs(num_slots, seed, loads)
    results = {"loads": list(loads), "configs": {}}
    for (label, load), result in zip(meta, run_spec_batch(specs,
                                                          jobs=jobs)):
        results["configs"].setdefault(label, []).append({
            "load": load,
            "reclaimed": result.reclaimed_fraction,
            "upper_bound": result.idle_upper_bound,
            "miss_fraction": result.latency.miss_fraction,
        })
    return results


def run_workloads(num_slots: int = None, seed: int = 7,
                  loads=LOAD_POINTS, jobs: int = None) -> dict:
    """Fig. 8b-d: collocated workload throughput vs the no-vRAN ideal."""
    results = {"loads": list(loads), "workloads": {}}
    configs = {
        "20MHz": (pool_20mhz_7cells(), 8),
        "100MHz": (pool_100mhz_2cells(), 12),
    }
    specs, meta = [], []
    for workload in ("redis", "nginx", "tpcc", "mlperf"):
        for label, (config, cores) in configs.items():
            slots = num_slots if num_slots is not None else \
                scaled_slots(2000 if label == "20MHz" else 4000)
            for load in loads:
                specs.append(make_spec(
                    Scenario(pool=config, policy="concordia",
                             workload=workload, load_fraction=load,
                             seed=seed), slots))
                meta.append((workload, label, load))
    batch = dict(zip(meta, run_spec_batch(specs, jobs=jobs)))
    for workload in ("redis", "nginx", "tpcc", "mlperf"):
        per_config = {}
        for label in configs:
            series = []
            for load in loads:
                result = batch[(workload, label, load)]
                series.append({
                    "load": load,
                    "rates": dict(result.workload_rates_per_s),
                    "reclaimed": result.reclaimed_fraction,
                })
            per_config[label] = series
        # The "no vRAN" ideal on n dedicated cores.
        ideals = {}
        for name, spec in WORKLOAD_SPECS.items():
            share = 0.5 if workload == "redis" else 1.0
            ideals[name] = {
                cores: spec.ops_per_core_second * cores * share
                for cores in (8, 12)
            }
        results["workloads"][workload] = {
            "series": per_config,
            "ideal_rates": ideals,
        }
    return results


def main(num_slots: int = None) -> str:
    reclaim = run_reclaim(num_slots)
    rows = []
    for load_index, load in enumerate(reclaim["loads"]):
        row = [f"{load * 100:.0f}%"]
        for label in ("20MHz", "100MHz"):
            point = reclaim["configs"][label][load_index]
            row.append(f"{point['reclaimed'] * 100:.0f}%")
            row.append(f"{point['upper_bound'] * 100:.0f}%")
        rows.append(row)
    out = format_table(
        ["cell load", "Concordia 20MHz", "upper bound 20MHz",
         "Concordia 100MHz", "upper bound 100MHz"],
        rows, title="Figure 8a - reclaimed vRAN pool CPU")

    workloads = run_workloads(num_slots, loads=(0.05, 0.5, 1.0))
    for workload, data in workloads["workloads"].items():
        rows = []
        for index, load in enumerate((0.05, 0.5, 1.0)):
            row = [f"{load * 100:.0f}%"]
            for label in ("20MHz", "100MHz"):
                point = data["series"][label][index]
                rate = sum(point["rates"].values())
                row.append(f"{rate:,.0f}")
            rows.append(row)
        out += "\n\n" + format_table(
            ["cell load", "20MHz vRAN (ops/s)", "100MHz vRAN (ops/s)"],
            rows, title=f"Figure 8b-d - {workload} throughput collocated "
                        f"with Concordia")
    return out


if __name__ == "__main__":
    print(main())
