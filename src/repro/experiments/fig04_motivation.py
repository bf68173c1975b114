"""Figure 4: the motivation measurements.

* Fig. 4a — average CPU utilization of the minimum-size vRAN pool for
  three deployments (UL-only 3 cells, TDD 1 cell, TDD 2 cells) is at
  most ~42 %, i.e. most cycles are idle even at peak traffic.
* Fig. 4b — with the default yield-based sharing (vanilla FlexRAN),
  collocating Nginx or Redis blows the 99.99 % slot-processing latency
  past the deadline, while the isolated pool meets it.
"""

from __future__ import annotations

from dataclasses import replace

from ..ran.config import PoolConfig, cell_100mhz_tdd
from ..scenario import Scenario
from .common import format_table, make_spec, run_spec_batch, scaled_slots

__all__ = ["run_utilization", "run_interference", "main",
           "UL_ONLY_3CELLS", "TDD_1CELL", "TDD_2CELLS"]


def _ul_only_cell(name: str):
    """An uplink-only measurement cell (the paper's 'UL only' row)."""
    cell = cell_100mhz_tdd(name)
    # All-uplink TDD pattern models the UL-only workload.
    from ..ran.config import SlotType
    return replace(cell, tdd_pattern=(SlotType.UPLINK,))


#: Fig. 4a scenarios: (label, pool config, paper's min cores, paper util %).
UL_ONLY_3CELLS = (
    "UL only (3 cells)",
    PoolConfig(cells=tuple(_ul_only_cell(f"ul-{i}") for i in range(3)),
               num_cores=4, deadline_us=1500.0),
    42.0,
)
TDD_1CELL = (
    "TDD (1 cell)",
    PoolConfig(cells=(cell_100mhz_tdd("tdd-0"),), num_cores=5,
               deadline_us=1500.0),
    38.0,
)
TDD_2CELLS = (
    "TDD (2 cells)",
    PoolConfig(cells=tuple(cell_100mhz_tdd(f"tdd-{i}") for i in range(2)),
               num_cores=12, deadline_us=1500.0),
    33.0,
)


def run_utilization(num_slots: int = None, seed: int = 3) -> list:
    """Fig. 4a: utilization of the dedicated pool at peak traffic."""
    if num_slots is None:
        num_slots = scaled_slots(3000)
    grid = (UL_ONLY_3CELLS, TDD_1CELL, TDD_2CELLS)
    results = run_spec_batch([
        make_spec(Scenario(pool=config, policy="dedicated",
                           load_fraction=1.0, seed=seed), num_slots)
        for __, config, __ in grid])
    return [{
        "scenario": label,
        "num_cores": config.num_cores,
        "utilization": result.vran_utilization,
        "paper_utilization": paper_util / 100.0,
        "deadline_met": result.latency.miss_fraction < 1e-3,
    } for (label, config, paper_util), result in zip(grid, results)]


def run_interference(num_slots: int = None, seed: int = 3) -> list:
    """Fig. 4b: 99.99 % latency of the yield-sharing baseline."""
    if num_slots is None:
        num_slots = scaled_slots(12_000)
    grid = [(label, config, workload)
            for label, config, __ in (UL_ONLY_3CELLS, TDD_1CELL, TDD_2CELLS)
            for workload in ("none", "nginx", "redis")]
    results = run_spec_batch([
        make_spec(Scenario(pool=config, policy="flexran",
                           workload=workload, load_fraction=0.6,
                           seed=seed), num_slots)
        for __, config, workload in grid])
    rows = {}
    for (label, config, workload), result in zip(grid, results):
        row = rows.setdefault(label, {"scenario": label,
                                      "deadline_us": config.deadline_us})
        row[workload] = result.latency.p9999_us
    return list(rows.values())


def main(num_slots: int = None) -> str:
    util = run_utilization(None if num_slots is None else num_slots)
    util_rows = [
        [r["scenario"], r["num_cores"], f"{r['utilization'] * 100:.0f}%",
         f"{r['paper_utilization'] * 100:.0f}%"]
        for r in util
    ]
    out = format_table(
        ["config", "# cores", "avg CPU util (measured)", "paper"],
        util_rows, title="Figure 4a - vRAN CPU utilization at peak traffic")
    interference = run_interference(
        None if num_slots is None else num_slots)
    int_rows = [
        [r["scenario"], f"{r['deadline_us']:.0f}",
         f"{r['none']:.0f}", f"{r['nginx']:.0f}", f"{r['redis']:.0f}"]
        for r in interference
    ]
    out += "\n\n" + format_table(
        ["config", "deadline (us)", "isolated p99.99", "nginx p99.99",
         "redis p99.99"],
        int_rows,
        title="Figure 4b - slot deadline violations under collocation "
              "(vanilla FlexRAN)")
    return out


if __name__ == "__main__":
    print(main())
