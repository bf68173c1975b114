"""Tables 1-5: configuration validation, task-cost breakdown, and the
hardware-accelerator extension measurements.

* Tables 1/2 are configuration constants (validated against the code).
* Table 5 — share of processing time per task type (decode >60 % of
  uplink, encode >40 % of downlink, etc.).
* Table 3 — with FPGA LDPC offload: minimum cores and average CPU
  utilization for 1-3 × 100 MHz TDD cells at peak traffic.
* Table 4 — average processing time of an uplink/downlink slot
  including the offload waits vs the CPU-only (non-offloaded) part.
"""

from __future__ import annotations

from collections import defaultdict

from ..accel.offload import (
    Accelerator,
    AcceleratorConfig,
    attach_accelerator,
    pool_100mhz_accel,
)
from ..ran.config import pool_100mhz_2cells, pool_20mhz_7cells
from ..ran.tasks import DL_TASK_TYPES, UL_TASK_TYPES, TaskType
from ..scenario import Scenario, build_simulation
from .common import format_table, scaled_slots

__all__ = ["run_table5", "run_table3", "run_table4", "main"]


def run_table5(num_slots: int = None, seed: int = 5) -> dict:
    """Table 5: per-task share of UL/DL processing time at high load."""
    if num_slots is None:
        num_slots = scaled_slots(2500)
    config = pool_100mhz_2cells(num_cores=8)
    simulation = build_simulation(Scenario(
        pool=config, policy="dedicated", load_fraction=1.0, seed=seed))
    totals = defaultdict(float)
    simulation.pool.task_observers.append(lambda task: totals.__setitem__(
        task.task_type, totals[task.task_type] + task.runtime_us))
    simulation.run(num_slots)
    ul_total = sum(totals[t] for t in UL_TASK_TYPES)
    dl_total = sum(totals[t] for t in DL_TASK_TYPES)
    return {
        "uplink_shares": {t.value: totals[t] / ul_total
                          for t in UL_TASK_TYPES},
        "downlink_shares": {t.value: totals[t] / dl_total
                            for t in DL_TASK_TYPES},
    }


def run_table3(num_slots: int = None, seed: int = 5,
               cell_counts=(1, 2, 3), max_cores: int = 6) -> dict:
    """Table 3: min cores + utilization with FPGA LDPC acceleration."""
    if num_slots is None:
        num_slots = scaled_slots(3000)
    results = {}
    for num_cells in cell_counts:
        chosen = None
        for cores in range(1, max_cores + 1):
            config = pool_100mhz_accel(num_cells=num_cells,
                                       num_cores=cores)
            simulation = build_simulation(Scenario(
                pool=config, policy="dedicated", load_fraction=1.0,
                seed=seed))
            # The FPGA is provisioned with pipelines for the cell count
            # (the paper's DE5-Net serves all cells of the testbed).
            accel_config = AcceleratorConfig(pipelines=2 * num_cells)
            attach_accelerator(simulation.pool,
                               Accelerator(simulation.engine, accel_config))
            result = simulation.run(num_slots)
            if result.latency.miss_fraction < 1e-3:
                chosen = (cores, result.vran_utilization)
                break
        if chosen is None:
            chosen = (max_cores, float("nan"))
        results[num_cells] = {
            "min_cores": chosen[0],
            "utilization": chosen[1],
        }
    return results


def run_table4(num_slots: int = None, seed: int = 5) -> dict:
    """Table 4: UL/DL slot times, offloaded vs non-offloaded parts.

    Single accelerated cell, single CPU core.  'Total' is the DAG
    completion latency (includes waiting on the FPGA); 'non-offloaded'
    is the CPU time of tasks that stayed on the core.
    """
    if num_slots is None:
        num_slots = scaled_slots(3000)
    config = pool_100mhz_accel(num_cells=1, num_cores=1,
                               deadline_us=4000.0)
    simulation = build_simulation(Scenario(
        pool=config, policy="dedicated", load_fraction=1.0, seed=seed))
    attach_accelerator(simulation.pool, Accelerator(simulation.engine))
    cpu_time = defaultdict(float)
    cpu_count = defaultdict(int)
    totals = defaultdict(list)

    def observe(task):
        key = "uplink" if task.dag.uplink else "downlink"
        if task.task_type not in (TaskType.LDPC_DECODE,
                                  TaskType.LDPC_ENCODE):
            cpu_time[key] += task.runtime_us
        dag = task.dag
        if dag.tasks_remaining == 0 and dag.latency_us is not None:
            totals[key].append(dag.latency_us)

    simulation.pool.task_observers.append(observe)
    simulation.run(num_slots)
    # Count busy (non-idle) slots per direction for the averages.
    slots = {key: len(values) for key, values in totals.items()}
    return {
        key: {
            "avg_nonoffloaded_us": cpu_time[key] / max(1, slots[key]),
            "avg_total_us": sum(totals[key]) / max(1, slots[key]),
        }
        for key in ("uplink", "downlink")
    }


def main(num_slots: int = None) -> str:
    pool20, pool100 = pool_20mhz_7cells(), pool_100mhz_2cells()
    rows = [
        ["100MHz", len(pool100.cells), f"{pool100.num_cores}",
         f"{pool100.deadline_us:.0f}"],
        ["20MHz", len(pool20.cells), f"{pool20.num_cores}",
         f"{pool20.deadline_us:.0f}"],
    ]
    out = format_table(["bandwidth", "# cells", "# cores",
                        "deadline (us)"], rows,
                       title="Tables 1/2 - evaluated cell configurations")

    table5 = run_table5(num_slots)
    rows = [[name, f"{share * 100:.1f}%"]
            for name, share in sorted(table5["uplink_shares"].items(),
                                      key=lambda kv: -kv[1])]
    out += "\n\n" + format_table(
        ["uplink task", "share of UL time"], rows,
        title="Table 5 - uplink processing breakdown "
              "(paper: decode >60%, chanest >8%, equalization >5%, "
              "demod >6%)")
    rows = [[name, f"{share * 100:.1f}%"]
            for name, share in sorted(table5["downlink_shares"].items(),
                                      key=lambda kv: -kv[1])]
    out += "\n\n" + format_table(
        ["downlink task", "share of DL time"], rows,
        title="Table 5 - downlink processing breakdown "
              "(paper: encode >40%, precoding >15%, modulation >10%)")

    table3 = run_table3(num_slots)
    rows = [[cells, entry["min_cores"],
             f"{entry['utilization'] * 100:.1f}%"]
            for cells, entry in sorted(table3.items())]
    out += "\n\n" + format_table(
        ["# cells", "min CPU cores", "avg CPU utilization"], rows,
        title="Table 3 - FPGA LDPC acceleration "
              "(paper: 1/3/4 cores at 58/47/59% util)")

    table4 = run_table4(num_slots)
    rows = [
        [direction.capitalize(),
         f"{entry['avg_nonoffloaded_us']:.0f}",
         f"{entry['avg_total_us']:.0f}",
         f"{entry['avg_total_us'] / max(entry['avg_nonoffloaded_us'], 1e-9):.1f}x"]
        for direction, entry in table4.items()
    ]
    out += "\n\n" + format_table(
        ["direction", "non-offloaded CPU (us)", "total slot (us)",
         "ratio"],
        rows, title="Table 4 - slot times with FPGA offload, 1 core "
                    "(paper: UL 515/1414 ~2.7x, DL 196/366 ~1.9x)")
    return out


if __name__ == "__main__":
    print(main())
