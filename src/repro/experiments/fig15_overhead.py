"""Figure 15: Concordia scheduler characteristics.

* Fig. 15a — execution time of the Concordia scheduler (one decision)
  and WCET predictor (one slot's predictions), for 1..7 cells.  The
  paper measures <2 µs per scheduling decision and 4→24 µs of
  prediction per TTI, both growing linearly with the number of cells.
  Here we measure the wall-clock time of our Python implementations —
  absolute numbers are interpreter-bound, but the *linear shape* is the
  reproduced claim.
* Fig. 15b — sweeping the DAG deadline parameter (1.6..2.0 ms for the
  20 MHz config at 25 % load): a shorter deadline lowers the tail
  latency at the cost of fewer reclaimed cores.
"""

from __future__ import annotations

from ..ran.config import PoolConfig, cell_20mhz_fdd, pool_20mhz_7cells
from ..scenario import Scenario
from .common import format_table, make_spec, run_spec_batch, scaled_slots

__all__ = ["run_overhead", "run_deadline_sweep", "main"]


def run_overhead(num_slots: int = None, seed: int = 7,
                 cell_counts=(1, 2, 3, 5, 7)) -> dict:
    """Fig. 15a: per-call wall time of scheduler and predictor."""
    if num_slots is None:
        num_slots = scaled_slots(1500)
    configs = [PoolConfig(cells=tuple(cell_20mhz_fdd(f"c{i}")
                                      for i in range(num_cells)),
                          num_cores=8, deadline_us=2000.0)
               for num_cells in cell_counts]
    specs = [make_spec(Scenario(pool=config, policy="concordia",
                                load_fraction=0.6, seed=seed), num_slots)
             for config in configs]
    # Uncached: the columns are wall-clock times of this run, read
    # back through the telemetry snapshot.
    runs = run_spec_batch(specs, use_cache=False)
    results = {}
    for num_cells, result in zip(cell_counts, runs):
        counters = result.telemetry["counters"]
        decisions = max(1, counters["scheduler/scheduling_calls"])
        predictions = max(1, counters["scheduler/prediction_calls"])
        results[num_cells] = {
            "scheduler_us": counters["scheduler/scheduling_wall_s"]
            / decisions * 1e6,
            "predictor_us": counters["scheduler/prediction_wall_s"]
            / predictions * 1e6,
        }
    return results


def run_deadline_sweep(num_slots: int = None, seed: int = 7,
                       deadlines=(1600.0, 1700.0, 1800.0, 1900.0,
                                  2000.0)) -> dict:
    """Fig. 15b: TTI deadline vs tail latency and reclaimed cores."""
    if num_slots is None:
        num_slots = scaled_slots(6000)
    specs = [make_spec(Scenario(pool=pool_20mhz_7cells(deadline_us=d),
                                policy="concordia", workload="redis",
                                load_fraction=0.25, seed=seed), num_slots)
             for d in deadlines]
    return {deadline: {
        "p99999_us": result.latency.p99999_us,
        "reclaimed": result.reclaimed_fraction,
        "miss_fraction": result.latency.miss_fraction,
    } for deadline, result in zip(deadlines, run_spec_batch(specs))}


def main(num_slots: int = None) -> str:
    overhead = run_overhead(None if num_slots is None else num_slots)
    rows = [
        [cells, f"{entry['scheduler_us']:.1f}",
         f"{entry['predictor_us']:.1f}"]
        for cells, entry in sorted(overhead.items())
    ]
    out = format_table(
        ["# cells", "scheduler (us/decision)", "predictor (us/TTI)"],
        rows,
        title="Figure 15a - Concordia processing overhead "
              "(Python wall time; paper reports <2us / 4-24us in C)")
    sweep = run_deadline_sweep(None if num_slots is None else num_slots)
    rows = [
        [f"{deadline:.0f}", f"{entry['p99999_us']:.0f}",
         f"{entry['reclaimed'] * 100:.0f}%"]
        for deadline, entry in sorted(sweep.items())
    ]
    out += "\n\n" + format_table(
        ["TTI deadline (us)", "p99.999 latency (us)", "reclaimed CPU"],
        rows,
        title="Figure 15b - deadline parameter tradeoff "
              "(20MHz @ 25% load)")
    return out


if __name__ == "__main__":
    print(main())
