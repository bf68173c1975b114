"""Figure 9: cache effects of collocation (Concordia vs FlexRAN).

With 2 × 100 MHz cells and a collocated Redis workload, vanilla FlexRAN
sees ~25 % more stall cycles per instruction than the isolated vRAN
(plus ~14 % more L1 misses and ~18 % more LLC loads), while Concordia
stays below 2 % — its proactive, stable core reservations avoid the
acquire/release churn that evicts the vRAN's warm working set.
"""

from __future__ import annotations

from ..ran.config import pool_100mhz_2cells
from ..scenario import Scenario
from ..sim.cache import l1_miss_increase, llc_load_increase
from .common import format_table, make_spec, run_spec_batch, scaled_slots

__all__ = ["run", "main"]


def run(num_slots: int = None, workload: str = "redis",
        load_fraction: float = 0.5, seed: int = 7) -> dict:
    if num_slots is None:
        num_slots = scaled_slots(6000)
    config = pool_100mhz_2cells(num_cores=8)
    policies = ("concordia", "flexran")
    runs = run_spec_batch([
        make_spec(Scenario(pool=config, policy=policy, workload=workload,
                           load_fraction=load_fraction, seed=seed),
                  num_slots)
        for policy in policies])
    return {policy: {
        "stall_increase": result.mean_stall_increase,
        "l1_miss_increase": l1_miss_increase(result.mean_stall_increase),
        "llc_load_increase": llc_load_increase(result.mean_stall_increase),
        "scheduling_events": result.scheduling_events,
    } for policy, result in zip(policies, runs)}


def main(num_slots: int = None) -> str:
    results = run(num_slots)
    rows = []
    for metric, label, paper in (
        ("stall_increase", "stall cycles per instruction increase",
         "<2% vs ~25%"),
        ("l1_miss_increase", "L1 misses per instruction increase",
         "<2% vs ~14%"),
        ("llc_load_increase", "LLC loads per instruction increase",
         "<2% vs ~18%"),
    ):
        rows.append([
            label,
            f"{results['concordia'][metric] * 100:.1f}%",
            f"{results['flexran'][metric] * 100:.1f}%",
            paper,
        ])
    return format_table(
        ["metric", "Concordia", "FlexRAN", "paper (Concordia vs FlexRAN)"],
        rows,
        title="Figure 9 - cache interference from Redis collocation "
              "(2 x 100MHz cells)")


if __name__ == "__main__":
    print(main())
