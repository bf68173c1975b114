"""Figure 12: effect of vRAN pool size on Concordia's tail latency.

With a continuously running Mix workload (Nginx + Redis + TPCC), the
20 MHz configuration meets 99.999 % with 8 cores, while the 100 MHz
configuration needs one extra core (9) to recover 99.999 % from
99.99 %: more cores give the 20 µs compensation loop spare capacity
when an already-scheduled core is slow to wake.
"""

from __future__ import annotations

from ..ran.config import pool_100mhz_2cells, pool_20mhz_7cells
from ..scenario import Scenario
from .common import format_table, make_spec, run_spec_batch, scaled_slots

__all__ = ["run", "main"]


def run(num_slots: int = None, load_fraction: float = 0.6,
        seed: int = 7) -> dict:
    grid, specs = [], []
    for label, factory, slots_default in (
        ("20MHz", pool_20mhz_7cells, 8000),
        ("100MHz", pool_100mhz_2cells, 16000),
    ):
        slots = num_slots if num_slots is not None else \
            scaled_slots(slots_default)
        for cores in (8, 9):
            grid.append((label, cores))
            specs.append(make_spec(
                Scenario(pool=factory(num_cores=cores), policy="concordia",
                         workload="mix", load_fraction=load_fraction,
                         seed=seed), slots))
    return {key: {
        "p9999_us": result.latency.p9999_us,
        "p99999_us": result.latency.p99999_us,
        "deadline_us": result.latency.deadline_us,
        "miss_fraction": result.latency.miss_fraction,
        "meets_five_nines": result.latency.meets_five_nines,
    } for key, result in zip(grid, run_spec_batch(specs))}


def main(num_slots: int = None) -> str:
    results = run(num_slots)
    out = []
    for label in ("20MHz", "100MHz"):
        rows = []
        for cores in (8, 9):
            entry = results[(label, cores)]
            rows.append([
                f"{cores} cores",
                f"{entry['p9999_us']:.0f}",
                f"{entry['p99999_us']:.0f}",
                "yes" if entry["meets_five_nines"] else "NO",
            ])
        deadline = results[(label, 8)]["deadline_us"]
        out.append(format_table(
            ["pool size", "p99.99 (us)", "p99.999 (us)", "meets 99.999%"],
            rows,
            title=f"Figure 12 - Concordia with Mix workload, {label} "
                  f"(deadline {deadline:.0f} us)"))
    return "\n\n".join(out)


if __name__ == "__main__":
    print(main())
