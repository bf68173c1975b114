#!/usr/bin/env python
"""MAC-layer scheduling walkthrough (paper §7's extension direction).

The paper notes that MAC schedulers are themselves deadline tasks a
vRAN pool could host.  This example exercises the MAC substrate:

1. proportional-fair vs round-robin radio scheduling on a cell with
   polarized channel conditions (throughput/fairness tradeoff);
2. the full pipeline with ``allocation="mac"``: buffer-driven,
   temporally correlated allocations feeding the PHY DAGs, with
   Concordia still meeting the slot deadline.

Run:  python examples/mac_scheduling.py
"""

import copy

import numpy as np

from repro import (
    Scenario,
    build_simulation,
    pool_20mhz_7cells,
    train_predictor,
)
from repro.ran.config import cell_20mhz_fdd
from repro.ran.mac import MacCell, ProportionalFairScheduler, RoundRobinScheduler


def _bar_chart(labels, values, width=40, unit=""):
    """Horizontal ASCII bar chart, one row per label."""
    peak = max(max(values), 1e-12)
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        length = int(round(width * value / peak)) if value > 0 else 0
        lines.append(f"{label.ljust(label_width)} |{'#' * length:<{width}}| "
                     f"{value:,.4g}{unit}")
    return "\n".join(lines)


def fairness_study():
    print("1. PF vs round-robin on a cell with 3 weak + 3 strong users:")
    for scheduler in (ProportionalFairScheduler(), RoundRobinScheduler()):
        mac = MacCell(cell_20mhz_fdd(), num_ues=6, total_rate_bps=150e6,
                      scheduler=scheduler, rng=np.random.default_rng(5))
        for i, session in enumerate(mac.sessions):
            session.mean_snr_db = 2.0 if i < 3 else 22.0
            session.snr_db = session.mean_snr_db
            session.mean_rate_bps = 25e6
        served = {s.ue_id: 0 for s in mac.sessions}
        for __ in range(2000):
            for alloc in mac.step():
                served[alloc.ue_id] += alloc.tbs_bytes
        total = sum(served.values())
        weak = sum(served[i] for i in range(3))
        rate_mbps = total * 8 / (2000 * 1e-3) / 1e6
        print(f"   {scheduler.name:18s} total={rate_mbps:6.1f} Mbps   "
              f"weak-user share={weak / total * 100:5.1f}%")
        print(_bar_chart(
            [f"ue{ue} ({'weak' if ue < 3 else 'strong'})" for ue in served],
            [served[ue] / 1e6 for ue in served], width=30, unit=" MB"))
    print("   -> PF trades a little throughput for much better fairness.\n")


def pipeline_study():
    print("2. Full pipeline with MAC-driven allocations + Concordia:")
    config = pool_20mhz_7cells()
    predictor = train_predictor(config, num_slots=500, seed=42)
    for mode in ("iid", "mac"):
        # Online learning changes the predictor: each mode starts from
        # the offline-trained model, not from the other mode's run.
        sim = build_simulation(
            Scenario(pool=config, policy="concordia", workload="redis",
                     load_fraction=0.4, seed=3, allocation=mode),
            predictor=copy.deepcopy(predictor))
        result = sim.run(2500)
        print(f"   mode={mode:4s}: miss={result.latency.miss_fraction:.2e} "
              f"p99.99={result.latency.p9999_us:6.0f} us  "
              f"reclaimed={result.reclaimed_fraction * 100:5.1f}%")
    print("   -> buffer-driven allocations are burstier and temporally\n"
          "      correlated (backlogs persist across TTIs), and Concordia\n"
          "      still holds the deadline.")


if __name__ == "__main__":
    fairness_study()
    pipeline_study()
