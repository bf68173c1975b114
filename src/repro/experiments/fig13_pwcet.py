"""Figure 13 and §6.3: comparison with alternative schedulers.

* Fig. 13a/b — Concordia's parameterized quantile-tree predictions vs a
  conventional probabilistic WCET (EVT, one bound per task at
  confidence 1-10^-5): the pWCET scheduler reclaims up to ~20 % fewer
  CPU cycles for only a marginal tail-latency improvement.
* §6.3 — schedulers that do not use WCETs at all: a Shenango-variant
  (queueing-delay threshold) and a utilization-based scheduler.  No
  Shenango threshold both shares cores and meets 99.99 %; the
  utilization scheduler cannot track slot-scale burstiness.
"""

from __future__ import annotations

from ..core.models import PwcetEVT
from ..ran.config import pool_20mhz_7cells
from ..scenario import Scenario
from .common import format_table, run_simulation, scaled_slots

__all__ = ["run_pwcet", "run_wcetless", "main"]


def run_pwcet(num_slots: int = None, seed: int = 7,
              loads=(0.05, 0.25, 0.5, 0.75, 1.0)) -> dict:
    """Fig. 13: quantile-tree Concordia vs pWCET-driven Concordia."""
    if num_slots is None:
        num_slots = scaled_slots(2500)
    config = pool_20mhz_7cells()
    results = {"loads": list(loads), "series": {}}
    from ..core.training import train_predictor
    pwcet_predictor = train_predictor(
        config, num_slots=scaled_slots(600, minimum=300), seed=42,
        model_factory=PwcetEVT,
    )
    for name, predictor in (
        ("concordia", None),
        ("pwcet", pwcet_predictor),
    ):
        series = []
        for load in loads:
            result = run_simulation(
                Scenario(pool=config, policy="concordia", workload="redis",
                         load_fraction=load, seed=seed),
                num_slots, predictor=predictor)
            series.append({
                "load": load,
                "reclaimed": result.reclaimed_fraction,
                "p99999_us": result.latency.p99999_us,
                "miss_fraction": result.latency.miss_fraction,
            })
        results["series"][name] = series
    return results


def run_wcetless(num_slots: int = None, seed: int = 7,
                 load_fraction: float = 0.5) -> dict:
    """§6.3: Shenango-variant threshold sweep + utilization scheduler."""
    if num_slots is None:
        num_slots = scaled_slots(4000)
    config = pool_20mhz_7cells()
    results = {}
    for threshold in (5.0, 50.0, 200.0):
        result = run_simulation(Scenario(
            pool=config, policy="shenango",
            policy_params={"queue_delay_threshold_us": threshold},
            workload="redis", load_fraction=load_fraction, seed=seed),
            num_slots)
        results[f"shenango-{threshold:.0f}us"] = _wcetless_entry(result)
    result = run_simulation(Scenario(
        pool=config, policy="utilization", policy_params={"threshold": 0.6},
        workload="redis", load_fraction=load_fraction, seed=seed),
        num_slots)
    results["utilization-60%"] = _wcetless_entry(result)
    result = run_simulation(Scenario(
        pool=config, policy="concordia", workload="redis",
        load_fraction=load_fraction, seed=seed), num_slots)
    results["concordia"] = _wcetless_entry(result)
    return results


def _wcetless_entry(result) -> dict:
    return {
        "reclaimed": result.reclaimed_fraction,
        "p9999_us": result.latency.p9999_us,
        "p99999_us": result.latency.p99999_us,
        "miss_fraction": result.latency.miss_fraction,
        "deadline_us": result.latency.deadline_us,
        "meets_five_nines": result.latency.meets_five_nines,
    }


def main(num_slots: int = None) -> str:
    pwcet = run_pwcet(num_slots)
    rows = []
    for index, load in enumerate(pwcet["loads"]):
        concordia = pwcet["series"]["concordia"][index]
        conventional = pwcet["series"]["pwcet"][index]
        rows.append([
            f"{load * 100:.0f}%",
            f"{concordia['reclaimed'] * 100:.0f}%",
            f"{conventional['reclaimed'] * 100:.0f}%",
            f"{concordia['p99999_us']:.0f}",
            f"{conventional['p99999_us']:.0f}",
        ])
    out = format_table(
        ["cell load", "Concordia reclaim", "pWCET reclaim",
         "Concordia p99.999", "pWCET p99.999"],
        rows, title="Figure 13 - Concordia vs conventional pWCET "
                    "(20MHz, Redis)")
    wcetless = run_wcetless(num_slots)
    rows = [
        [name,
         f"{entry['reclaimed'] * 100:.0f}%",
         f"{entry['p9999_us']:.0f}",
         f"{entry['miss_fraction']:.2e}",
         "yes" if entry["p9999_us"] <= entry["deadline_us"] else "NO"]
        for name, entry in wcetless.items()
    ]
    out += "\n\n" + format_table(
        ["scheduler", "reclaimed", "p99.99 (us)", "miss fraction",
         "meets 99.99%"],
        rows, title="§6.3 - schedulers without WCET predictions "
                    "(20MHz, Redis)")
    return out


if __name__ == "__main__":
    print(main())
