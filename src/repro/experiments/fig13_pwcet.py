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
from ..core.training import train_predictor
from ..exec.spec import run_spec
from ..ran.config import pool_20mhz_7cells
from ..scenario import Scenario
from .common import format_table, make_spec, run_spec_batch, scaled_slots

__all__ = ["run_pwcet", "run_wcetless", "main"]


def run_pwcet(num_slots: int = None, seed: int = 7,
              loads=(0.05, 0.25, 0.5, 0.75, 1.0)) -> dict:
    """Fig. 13: quantile-tree Concordia vs pWCET-driven Concordia."""
    if num_slots is None:
        num_slots = scaled_slots(2500)
    config = pool_20mhz_7cells()
    specs = [make_spec(Scenario(pool=config, policy="concordia",
                                workload="redis", load_fraction=load,
                                seed=seed), num_slots)
             for load in loads]
    # The pWCET model is trained here and has no spec address, so its
    # series runs one spec at a time with the model as an argument.
    pwcet_predictor = train_predictor(
        config, num_slots=scaled_slots(600, minimum=300), seed=42,
        model_factory=PwcetEVT,
    )
    series = {
        "concordia": run_spec_batch(specs),
        "pwcet": [run_spec(spec, predictor=pwcet_predictor)
                  for spec in specs],
    }
    return {"loads": list(loads), "series": {
        name: [{
            "load": load,
            "reclaimed": result.reclaimed_fraction,
            "p99999_us": result.latency.p99999_us,
            "miss_fraction": result.latency.miss_fraction,
        } for load, result in zip(loads, results)]
        for name, results in series.items()}}


def run_wcetless(num_slots: int = None, seed: int = 7,
                 load_fraction: float = 0.5) -> dict:
    """§6.3: Shenango-variant threshold sweep + utilization scheduler."""
    if num_slots is None:
        num_slots = scaled_slots(4000)
    config = pool_20mhz_7cells()
    grid = {
        f"shenango-{threshold:.0f}us": (
            "shenango", {"queue_delay_threshold_us": threshold})
        for threshold in (5.0, 50.0, 200.0)}
    grid["utilization-60%"] = ("utilization", {"threshold": 0.6})
    grid["concordia"] = ("concordia", {})
    results = run_spec_batch([
        make_spec(Scenario(pool=config, policy=policy,
                           policy_params=params, workload="redis",
                           load_fraction=load_fraction, seed=seed),
                  num_slots)
        for policy, params in grid.values()])
    return {name: _wcetless_entry(result)
            for name, result in zip(grid, results)}


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
