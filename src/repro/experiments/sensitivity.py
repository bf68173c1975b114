"""Sensitivity analysis: are the conclusions robust to model constants?

The reproduction rests on calibrated stochastic models (task-runtime
noise, kernel-stall probability, cache-pressure constants).  This
driver perturbs each knob around its calibrated value and re-measures
the paper's two headline quantities — Concordia's deadline reliability
and the Concordia-vs-FlexRAN tail gap — to show the *conclusions* are
not artifacts of specific constants.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..ran.config import pool_20mhz_7cells
from ..scenario import Scenario, build_simulation
from ..sim.osmodel import (
    COLLOCATED_BUCKETS,
    LatencyBucket,
    WakeupLatencyModel,
)
from .common import format_table, scaled_slots

__all__ = ["run", "main", "KNOBS"]

#: Perturbation factors applied to each knob.
FACTORS = (0.5, 1.0, 2.0)

KNOBS = ("runtime_noise", "kernel_stall_prob", "cache_pressure")


def _scaled_buckets(factor: float):
    """Scale the probability of the >400 µs kernel-stall buckets."""
    buckets = []
    moved = 0.0
    for bucket in COLLOCATED_BUCKETS:
        if bucket.low_us >= 400.0:
            scaled = bucket.probability * factor
            moved += bucket.probability - scaled
            buckets.append(LatencyBucket(scaled, bucket.low_us,
                                         bucket.high_us))
        else:
            buckets.append(bucket)
    # Re-deposit the moved mass in the first (fast) bucket to keep the
    # mixture normalized.
    first = buckets[0]
    buckets[0] = LatencyBucket(first.probability + moved, first.low_us,
                               first.high_us)
    return tuple(buckets)


def _run_pair(knob: str, factor: float, num_slots: int, seed: int) -> dict:
    """Concordia + FlexRAN under one perturbed model."""
    config = pool_20mhz_7cells()
    out = {}
    for policy in ("concordia", "flexran"):
        simulation = build_simulation(Scenario(
            pool=config, policy=policy, workload="redis",
            load_fraction=0.5, seed=seed))
        if knob == "runtime_noise":
            simulation.cost_model.noise_sigma *= factor
        elif knob == "kernel_stall_prob":
            simulation.pool.os_model = WakeupLatencyModel(
                rng=np.random.default_rng(seed + 1),
                collocated_buckets=_scaled_buckets(factor),
            )
        elif knob == "cache_pressure":
            base = simulation.pool.cache_model.pressure
            simulation.pool.cache_model.set_pressure(
                min(1.0, base * factor))
            # Freeze the host's pressure sync so the perturbation holds.
            simulation.host.cache_model = None
        else:
            raise ValueError(f"unknown knob {knob}")
        result = simulation.run(num_slots)
        out[policy] = result
    return out


def run(num_slots: int = None, seed: int = 13) -> dict:
    if num_slots is None:
        num_slots = scaled_slots(4000)
    results = {}
    for knob in KNOBS:
        for factor in FACTORS:
            pair = _run_pair(knob, factor, num_slots, seed)
            concordia = pair["concordia"].latency
            flexran = pair["flexran"].latency
            results[(knob, factor)] = {
                "concordia_miss": concordia.miss_fraction,
                "concordia_p99999_us": concordia.p99999_us,
                "flexran_miss": flexran.miss_fraction,
                "flexran_p99999_us": flexran.p99999_us,
                "tail_gap": flexran.p99999_us / max(concordia.p99999_us,
                                                    1e-9),
                "reclaimed": pair["concordia"].reclaimed_fraction,
            }
    return results


def main(num_slots: int = None) -> str:
    results = run(num_slots)
    rows = []
    for (knob, factor), entry in sorted(results.items()):
        rows.append([
            knob, f"x{factor}",
            f"{entry['concordia_miss']:.1e}",
            f"{entry['flexran_miss']:.1e}",
            f"{entry['tail_gap']:.1f}x",
            f"{entry['reclaimed'] * 100:.0f}%",
        ])
    return format_table(
        ["model knob", "scale", "Concordia miss", "FlexRAN miss",
         "FlexRAN/Concordia p99.999", "Concordia reclaim"],
        rows,
        title="Sensitivity: headline conclusions under perturbed model "
              "constants (20MHz + Redis @ 50% load)")


if __name__ == "__main__":
    print(main())
