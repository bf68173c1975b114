"""Long-run reliability validation (paper §6 methodology).

The paper validates 99.999 % reliability with 8-hour Mix-workload runs
(1.1-2.0 × 10⁸ scheduling events) and reports "no performance or
reliability differences ... between the long and the short tests".
This driver runs the same validation at a configurable scale: it
simulates the Mix workload against Concordia in windows, reports the
running miss count, and checks stationarity (no drift between the
first and second half of the run).
"""

from __future__ import annotations

from ..ran.config import pool_20mhz_7cells
from ..scenario import Scenario
from .common import make_spec, run_spec_batch, scaled_slots

__all__ = ["run", "main"]


def run(num_slots: int = None, num_windows: int = 4, seed: int = 19,
        load_fraction: float = 0.5) -> dict:
    """Windowed long-run validation.

    Returns per-window miss statistics plus the aggregate. Windows are
    independent seeded runs (the simulator is stationary, so windowing
    parallels the paper's continuous 8-hour run while bounding memory),
    each starting from its own copy of the offline-trained predictor.
    They run as one spec batch: cached when a result cache is active,
    and fanned out under ``REPRO_JOBS``.
    """
    if num_slots is None:
        num_slots = scaled_slots(10_000)
    config = pool_20mhz_7cells()
    specs = [make_spec(Scenario(pool=config, policy="concordia",
                                workload="mix", load_fraction=load_fraction,
                                seed=seed + window), num_slots)
             for window in range(num_windows)]
    windows = []
    total_slots = 0
    total_misses = 0
    worst_latency = 0.0
    for window, result in enumerate(run_spec_batch(specs)):
        summary = result.latency
        # Batch results carry no live metrics; the miss count is the
        # registry counter the telemetry snapshot keeps.
        misses = result.telemetry["counters"]["slots/missed"]
        windows.append({
            "window": window,
            "slots": summary.count,
            "misses": misses,
            "p99999_us": summary.p99999_us,
            "max_us": summary.max_us,
            "scheduling_events": result.scheduling_events,
        })
        total_slots += summary.count
        total_misses += misses
        worst_latency = max(worst_latency, summary.max_us)
    half = num_windows // 2
    first = sum(w["misses"] for w in windows[:half])
    second = sum(w["misses"] for w in windows[half:])
    return {
        "windows": windows,
        "total_slots": total_slots,
        "total_misses": total_misses,
        "miss_fraction": total_misses / max(total_slots, 1),
        "worst_latency_us": worst_latency,
        "deadline_us": config.deadline_us,
        "first_half_misses": first,
        "second_half_misses": second,
        "meets_five_nines": total_misses / max(total_slots, 1) <= 1e-5,
    }


def main(num_slots: int = None) -> str:
    results = run(num_slots)
    lines = [
        "Long-run reliability validation (Concordia + Mix workload)",
        f"total slot DAGs: {results['total_slots']:,}  misses: "
        f"{results['total_misses']}  "
        f"(fraction {results['miss_fraction']:.2e})",
        f"worst latency: {results['worst_latency_us']:.0f} us "
        f"(deadline {results['deadline_us']:.0f})",
        f"first/second half misses: {results['first_half_misses']} / "
        f"{results['second_half_misses']} (stationarity check)",
        f"meets 99.999%: {'yes' if results['meets_five_nines'] else 'NO'}",
    ]
    for window in results["windows"]:
        lines.append(
            f"  window {window['window']}: {window['slots']:,} slots, "
            f"{window['misses']} misses, p99.999="
            f"{window['p99999_us']:.0f} us, "
            f"{window['scheduling_events']:,} sched events"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(main())
