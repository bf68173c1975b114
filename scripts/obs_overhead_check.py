#!/usr/bin/env python
"""CI guard: the observability layer must not perturb the datapath.

Runs the same Fig. 11-style simulation (20 MHz / 7 cells, collocated
Redis) twice — event bus disabled (production default) and enabled
(full task/core/wakeup event recording) — and fails when the enabled
run adds more than the allowed wall-clock overhead, or when its result
digest differs from the disabled run's (recording must change nothing
in the results).  The enabled run's
Chrome trace is written next to the metrics dump so CI can upload both
as artifacts.

Usage::

    PYTHONPATH=src python scripts/obs_overhead_check.py \
        [--slots 800] [--threshold 0.10] [--out-dir results/ci]

Exit code 0 when within budget with equal digests, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time


def timed_run(slots: int, seed: int, with_bus: bool):
    """One simulation; returns (wall_s, result, bus-or-None)."""
    from repro.obs.events import EventBus
    from repro.ran.config import pool_20mhz_7cells
    from repro.scenario import Scenario, build_simulation

    bus = EventBus() if with_bus else None
    simulation = build_simulation(
        Scenario(pool=pool_20mhz_7cells(num_cores=8),
                 policy="concordia-noml", workload="redis",
                 load_fraction=0.5, seed=seed),
        event_bus=bus)
    start = time.perf_counter()
    result = simulation.run(slots)
    return time.perf_counter() - start, result, bus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=800)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=2,
                        help="timed rounds per mode (best-of)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max fractional wall-clock overhead")
    parser.add_argument("--out-dir", default="results/ci")
    args = parser.parse_args(argv)

    from repro.exec.digest import result_digest

    # Best-of-N on both sides to damp scheduler/CI-runner noise.
    disabled_runs = [timed_run(args.slots, args.seed, False)
                     for _ in range(args.rounds)]
    enabled_runs = [timed_run(args.slots, args.seed, True)
                    for _ in range(args.rounds)]
    disabled = min(wall for wall, __, __ in disabled_runs)
    enabled = min(wall for wall, __, __ in enabled_runs)
    __, result, bus = enabled_runs[-1]
    digest_off = result_digest(disabled_runs[-1][1])
    digest_on = result_digest(result)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from repro.obs.export import write_chrome_trace, write_metrics_json
    write_chrome_trace(out_dir / "trace.json", bus.events)
    write_metrics_json(out_dir / "telemetry.json", result.telemetry)

    overhead = enabled / max(disabled, 1e-9) - 1.0
    report = {
        "slots": args.slots,
        "bus_disabled_wall_s": round(disabled, 3),
        "bus_enabled_wall_s": round(enabled, 3),
        "overhead_fraction": round(overhead, 4),
        "threshold": args.threshold,
        "events_recorded": len(bus.events),
        "events_dropped": bus.dropped,
        "digest_bus_disabled": digest_off,
        "digest_bus_enabled": digest_on,
    }
    (out_dir / "overhead.json").write_text(json.dumps(report, indent=2)
                                           + "\n")
    print(f"bus off: {disabled:.2f}s | bus on: {enabled:.2f}s | "
          f"overhead {overhead * 100:+.1f}% "
          f"(budget {args.threshold * 100:.0f}%) | "
          f"{len(bus.events)} events -> {out_dir / 'trace.json'}")
    failed = False
    if overhead > args.threshold:
        print("FAIL: observability overhead exceeds budget",
              file=sys.stderr)
        failed = True
    if digest_on != digest_off:
        print(f"FAIL: the event bus changed the result digest "
              f"({digest_off[:12]} off vs {digest_on[:12]} on)",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
