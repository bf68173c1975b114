#!/usr/bin/env python
"""CI guard: the observability layer must not perturb the datapath.

Runs the same Fig. 11-style simulation (20 MHz / 7 cells, collocated
Redis) with the event bus disabled (production default) and enabled
(full task/core/wakeup event recording), and fails when the enabled
run adds more than the allowed wall-clock overhead, or when its result
digest differs from the disabled run's (recording must change nothing
in the results).  The enabled run's
Chrome trace is written next to the metrics dump so CI can upload both
as artifacts.

The runs come in bus-off/bus-on pairs, back to back, with the side
that runs first alternating from pair to pair; the overhead is the
median of the per-pair on/off wall-time ratios.  Host load that drifts
across the check lands on both runs of a pair, and which side goes
first (warm-up, frequency scaling) cancels out over the pairs, so a
10 % budget is judged against the datapath and not against the host.

Usage::

    PYTHONPATH=src python scripts/obs_overhead_check.py \
        [--slots 1000] [--rounds 7] [--threshold 0.10] \
        [--out-dir results/ci]

Exit code 0 when within budget with equal digests, 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import sys
import time


def timed_run(slots: int, seed: int, with_bus: bool):
    """One simulation; returns (wall_s, result, bus-or-None).

    The heap is collected before the clock starts, so no run pays for
    the garbage of the one before it.
    """
    from repro.obs.events import EventBus
    from repro.ran.config import pool_20mhz_7cells
    from repro.scenario import Scenario, build_simulation

    bus = EventBus() if with_bus else None
    simulation = build_simulation(
        Scenario(pool=pool_20mhz_7cells(num_cores=8),
                 policy="concordia-noml", workload="redis",
                 load_fraction=0.5, seed=seed),
        event_bus=bus)
    gc.collect()
    start = time.perf_counter()
    result = simulation.run(slots)
    return time.perf_counter() - start, result, bus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=7,
                        help="bus-off/bus-on pairs; the verdict is the "
                             "median of their wall-time ratios")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max fractional wall-clock overhead")
    parser.add_argument("--out-dir", default="results/ci")
    args = parser.parse_args(argv)

    from repro.exec.digest import result_digest
    from repro.obs.export import write_chrome_trace, write_metrics_json

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    walls = {False: [], True: []}
    digests = {}
    events = dropped = None
    for pair in range(args.rounds):
        for with_bus in ((False, True) if pair % 2 == 0 else (True, False)):
            wall, result, bus = timed_run(args.slots, args.seed, with_bus)
            walls[with_bus].append(wall)
            digests[with_bus] = result_digest(result)
            if bus is not None and events is None:
                # Write the artifacts now and drop the recording, so no
                # later timed run shares the heap with its events.
                write_chrome_trace(out_dir / "trace.json", bus.events)
                write_metrics_json(out_dir / "telemetry.json",
                                   result.telemetry)
                events, dropped = len(bus.events), bus.dropped
            del result, bus
    ratios = [on / max(off, 1e-9)
              for off, on in zip(walls[False], walls[True])]
    overhead = statistics.median(ratios) - 1.0
    disabled = statistics.median(walls[False])
    enabled = statistics.median(walls[True])
    digest_off, digest_on = digests[False], digests[True]

    report = {
        "slots": args.slots,
        "pairs": args.rounds,
        "pair_overheads": [round(r - 1.0, 4) for r in ratios],
        "bus_disabled_wall_s": round(disabled, 3),
        "bus_enabled_wall_s": round(enabled, 3),
        "overhead_fraction": round(overhead, 4),
        "threshold": args.threshold,
        "events_recorded": events,
        "events_dropped": dropped,
        "digest_bus_disabled": digest_off,
        "digest_bus_enabled": digest_on,
    }
    (out_dir / "overhead.json").write_text(json.dumps(report, indent=2)
                                           + "\n")
    print(f"bus off: {disabled:.2f}s | bus on: {enabled:.2f}s "
          f"(medians of {args.rounds} pairs) | "
          f"median pair overhead {overhead * 100:+.1f}% "
          f"(budget {args.threshold * 100:.0f}%) | "
          f"{events} events -> {out_dir / 'trace.json'}")
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
