"""Hot-path benchmark, CI perf guard and profiler (``repro bench``).

Runs a Fig. 11-style simulation (20 MHz / 7 cells, collocated Redis,
``concordia-noml`` so no training rides on the measurement) and reports
wall-clock plus throughput in simulated slots per second.  Three uses:

* **benchmarking** — ``repro bench`` (or the thin
  ``scripts/bench_hotpath.py`` wrapper) prints best-of-N wall and
  slots-per-second for the current tree;
* **CI regression guard** — ``--check results/bench_hotpath_baseline.json``
  compares against a recorded baseline and exits non-zero when
  throughput regressed by more than ``--tolerance``;
  ``--write-baseline`` records the current tree as the new baseline;
* **profiling** — ``--profile`` dumps the cProfile top-30 by
  cumulative time plus the task-event fast path's share of the run,
  so the profile that motivated the fast-path work is reproducible
  with one command.

The report also carries an **engine micro-benchmark**: the same
self-rescheduling event fired through ``Engine.schedule_after`` (a
fresh heap entry per firing) and through a reusable ``Engine.timer``
entry, both over a 1k-deep heap backlog.  Both paths are timed in the
same process seconds apart, so their ratio is machine-load-free; the
guard only trips if the reusable path stops being at least as fast as
the churn path (minus the tolerance).

The recorded baseline carries the machine's single-core reference so
wildly different hardware is flagged rather than silently failed; CI
runners of the same class are comparable within the tolerance.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

__all__ = [
    "calibrate_reference",
    "timed_run",
    "engine_microbench",
    "profile_hotpath",
    "main",
]

#: Functions whose combined share of a profiled run defines the
#: "task-event fast path" (see docs/ARCHITECTURE.md).
FAST_PATH_FUNCS = ("_finish", "_dispatch", "_start")

#: Slots for the Fig. 3-calibrated idle-kernel measurement.
IDLE_KERNEL_SLOTS = 240

#: Minimum idle-slot coverage the window kernel must reach on the
#: Fig. 3-calibrated workload for ``--check`` to pass.  The run is
#: fully deterministic (fixed seed), so a drop below this means the
#: idle fast path stopped engaging, not statistical noise.
IDLE_KERNEL_MIN_SHARE = 0.5

#: Minimum certified-slot coverage the array-timeline kernel must
#: reach on the same fig03-calibrated workload.  Deterministic for the
#: same reason: below this floor the closed-form commit stopped
#: engaging (a regression in the kernel or its certification gates).
ARRAY_KERNEL_MIN_SHARE = 0.5


def calibrate_reference() -> float:
    """Cheap single-core reference score (higher = faster machine).

    A fixed pure-Python workload, timed: used only to annotate
    baselines so cross-machine comparisons can be recognized.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * 3 // 7
    wall = time.perf_counter() - start
    return round(1.0 / wall, 3)


def timed_run(slots: int, seed: int,
              engine: str = "event") -> tuple[float, object]:
    """One Fig. 11-style simulation; returns (wall_s, result)."""
    from repro.scenario import Scenario, build_simulation

    scenario = Scenario(
        pool={"name": "20mhz"},
        policy="concordia-noml",
        workload="redis",
        load_fraction=0.5,
        seed=seed,
        engine_mode=engine,
    )
    simulation = build_simulation(scenario)
    start = time.perf_counter()
    result = simulation.run(slots)
    return time.perf_counter() - start, result


def idle_kernel_run(slots: int = IDLE_KERNEL_SLOTS, seed: int = 7,
                    engine: str = "event") -> dict:
    """Fig. 3-calibrated idle-kernel measurement.

    One 20 MHz cell at 2 % load: per §2.2 a single cell is idle ~75 %
    of TTIs per direction, so most slots carry no traffic in *either*
    direction and the window kernel's idle fast path should cover the
    majority of the run.  Returns the kernel coverage counters plus
    throughput (the idle fast path is what makes low-load fleets
    cheap to simulate).  With ``engine="array"`` the same workload runs
    through the array-timeline kernel, which should commit nearly every
    slot here in closed form.
    """
    from repro.ran.config import PoolConfig, cell_20mhz_fdd
    from repro.scenario import Scenario, build_simulation

    pool = PoolConfig(cells=(cell_20mhz_fdd("bench-idle"),),
                      num_cores=4, deadline_us=2000.0)
    scenario = Scenario(
        pool=pool,
        policy="concordia-noml",
        workload="none",
        load_fraction=0.02,
        seed=seed,
        engine_mode=engine,
    )
    simulation = build_simulation(scenario)
    start = time.perf_counter()
    simulation.run(slots)
    wall = time.perf_counter() - start
    stats = simulation.kernel_stats
    report = {
        "slots": stats["slots"],
        "wall_s": round(wall, 3),
        "slots_per_s": round(slots / wall, 1),
        "window_slots": stats["window_slots"],
        "idle_slots": stats["idle_slots"],
        "idle_share": round(stats["idle_slots"] / max(1, stats["slots"]),
                            3),
    }
    if engine == "array":
        report["array_slots"] = stats["array_slots"]
        report["array_share"] = round(
            stats["array_slots"] / max(1, stats["slots"]), 3)
        report["vector_slots"] = stats["vector_slots"]
        kernel = simulation._array_kernel
        # Wall-clock phase breakdown of the array run: window fill
        # (traffic/plan/DAG prebuild), closed-form vector commits,
        # rejects to the event path, and the end-of-run latency
        # histogram/summary fold.
        report["phases"] = {
            "fill_wall_s": round(simulation.fill_wall_s, 4),
            "vector_wall_s": round(kernel.vector_wall_s, 4),
            "gate_wall_s": round(kernel.gate_wall_s, 4),
            "summary_wall_s": round(simulation.summary_wall_s, 4),
        }
    return report


# -- engine micro-benchmark ---------------------------------------------------


def engine_microbench(heap_depth: int = 1000,
                      firings: int = 50_000) -> dict:
    """Time per-event overhead: ``schedule_after`` churn vs Timer reuse.

    Both variants run one self-rescheduling callback for ``firings``
    events on top of a backlog of ``heap_depth`` far-future one-shots,
    so every push/pop pays a realistic O(log depth).  The churn variant
    allocates a fresh heap entry (and closure-captured callback slot)
    per firing; the Timer variant re-keys one reusable entry — the
    mechanism each ``Worker.finish_timer`` uses per task completion.
    """
    from repro.sim.engine import Engine

    def _backlogged_engine() -> Engine:
        engine = Engine()
        for i in range(heap_depth):
            engine.schedule_after(1e12 + i, _noop)
        return engine

    def _noop() -> None:
        pass

    # Variant A: one-shot churn via schedule_after.
    engine = _backlogged_engine()
    remaining = firings

    def churn_cb() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            engine.schedule_after(1.0, churn_cb)

    engine.schedule_after(1.0, churn_cb)
    start = time.perf_counter()
    engine.run_until(firings + 10.0)
    churn_wall = time.perf_counter() - start

    # Variant B: reusable re-keyed Timer entry.
    engine = _backlogged_engine()
    remaining = firings
    timer = None

    def timer_cb() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            timer.arm(1.0)

    timer = engine.timer(timer_cb)
    timer.arm(1.0)
    start = time.perf_counter()
    engine.run_until(firings + 10.0)
    timer_wall = time.perf_counter() - start

    return {
        "heap_depth": heap_depth,
        "firings": firings,
        "schedule_after_events_per_s": round(firings / churn_wall, 0),
        "timer_events_per_s": round(firings / timer_wall, 0),
        "timer_speedup": round(churn_wall / timer_wall, 3),
    }


# -- profiling ----------------------------------------------------------------


def profile_hotpath(slots: int, seed: int, top: int = 30,
                    engine: str = "event") -> int:
    """Profile one run; print cProfile top-N cumulative + fast-path share."""
    import cProfile
    import io
    import pstats

    from repro.scenario import Scenario, build_simulation

    scenario = Scenario(
        pool={"name": "20mhz"},
        policy="concordia-noml",
        workload="redis",
        load_fraction=0.5,
        seed=seed,
        engine_mode=engine,
    )
    simulation = build_simulation(scenario)
    profiler = cProfile.Profile()
    profiler.enable()
    simulation.run(slots)
    profiler.disable()

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    print(stream.getvalue())

    # Task-event fast path share: pool._finish / _dispatch / _start.
    total = stats.total_tt
    fast_tt = 0.0
    fast_cum = {}
    for (filename, _line, name), (_cc, _nc, tt, ct, _callers) in \
            stats.stats.items():
        if name in FAST_PATH_FUNCS and filename.endswith("pool.py"):
            fast_tt += tt
            fast_cum[name] = ct
    finish_cum = fast_cum.get("_finish", 0.0)
    print(f"task-event fast path (pool {'+'.join(FAST_PATH_FUNCS)}): "
          f"{fast_tt:.3f}s self time of {total:.3f}s total "
          f"({100.0 * fast_tt / total:.1f}%); "
          f"_finish cumulative {finish_cum:.3f}s "
          f"({100.0 * finish_cum / total:.1f}%)")
    kernel = simulation.kernel_stats
    print(f"window kernel: {kernel['windows']} windows covering "
          f"{kernel['window_slots']}/{kernel['slots']} slots, "
          f"{kernel['idle_slots']} idle-batched; "
          f"ticks batched {simulation.pool.ticks_batched} in "
          f"{simulation.pool.tick_batches} gaps")
    array_slots = kernel.get("array_slots", 0)
    print(f"array kernel ({engine} engine): committed in closed form "
          f"{array_slots}/{kernel['slots']} slots "
          f"({100.0 * array_slots / max(1, kernel['slots']):.1f}%), "
          f"{kernel['slots'] - array_slots} on the event path")
    # Phase breakdown of the same run (wall clock, not profiler time):
    # where a slot's wall goes once the certified window kernel engages.
    phases = [
        ("window fill (traffic/plan/DAG prebuild)",
         simulation.fill_wall_s),
        ("latency summary/histogram fold", simulation.summary_wall_s),
    ]
    array_kernel = getattr(simulation, "_array_kernel", None)
    if array_kernel is not None:
        phases[1:1] = [
            ("vector kernel (closed-form commits)",
             array_kernel.vector_wall_s),
            ("rejects to the event path", array_kernel.gate_wall_s),
        ]
    print("phase breakdown:")
    for label, wall in phases:
        print(f"  {label}: {wall:.3f}s")
    return 0


# -- CLI ----------------------------------------------------------------------


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the bench options on ``parser`` (shared with ``repro``)."""
    parser.add_argument("--slots", type=int, default=600)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", "--rounds", type=int, default=3,
                        dest="rounds", help="timed rounds (best-of)")
    parser.add_argument("--check", default=None,
                        help="baseline JSON to guard against")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max fractional slowdown vs the baseline")
    parser.add_argument("--write-baseline", default=None,
                        help="record the current tree as baseline JSON")
    parser.add_argument("--engine", choices=("event", "array"),
                        default="event",
                        help="engine for the fig11-style headline run "
                             "(the fig03 A/B row always times both)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile one run (top-30 cumulative) "
                             "instead of timing")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")


def run_bench(args) -> int:
    if args.profile:
        return profile_hotpath(args.slots, args.seed, engine=args.engine)

    walls = []
    result = None
    for _ in range(args.rounds):
        wall, result = timed_run(args.slots, args.seed, engine=args.engine)
        walls.append(wall)
    best = min(walls)
    slots_per_s = args.slots / best
    # Seed pinned (not args.seed) in the fig03 rows: the --check
    # coverage guards depend on those runs being bit-reproducible.
    # Both engines are timed back to back (best-of-rounds each) so the
    # A/B ratio is immune to machine-load drift between reports.
    idle_event = idle_kernel_run()
    idle_array = idle_kernel_run(engine="array")
    for _ in range(args.rounds - 1):
        again = idle_kernel_run()
        if again["wall_s"] < idle_event["wall_s"]:
            idle_event = again
        again = idle_kernel_run(engine="array")
        if again["wall_s"] < idle_array["wall_s"]:
            idle_array = again
    idle_array["speedup_vs_event"] = round(
        idle_event["wall_s"] / idle_array["wall_s"], 3) \
        if idle_array["wall_s"] > 0 else 0.0
    report = {
        "slots": args.slots,
        "seed": args.seed,
        "rounds": args.rounds,
        "engine": args.engine,
        "wall_s_best": round(best, 3),
        "wall_s_all": [round(w, 3) for w in walls],
        "slots_per_s": round(slots_per_s, 1),
        "p99999_us": round(result.latency.p99999_us, 1),
        "idle_kernel": idle_event,
        "idle_kernel_array": idle_array,
        "engine_microbench": engine_microbench(),
        "machine_reference": calibrate_reference(),
        "python": platform.python_version(),
    }

    if not args.json:
        micro = report["engine_microbench"]
        idle = report["idle_kernel"]
        print(f"fig11-style hot path ({args.engine} engine): "
              f"{args.slots} slots in "
              f"{best:.2f}s best-of-{args.rounds} "
              f"({slots_per_s:,.0f} slots/s)")
        print(f"fig03-style idle kernel: {idle['slots']} slots at 2% "
              f"load ({idle['slots_per_s']:,.0f} slots/s), idle fast "
              f"path covered {idle['idle_share']:.0%}")
        print(f"fig03 array vs event: {idle_array['slots_per_s']:,.0f} "
              f"vs {idle['slots_per_s']:,.0f} slots/s "
              f"({idle_array['speedup_vs_event']:.2f}x), certified "
              f"slots {idle_array['array_share']:.0%}")
        print(f"engine microbench (heap depth {micro['heap_depth']}): "
              f"schedule_after {micro['schedule_after_events_per_s']:,.0f} "
              f"ev/s, reusable timer {micro['timer_events_per_s']:,.0f} "
              f"ev/s ({micro['timer_speedup']:.2f}x)")

    status = 0
    if args.check:
        baseline = json.loads(pathlib.Path(args.check).read_text())
        floor = baseline["slots_per_s"] * (1.0 - args.tolerance)
        report["baseline_slots_per_s"] = baseline["slots_per_s"]
        report["floor_slots_per_s"] = round(floor, 1)
        ratio = slots_per_s / baseline["slots_per_s"]
        report["ratio_vs_baseline"] = round(ratio, 3)
        if not args.json:
            print(f"baseline {baseline['slots_per_s']:,.0f} slots/s "
                  f"(machine ref {baseline.get('machine_reference')} vs "
                  f"{report['machine_reference']}); "
                  f"current/baseline = {ratio:.2f}x, "
                  f"floor {floor:,.0f} slots/s")
        if slots_per_s < floor:
            print("FAIL: hot-path throughput regressed beyond "
                  f"{args.tolerance:.0%} budget", file=sys.stderr)
            status = 1
        # The timer and churn variants run seconds apart in this very
        # process, so their ratio is immune to machine-load drift: only
        # a real regression of the reusable-entry path can drop it.
        if report["engine_microbench"]["timer_speedup"] < \
                1.0 - args.tolerance:
            print("FAIL: reusable-timer path slower than schedule_after "
                  "churn beyond budget", file=sys.stderr)
            status = 1
        # Kernel-share guard: the fig03-calibrated run is seed-fixed,
        # so coverage below the floor means the idle fast path stopped
        # engaging (a code regression), never sampling noise.
        if report["idle_kernel"]["idle_share"] < IDLE_KERNEL_MIN_SHARE:
            print("FAIL: idle-slot fast path covered "
                  f"{report['idle_kernel']['idle_share']:.0%} of the "
                  f"fig03-calibrated workload "
                  f"(< {IDLE_KERNEL_MIN_SHARE:.0%})", file=sys.stderr)
            status = 1
        # Same logic for the array-timeline kernel: its certified-slot
        # share on the fixed-seed fig03 workload is deterministic, and
        # its throughput is guarded against the baseline's array row
        # (present in baselines written since the kernel landed).
        if report["idle_kernel_array"]["array_share"] < \
                ARRAY_KERNEL_MIN_SHARE:
            print("FAIL: array-timeline kernel certified "
                  f"{report['idle_kernel_array']['array_share']:.0%} of "
                  f"the fig03-calibrated workload "
                  f"(< {ARRAY_KERNEL_MIN_SHARE:.0%})", file=sys.stderr)
            status = 1
        # The event and array engines run back-to-back in this process
        # (same seed, same workload), so their ratio is immune to
        # machine-load drift: the array timeline must never lose to the
        # per-event engine it certifies against.
        if report["idle_kernel_array"]["speedup_vs_event"] < 1.0:
            print("FAIL: array-timeline engine slower than the event "
                  "engine on the fig03 workload "
                  f"({report['idle_kernel_array']['speedup_vs_event']:.2f}x"
                  " < 1.00x)", file=sys.stderr)
            status = 1
        baseline_array = baseline.get("idle_kernel_array")
        if baseline_array:
            array_floor = baseline_array["slots_per_s"] * \
                (1.0 - args.tolerance)
            if report["idle_kernel_array"]["slots_per_s"] < array_floor:
                print("FAIL: array-engine fig03 throughput "
                      f"{report['idle_kernel_array']['slots_per_s']:,.0f} "
                      f"slots/s below floor {array_floor:,.0f} "
                      f"(baseline {baseline_array['slots_per_s']:,.0f}, "
                      f"tolerance {args.tolerance:.0%})", file=sys.stderr)
                status = 1
        if status == 0 and not args.json:
            print("OK")

    if args.write_baseline:
        path = pathlib.Path(args.write_baseline)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
        if not args.json:
            print(f"baseline -> {path}")

    if args.json:
        print(json.dumps(report, indent=2))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_arguments(parser)
    return run_bench(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
