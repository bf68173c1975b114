"""Outside-in benchmark of the Concordia vRAN simulator.

Run from the repository root (no install or ``PYTHONPATH`` needed)::

    python3 bench/run.py [--workload NAME] [--seed N] [--trace 0|1]
                         [--sets N]

Each workload runs in fresh child processes (``bench/child.py``),
one at a time, with ``REPRO_*`` removed from their environment: two
that only set up (none for a workload that trains predictors), and one
that sets up and then measures rounds for ``run_seconds`` of
``BENCHMARK.json``.  ``--seconds`` is accepted for callers that pass
the run length explicitly, and must equal it.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` prints its
per-layer metrics from a run whose rounds alternate between untraced
and traced.  Every metric
is printed by name with its unit, then the model outputs and checks,
and the last line is one JSON object: ``correct``, ``attempted`` and
``failed`` operations, and ``metrics``.  End-to-end times are in
reference seconds (see ``hostspeed.py``); the same times in host seconds
are printed beside them.

``--sets N`` runs every selected workload N times (untraced),
alternating the workload order, prints each metric's median and
quartiles per set, and exits non-zero when two sets differ by more than
a metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"

#: Set-ups timed per run (the median is ``setup_s``); the last one
#: goes on to measure.  A workload that trains predictors (``TRAINED``)
#: times one: its ~25 s set-up already averages over the host's short
#: stalls, and three would not fit the benchmark's total time budget.
SETUPS = 3
TRAINED = frozenset({"fig11-redis", "fig08-sweep"})

#: Wall budget of one workload run, all its children included.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A child failed or its report was unusable."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    """This process's environment minus ``REPRO_*``, with ``src`` on
    ``PYTHONPATH``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: list, deadline: float) -> tuple:
    """Run one child to completion; (monotonic start, its report).

    The child leads its own process group, so a timeout kills it
    together with any batch workers it forked.
    """
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), *argv], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(argv)}: over the "
                         f"{RUN_BUDGET_S:.0f} s budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv)}: child exited with code "
                         f"{proc.returncode}")
    return start, json.loads(lines[-1])


def spread(values: list) -> dict:
    """Median and quartiles (``statistics.quantiles``) of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Set up one or more times, measure once; the run's record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    argv = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    setups = 1 if name in TRAINED else SETUPS
    setup_s = []
    setup_layers = []
    for index in range(setups):
        last = index == setups - 1
        start, report = spawn(argv if last else argv + ["--setup-only"],
                              deadline)
        setup_s.append((report["setup_end"] - start, report["setup_probe"]))
        setup_layers.append(report.get("setup"))
    rounds = report["rounds"]
    ops = [op for r in rounds for op in r["ops"]]
    untraced = [r for r in rounds if not r["traced"] and r["wall"]]
    if not untraced:
        raise BenchError(f"{name}: no untraced round completed")
    probes = [probe for _, probe in setup_s] + \
        [p for r in untraced for p in r["probes"]]
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "rounds": len(rounds),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "reference": report["reference"],
        "first_round": rounds[0]["ops"],
        "failures": sorted({op["why"] for op in ops if not op["ok"]}),
        "metrics": {
            "cell_slots_per_s": spread([
                r["cell_slots"] / hostspeed.to_reference(r["wall"],
                                                         *r["probes"])
                for r in untraced]),
            "setup_s": spread([hostspeed.to_reference(host_s, probe)
                               for host_s, probe in setup_s]),
            "peak_rss_mb": spread([report["peak_rss_mb"]]),
        },
        # The same times in host seconds, and the host's speed.
        "host": {
            "cell_slots_per_s": statistics.median(
                r["cell_slots"] / r["wall"] for r in untraced),
            "setup_s": statistics.median(host_s for host_s, _ in setup_s),
            "probe_s": statistics.median(probes),
        },
    }
    if trace:
        traced = [r for r in rounds if r["traced"] and r["wall"]]
        if not traced:
            raise BenchError(f"{name}: no traced round completed")
        layers = {key: spread([r["layers"][key] for r in traced])
                  for key in traced[0]["layers"]}
        for key in setup_layers[0]:
            layers[key] = spread([s[key] for s in setup_layers])
        overhead = (statistics.median(r["wall"] for r in traced)
                    / statistics.median(r["wall"] for r in untraced) - 1.0)
        layers["trace.overhead_frac"] = spread([overhead])
        record["metrics"] = layers
    return record


def result_line(record: dict, listed: list) -> dict:
    """The contract JSON object: the listed metrics, value and unit."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in listed},
    }


def print_record(record: dict, listed: list) -> None:
    """Human-readable block, then the JSON result as the last line."""
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']}  seed {record['seed']}  ({mode}, "
          f"{record['rounds']} rounds)")
    for metric in listed:
        stats = record["metrics"][metric["name"]]
        detail = ""
        if stats["n"] > 1:
            detail = (f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                      f"n {stats['n']}")
        print(f"  {metric['name']:<36} {stats['value']:>14.6g} "
              f"{metric['unit']:<12}{detail}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'error_rate':<36} {failed / attempted:>14.6g} "
          f"{'share':<12}  {failed} of {attempted} operations failed")
    host = record["host"]
    print(f"  in host seconds: cell_slots_per_s {host['cell_slots_per_s']:.6g}"
          f", setup_s {host['setup_s']:.6g}; host-speed probe "
          f"{host['probe_s'] * 1e3:.2f} ms (reference "
          f"{hostspeed.REFERENCE_S * 1e3:.2f} ms)")
    print(f"  checked against: {record['reference']}")
    for index, op in enumerate(record["first_round"]):
        if op["digest"] is None:
            continue
        print(f"  op {index}: digest {op['digest'][:16]}  "
              f"p99.999 {op['p99999_us']:.1f} us  "
              f"miss {op['miss_fraction']:.6f}  "
              f"reclaimed {op['reclaimed_fraction']:.4f}")
    for why in record["failures"]:
        print(f"  FAILED: {why}")
    print(json.dumps(result_line(record, listed)))


def run_sets(names: list, sets: int, seed: int, seconds: float,
             bench: dict) -> int:
    """Repeat the whole selection ``sets`` times; compare the sets."""
    listed = bench["end_to_end"]
    results = [{} for _ in range(sets)]
    for index in range(sets):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            record = run_workload(name, seed, seconds, trace=False)
            print_record(record, listed)
            results[index][name] = record
    agree = all(r["failed"] == 0 for s in results for r in s.values())
    print(f"== {sets} sets, seed {seed}, {seconds:g} s per run")
    for name in names:
        for metric in listed:
            key, bound = metric["name"], metric["bound"]
            values = [s[name]["metrics"][key] for s in results]
            base = values[0]["value"]
            worst = max(abs(v["value"] - base) / base for v in values)
            ok = worst <= bound
            agree = agree and ok
            cells = "  ".join(
                f"{v['value']:.6g} [{v['q1']:.6g}, {v['q3']:.6g}]"
                for v in values)
            print(f"  {name:<16} {key:<17} {cells}  "
                  f"diff {worst:.1%} (bound {bound:.0%}) "
                  f"{'ok' if ok else 'FAIL'}")
    print(json.dumps({
        "seed": seed,
        "seconds": seconds,
        "agree": agree,
        "sets": [{name: {m["name"]: dict(s[name]["metrics"][m["name"]],
                                         unit=m["unit"])
                         for m in listed}
                  for name in names}
                 for s in results],
    }))
    return 0 if agree else 1


def _terminate(signum, frame):
    # SystemExit unwinds through spawn()'s cleanup, which kills the
    # child's process group.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="measured time per run; accepted only as "
                             "BENCHMARK.json's run_seconds, so every run "
                             "of every commit measures the same length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        nargs="?", const=1)
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the runs and compare (untraced)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.sets < 1:
        parser.error("--seed must be >= 0 and --sets >= 1")
    if args.seconds != bench["run_seconds"]:
        parser.error(f"--seconds must be {bench['run_seconds']} "
                     f"(run_seconds in BENCHMARK.json)")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    selected = [args.workload] if args.workload else names
    try:
        if args.sets > 1:
            return run_sets(selected, args.sets, args.seed, args.seconds,
                            bench)
        listed = bench["per_layer"] if args.trace else bench["end_to_end"]
        status = 0
        for name in selected:
            record = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            print_record(record, listed)
            status = status or int(record["failed"] > 0)
        return status
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
