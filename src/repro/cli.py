"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``     — one simulation (policy x workload x load), JSON/text out;
* ``sweep``   — a grid of simulations through the parallel batch
  runner and its persistent result cache (``--jobs N``,
  ``--no-cache``, ``--cache-dir``);
* ``train``   — run the offline phase and report the fitted models;
* ``figure``  — regenerate one of the paper's tables/figures;
* ``trace``   — run one simulation with the event bus on and export a
  Chrome ``trace_event`` JSON (chrome://tracing / Perfetto) plus flat
  metric dumps;
* ``postmortem`` — run one simulation and audit its worst slot:
  which of wakeup latency, WCET under-prediction or cross-cell
  queueing dominated the (near-)miss;
* ``fleet``   — run a metro deployment (N cells sharded K ways)
  through the fleet planner, one forked process per shard
  (``--jobs J`` at once), with an optional serial byte-identity check
  (``--verify-serial``);
* ``list``    — enumerate available policies, workloads and figures.

No command picks a simulation engine: every simulation commits
certifiable slots in closed form wherever the array kernel's static
gates hold (no best-effort workload, no reconfig timeline, a policy
with a closed form) and runs every other slot on the event heap, with
byte-identical results (:mod:`repro.sim.arraykernel`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .experiments import (
    dag_structure,
    fig03_traffic,
    fig04_motivation,
    fig06_ldpc,
    fig07_leaves,
    fig08_reclaim,
    fig09_cache,
    fig10_sched_latency,
    fig11_tail_latency,
    fig12_cores,
    fig13_pwcet,
    fig14_prediction,
    fig15_overhead,
    longrun,
    sensitivity,
    tables,
)
from .scenario import NAMED_POOLS, POLICY_NAMES
from .workloads.catalog import SCENARIOS

__all__ = ["main", "build_parser"]

POLICIES = POLICY_NAMES

CONFIGS = NAMED_POOLS

FIGURES = {
    "fig1": dag_structure.main,
    "fig3": fig03_traffic.main,
    "fig4": fig04_motivation.main,
    "fig6": fig06_ldpc.main,
    "fig7": fig07_leaves.main,
    "fig8": fig08_reclaim.main,
    "fig9": fig09_cache.main,
    "fig10": fig10_sched_latency.main,
    "fig11": fig11_tail_latency.main,
    "fig12": fig12_cores.main,
    "fig13": fig13_pwcet.main,
    "fig14": fig14_prediction.main,
    "fig15": fig15_overhead.main,
    "tables": tables.main,
    "longrun": longrun.main,
    "sensitivity": sensitivity.main,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Concordia (SIGCOMM 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run one simulation")
    run_cmd.add_argument("--config", choices=sorted(CONFIGS),
                         default="20mhz")
    run_cmd.add_argument("--policy", choices=POLICIES, default="concordia")
    run_cmd.add_argument("--workload", choices=SCENARIOS, default="none")
    run_cmd.add_argument("--load", type=float, default=0.5,
                         help="cell load fraction in [0, 1]")
    run_cmd.add_argument("--slots", type=int, default=4000)
    run_cmd.add_argument("--seed", type=int, default=7)
    run_cmd.add_argument("--cores", type=int, default=None,
                         help="override the pool's core count")
    run_cmd.add_argument("--mac", action="store_true",
                         help="use the MAC-layer allocation pipeline")
    run_cmd.add_argument("--harq", action="store_true",
                         help="model HARQ retransmissions on the uplink")
    run_cmd.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")

    sweep_cmd = sub.add_parser(
        "sweep",
        help="run a simulation grid through the parallel batch runner")
    sweep_cmd.add_argument("--config", choices=("20mhz", "100mhz", "both"),
                           default="both")
    sweep_cmd.add_argument("--policy", choices=POLICIES,
                           default="concordia")
    sweep_cmd.add_argument("--workload", choices=SCENARIOS, default="mix")
    sweep_cmd.add_argument("--loads", default="0.05,0.25,0.5,0.75,1.0",
                           help="comma-separated cell load fractions")
    sweep_cmd.add_argument("--slots", type=int, default=None,
                           help="slots per run (default: the "
                                "figure-8 budgets, REPRO_SCALE-scaled)")
    sweep_cmd.add_argument("--seeds", default="7",
                           help="comma-separated simulation seeds")
    sweep_cmd.add_argument("--cores", type=int, default=None,
                           help="override the pool's core count")
    sweep_cmd.add_argument("--jobs", type=int, default=None,
                           help="worker processes (default: REPRO_JOBS "
                                "or 1 = serial)")
    sweep_cmd.add_argument("--no-cache", action="store_true",
                           help="bypass the persistent result cache")
    sweep_cmd.add_argument("--cache-dir", default=None,
                           help="result cache directory "
                                "(default: REPRO_CACHE_DIR or "
                                "results/cache)")
    sweep_cmd.add_argument("--timeout", type=float, default=None,
                           help="per-job timeout in seconds "
                                "(parallel mode only)")
    sweep_cmd.add_argument("--retries", type=int, default=1,
                           help="retry budget per crashed job")
    sweep_cmd.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")

    train_cmd = sub.add_parser("train", help="run the offline phase")
    train_cmd.add_argument("--config", choices=sorted(CONFIGS),
                           default="20mhz")
    train_cmd.add_argument("--slots", type=int, default=800)
    train_cmd.add_argument("--seed", type=int, default=42)

    figure_cmd = sub.add_parser("figure",
                                help="regenerate a paper table/figure")
    figure_cmd.add_argument("name", choices=sorted(FIGURES))

    def add_sim_options(cmd) -> None:
        cmd.add_argument("--config", choices=sorted(CONFIGS),
                         default="20mhz")
        cmd.add_argument("--policy", choices=POLICIES,
                         default="concordia-noml")
        cmd.add_argument("--workload", choices=SCENARIOS, default="none")
        cmd.add_argument("--load", type=float, default=0.5,
                         help="cell load fraction in [0, 1]")
        cmd.add_argument("--slots", type=int, default=400)
        cmd.add_argument("--seed", type=int, default=7)
        cmd.add_argument("--cores", type=int, default=None,
                         help="override the pool's core count")

    trace_cmd = sub.add_parser(
        "trace",
        help="record one simulation and export a Chrome trace")
    add_sim_options(trace_cmd)
    trace_cmd.add_argument("--out", default="results/trace.json",
                           help="Chrome trace_event output path")
    trace_cmd.add_argument("--metrics-out", default=None,
                           help="also dump the telemetry registry "
                                "(.json or .csv, by extension)")

    pm_cmd = sub.add_parser(
        "postmortem",
        help="audit the worst slot of one recorded simulation")
    add_sim_options(pm_cmd)
    pm_cmd.add_argument("--dag", type=int, default=None,
                        help="audit this DAG id instead of the worst")
    pm_cmd.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")

    fleet_cmd = sub.add_parser(
        "fleet",
        help="run a sharded metro fleet through the planner")
    fleet_cmd.add_argument("--cells", type=int, required=True,
                           help="total cells in the metro deployment")
    fleet_cmd.add_argument("--shards", type=int, default=1,
                           help="per-server cell-shards (1..cells)")
    fleet_cmd.add_argument("--jobs", type=int, default=1,
                           help="shards run at once, one forked "
                                "process each (1 = in-process serial)")
    fleet_cmd.add_argument("--slots", type=int, default=400)
    fleet_cmd.add_argument("--kind", choices=("20mhz", "100mhz"),
                           default="20mhz",
                           help="reference cell kind (Table 1/2)")
    fleet_cmd.add_argument("--policy", choices=POLICIES,
                           default="concordia-noml")
    fleet_cmd.add_argument("--workload", choices=SCENARIOS,
                           default="none")
    fleet_cmd.add_argument("--load", type=float, default=0.5,
                           help="cell load fraction in [0, 1]")
    fleet_cmd.add_argument("--seed", type=int, default=0)
    fleet_cmd.add_argument("--cores-per-cell", type=float, default=None,
                           help="override the kind's provisioning ratio")
    fleet_cmd.add_argument("--reconfig", metavar="SCRIPT",
                           help="JSON reconfig timeline (worker "
                                "add/remove, cell detach/attach, "
                                "mid-run migrate between shards)")
    fleet_cmd.add_argument("--verify-serial", action="store_true",
                           help="re-run unsharded+serial and require "
                                "byte-identical per-cell digests")
    fleet_cmd.add_argument("--json", action="store_true",
                           help="emit the full fleet report as JSON")

    sub.add_parser("list", help="list policies, workloads and figures")
    return parser


def _scenario_from_args(args, **overrides):
    """Build the Scenario described by one CLI invocation.

    The pool stays a symbolic named reference (``{"name": "20mhz"}``)
    so a serialized result records the deployment the way the user
    asked for it.
    """
    from .scenario import Scenario

    pool = {"name": args.config}
    if args.cores is not None:
        pool["num_cores"] = args.cores
    return Scenario(
        pool=pool,
        policy=args.policy,
        workload=args.workload,
        load_fraction=args.load,
        seed=args.seed,
        **overrides,
    )


def _cmd_run(args) -> int:
    from .scenario import build_simulation

    scenario = _scenario_from_args(
        args,
        allocation="mac" if args.mac else "iid",
        harq=args.harq,
    )
    simulation = build_simulation(scenario)
    result = simulation.run(args.slots)
    latency = result.latency
    payload = {
        "config": args.config,
        "policy": args.policy,
        "workload": args.workload,
        "load": args.load,
        "slots": args.slots,
        "latency_us": {
            "mean": latency.mean_us,
            "p99": latency.p99_us,
            "p99.99": latency.p9999_us,
            "p99.999": latency.p99999_us,
            "max": latency.max_us,
            "deadline": latency.deadline_us,
        },
        "miss_fraction": latency.miss_fraction,
        "reclaimed_fraction": result.reclaimed_fraction,
        "idle_upper_bound": result.idle_upper_bound,
        "scheduling_events": result.scheduling_events,
        "workload_rates_per_s": result.workload_rates_per_s,
        "harq": result.harq,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{args.policy} + {args.workload} on {args.config} "
              f"@ {args.load * 100:.0f}% load ({args.slots} slots)")
        print(f"  latency mean/p99.99/p99.999: {latency.mean_us:.0f} / "
              f"{latency.p9999_us:.0f} / {latency.p99999_us:.0f} us "
              f"(deadline {latency.deadline_us:.0f})")
        print(f"  deadline misses: {latency.miss_fraction:.2e}")
        print(f"  reclaimed CPU:   {result.reclaimed_fraction * 100:.1f}% "
              f"(upper bound {result.idle_upper_bound * 100:.1f}%)")
        for name, rate in result.workload_rates_per_s.items():
            print(f"  {name}: {rate:,.0f} ops/s")
    return 0


def _cmd_sweep(args) -> int:
    from .exec.batch import run_batch
    from .exec.cache import ResultCache, default_cache_dir
    from .experiments.common import make_spec, scaled_slots

    try:
        loads = [float(v) for v in args.loads.split(",") if v.strip()]
        seeds = [int(v) for v in args.seeds.split(",") if v.strip()]
    except ValueError:
        print("error: --loads/--seeds must be comma-separated numbers",
              file=sys.stderr)
        return 2
    config_names = (sorted(CONFIGS) if args.config == "both"
                    else [args.config])
    specs, meta = [], []
    for name in config_names:
        factory = CONFIGS[name]
        config = factory() if args.cores is None else \
            factory(num_cores=args.cores)
        slots = args.slots if args.slots is not None else \
            scaled_slots(2500 if name == "20mhz" else 5000)
        for seed in seeds:
            for load in loads:
                specs.append(make_spec(config, args.policy,
                                       workload=args.workload,
                                       load_fraction=load,
                                       num_slots=slots, seed=seed))
                meta.append({"config": name, "load": load, "seed": seed,
                             "slots": slots})

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir if args.cache_dir is not None
                            else default_cache_dir())

    def progress(event) -> None:
        if args.json:
            return
        status = event["status"]
        line = (f"[{event['done']}/{event['total']}] {status:<7s} "
                f"{event['label']}")
        if status not in ("cached",):
            line += f"  ({event['wall_s']:.1f}s)"
        if event["error"]:
            line += f"  {event['error']}"
        print(line, file=sys.stderr)

    report = run_batch(specs, jobs=args.jobs, cache=cache,
                       use_cache=not args.no_cache,
                       timeout_s=args.timeout, retries=args.retries,
                       progress=progress)

    rows = []
    for entry, outcome in zip(meta, report.outcomes):
        row = dict(entry)
        row["status"] = outcome.status
        row["wall_s"] = round(outcome.wall_s, 3)
        if outcome.succeeded:
            result = outcome.result
            row["p99999_us"] = result["latency"]["p99999_us"]
            row["miss_fraction"] = result["latency"]["miss_fraction"]
            row["reclaimed_fraction"] = result["reclaimed_fraction"]
        else:
            row["error"] = outcome.error
        rows.append(row)

    if args.json:
        print(json.dumps({
            "summary": {
                "jobs": report.jobs,
                "total": len(report.outcomes),
                "executed": report.executed,
                "cached": report.cached,
                "failed": report.failed,
                "retried": report.retried,
                "batch_wall_s": report.batch_wall_s,
                "total_job_wall_s": report.total_job_wall_s,
                "speedup": report.speedup,
                "fingerprint": report.fingerprint,
            },
            "results": rows,
        }, indent=2))
    else:
        print(report.summary())
        for row in rows:
            if row["status"] in ("ok", "cached"):
                print(f"  {row['config']} load={row['load']:.2f} "
                      f"seed={row['seed']}: "
                      f"p99.999={row['p99999_us']:.0f}us "
                      f"miss={row['miss_fraction']:.2e} "
                      f"reclaimed={row['reclaimed_fraction'] * 100:.1f}% "
                      f"[{row['status']}]")
            else:
                print(f"  {row['config']} load={row['load']:.2f} "
                      f"seed={row['seed']}: {row['status']} "
                      f"— {row.get('error')}")
    return 0 if report.failed == 0 else 1


def _cmd_train(args) -> int:
    from .core.training import train_predictor

    config = CONFIGS[args.config]()
    predictor = train_predictor(config, num_slots=args.slots,
                                seed=args.seed)
    print(f"trained {len(predictor.models)} task models "
          f"({args.slots} profiling slots)")
    for task_type, model in sorted(predictor.models.items(),
                                   key=lambda kv: kv[0].value):
        selected = predictor.selected_features[task_type]
        leaves = getattr(getattr(model, "tree", None), "num_leaves", "-")
        print(f"  {task_type.value:20s} features={len(selected)} "
              f"leaves={leaves}")
    return 0


def _cmd_figure(args) -> int:
    print(FIGURES[args.name]())
    return 0


def _recorded_simulation(args):
    """Run one simulation with the event bus enabled; returns
    (result, bus)."""
    from .obs.events import EventBus
    from .scenario import build_simulation

    bus = EventBus()
    simulation = build_simulation(_scenario_from_args(args), event_bus=bus)
    result = simulation.run(args.slots)
    return result, bus


def _cmd_trace(args) -> int:
    import os

    from .obs.export import (write_chrome_trace, write_metrics_csv,
                             write_metrics_json)

    result, bus = _recorded_simulation(args)
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    write_chrome_trace(args.out, bus.events)
    print(f"{len(bus.events)} events ({bus.dropped} dropped) -> "
          f"{args.out}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    if args.metrics_out:
        writer = write_metrics_csv if \
            args.metrics_out.endswith(".csv") else write_metrics_json
        writer(args.metrics_out, result.telemetry)
        print(f"telemetry -> {args.metrics_out}")
    latency = result.latency
    print(f"  p99.99={latency.p9999_us:.0f}us "
          f"miss={latency.miss_fraction:.2e} "
          f"reclaimed={result.reclaimed_fraction * 100:.1f}%")
    return 0


def _cmd_postmortem(args) -> int:
    from .obs.postmortem import analyze_miss

    result, bus = _recorded_simulation(args)
    report = analyze_miss(bus.events, dag_id=args.dag)
    if args.json:
        print(json.dumps({
            "dag_id": report.dag_id,
            "cell": report.cell,
            "latency_us": report.latency_us,
            "deadline_us": report.deadline_us - report.release_us,
            "missed": report.missed,
            "tardiness_us": report.tardiness_us,
            "tasks": report.tasks,
            "contributions_us": report.contributions,
            "dominant_cause": report.dominant_cause,
            "miss_fraction": result.latency.miss_fraction,
        }, indent=2))
    else:
        print(report.render())
        print(f"run: {result.latency.count} slots, "
              f"miss fraction {result.latency.miss_fraction:.2e}")
    return 0


def _cmd_fleet(args) -> int:
    from .fleet import FleetScenario, Planner
    from .scenario import load_reconfig_script

    reconfig = ()
    if args.reconfig:
        reconfig = load_reconfig_script(args.reconfig)

    fleet = FleetScenario(
        cells=args.cells,
        shards=args.shards,
        cell_kind=args.kind,
        cores_per_cell=args.cores_per_cell,
        policy=args.policy,
        workload=args.workload,
        load_fraction=args.load,
        seed=args.seed,
        num_slots=args.slots,
        reconfig=reconfig,
    )

    def progress(event) -> None:
        if args.json:
            return
        line = (f"[{event['done']}/{event['total']}] "
                f"{event['kind']:<8s} shard {event['shard']}")
        if "wall_s" in event:
            line += f"  ({event['wall_s']:.1f}s)"
        if event.get("error"):
            line += f"  {event['error']}"
        print(line, file=sys.stderr)

    report = Planner(fleet, jobs=args.jobs, progress=progress).run()

    verified = None
    if args.verify_serial:
        # The determinism contract: an unsharded serial run of the same
        # metro must sample every cell byte-identically.
        baseline_fleet = FleetScenario(
            cells=args.cells, shards=1, cell_kind=args.kind,
            cores_per_cell=args.cores_per_cell, policy=args.policy,
            workload=args.workload, load_fraction=args.load,
            seed=args.seed, num_slots=args.slots)
        baseline = Planner(baseline_fleet, jobs=1).run()
        mismatched = sorted(
            name for name, digest in report.cell_digests.items()
            if baseline.cell_digests.get(name) != digest)
        missing = sorted(set(baseline.cell_digests)
                         ^ set(report.cell_digests))
        verified = not mismatched and not missing
        if not verified:
            print(f"verify-serial FAILED: {len(mismatched)} cell "
                  f"digest(s) differ, {len(missing)} cell(s) missing: "
                  f"{(mismatched + missing)[:5]}", file=sys.stderr)

    if args.json:
        payload = report.to_dict()
        if verified is not None:
            payload["verified_against_serial"] = verified
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        if verified:
            print(f"verify-serial OK: {len(report.cell_digests)} "
                  f"cell digests byte-identical to the unsharded "
                  f"serial run")
    if verified is False:
        return 1
    return 0 if report.ok else 1


def _cmd_list(args) -> int:
    print("policies: ", ", ".join(POLICIES))
    print("workloads:", ", ".join(SCENARIOS))
    print("configs:  ", ", ".join(sorted(CONFIGS)))
    print("figures:  ", ", ".join(sorted(FIGURES)))
    return 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "train": _cmd_train,
        "figure": _cmd_figure,
        "trace": _cmd_trace,
        "postmortem": _cmd_postmortem,
        "fleet": _cmd_fleet,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # Clean CLI surface for validation errors (malformed
        # REPRO_JOBS/REPRO_SCALE, bad option combinations, ...).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
