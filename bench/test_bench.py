"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

Rounds run at reduced lengths through the workload builders, and whole
runs measure one second through ``run.run_workload``; those use
``fig03-idle``, whose set-up is only the imports.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import workloads
from repro.exec.digest import result_digest
from tracer import Tracer, round_metrics

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: Reduced round lengths of the single-simulation workloads.
SHORT = {"fig11-redis": 40, "fig03-idle": 2000, "multicell-mixed": 100}

#: Per-layer self times that, with ``sim.engine.residual_s``, make up
#: ``sim.runner.run_s``; ``fill_s`` and ``summary_s`` overlap them.
SELF_TIMES = (
    "core.predictor.predict_s", "core.predictor.observe_s",
    "core.scheduler.slot_start_s", "core.scheduler.tick_s",
    "core.scheduler.task_hooks_s", "ran.dag.build_many_s",
    "ran.traffic.next_slots_s", "sim.arraykernel.try_vector_s",
    "sim.arraykernel.replay_s", "sim.arraykernel.build_plan_s",
    "sim.pool.release_slot_s", "sim.cache.multipliers_s",
    "sim.osmodel.sample_s", "workloads.host_s", "sim.metrics.ingest_s",
    "sim.engine.residual_s",
)


@pytest.fixture(scope="module")
def states():
    """Workload set-ups, shared because fig11-redis trains a predictor."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = workloads.WORKLOADS[name].setup(7)
        return cache[name]
    return get


def _digests(round_):
    return [result_digest(payload) for payload, _, _ in round_.ops]


@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_round_matches_untraced(name, states):
    workload = workloads.WORKLOADS[name]
    plain = workload.run_round(states(name), slots=SHORT[name])
    traced = workload.run_round(states(name), Tracer(), slots=SHORT[name])
    assert _digests(traced) == _digests(plain)
    assert traced.paths == plain.paths
    if workload.array:
        assert plain.paths["array_slots"] > 0


def test_traced_sweep_matches_untraced(states):
    workload = workloads.WORKLOADS["fig08-sweep"]
    plain = workload.run_round(states("fig08-sweep"), slots=20)
    traced = workload.run_round(states("fig08-sweep"), Tracer(), slots=20)
    assert _digests(traced) == _digests(plain)
    layers = round_metrics(traced.snapshot, traced.batch)
    assert layers["core.predictor.predict_calls"] > 0
    assert layers["exec.batch.failed"] == 0
    assert not (workloads.OUT_DIR / f"jobs-{os.getpid()}").exists()


@pytest.mark.parametrize("name", sorted(SHORT))
def test_self_times_account_for_run_wall(name, states):
    round_ = workloads.WORKLOADS[name].run_round(states(name), Tracer(),
                                                 slots=SHORT[name])
    layers = round_metrics(round_.snapshot, round_.batch)
    total = sum(layers[key] for key in SELF_TIMES)
    assert total == pytest.approx(layers["sim.runner.run_s"], rel=0.01)
    assert round_.wall >= layers["sim.runner.run_s"]


def test_round_counts_every_released_dag(states):
    round_ = workloads.WORKLOADS["fig11-redis"].run_round(
        states("fig11-redis"), slots=SHORT["fig11-redis"])
    payload, error, released = round_.ops[0]
    assert error is None
    assert released == 7 * 2 * SHORT["fig11-redis"]
    assert payload["latency"]["count"] == released


def test_benchmark_json_names():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS)
    metrics = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(set(names + metrics)) == len(names + metrics)
    assert all(NAME.match(name) for name in names + metrics)


@pytest.mark.parametrize("trace", [False, True])
def test_run_prints_every_listed_metric(trace, capsys):
    record = run.run_workload("fig03-idle", 7, 1.0, trace)
    listed = BENCH["per_layer" if trace else "end_to_end"]
    run.print_record(record, listed)
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result == run.result_line(record, listed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(name, value["unit"]) for name, value
            in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in listed]
    for metric in listed:
        assert re.search(rf"^  {re.escape(metric['name'])} ", out,
                         re.MULTILINE)


def test_cli_refuses_another_run_length(capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "fig03-idle", "--seconds", "1"])
    assert exc.value.code == 2
    assert "run_seconds" in capsys.readouterr().err


def test_checker_survives_failed_first_round():
    """Without a golden entry, a failed first round leaves no reference
    digest; a later success is then a failed operation, not a crash."""
    checker = workloads.Checker("fig03-idle", seed=12345)
    assert checker.source == "first round"
    failed = workloads.Round(wall=1.0, cell_slots=1,
                             ops=[(None, "job failed", 1)])
    assert [r["ok"] for r in checker.check(failed)] == [False]
    round_ = workloads.WORKLOADS["fig03-idle"].run_round(
        workloads.WORKLOADS["fig03-idle"].setup(12345), slots=100)
    (record,) = checker.check(round_)
    assert not record["ok"]
    assert record["why"] == "no reference digest (first round failed)"


def test_two_process_reading_reaps_its_helper(monkeypatch):
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        forked.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    assert 0 < hostspeed.reading(2) < 1
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forked[0], os.WNOHANG)
    ref = hostspeed.REFERENCE_S
    assert hostspeed.to_reference(3.0, ref, ref) == pytest.approx(3.0)
    assert hostspeed.to_reference(3.0, 2 * ref) == pytest.approx(1.5)


def test_child_env_drops_repro_variables(monkeypatch):
    for key in ("REPRO_CACHE", "REPRO_JOBS", "REPRO_SCALE"):
        monkeypatch.setenv(key, "1")
    env = run.child_env()
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")


def test_fails_without_sources():
    bare = workloads.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fig03-idle"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
