"""Tests for repro.fleet: sharding, demand rollup, planner, CLI.

The metro-scale invariants under test:

* shard derivation is a balanced, contiguous, globally-named partition
  into one scenario per server;
* per-cell sampling digests are invariant to shard count and to the
  serial/parallel execution mode (the PR-3 interleaving-independence
  invariant lifted to fleet scale);
* the planner aggregates per-shard results identically no matter who
  executed them — a forked child, the parent, the lockstep path or the
  result cache — and retries a shard whose forked child died or whose
  body raised exactly as ``repro sweep`` retries a job.
"""

import dataclasses
import json
import os
import signal

import pytest

from repro.cli import main
from repro.core.federated import CoreDemand
from repro.exec.cache import ResultCache, activated_cache
from repro.exec.spec import run_spec
from repro.experiments.common import make_spec
from repro.fleet import (
    FleetScenario,
    Planner,
    build_fleet_report,
    combined_digest,
    histogram_percentile,
    latency_histogram,
    merge_histograms,
)


class TestFleetScenario:
    def test_balanced_contiguous_shards(self):
        fleet = FleetScenario(cells=10, shards=3, num_slots=5)
        assert fleet.shard_sizes() == [4, 3, 3]
        shards = fleet.derive_shards()
        assert [s.cell_id_base for s in shards] == [0, 4, 7]
        names = [c.name for s in shards for c in s.pool_config().cells]
        assert names == [fleet.cell_name(g) for g in range(10)]
        assert len(set(names)) == 10

    def test_cores_follow_reference_ratio(self):
        # 20 MHz reference server: 8 cores / 7 cells.
        fleet = FleetScenario(cells=7, shards=1, num_slots=5)
        (shard,) = fleet.derive_shards()
        assert shard.pool_config().num_cores == 8
        assert fleet.provisioned_cores == 8

    def test_shard_scenarios_carry_global_base(self):
        fleet = FleetScenario(cells=6, shards=2, num_slots=5)
        first, second = fleet.derive_shards()
        assert first.cell_id_base == 0
        assert second.cell_id_base == 3

    def test_fleet_roundtrip(self):
        fleet = FleetScenario(cells=12, shards=3, cell_kind="100mhz",
                              workload="redis", load_fraction=0.7,
                              seed=5, num_slots=20)
        clone = FleetScenario.from_dict(
            json.loads(json.dumps(fleet.to_dict())))
        assert clone == fleet

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetScenario(cells=0)
        with pytest.raises(ValueError):
            FleetScenario(cells=3, shards=4)
        with pytest.raises(ValueError):
            FleetScenario(cells=3, cell_kind="60ghz")
        with pytest.raises(ValueError):
            FleetScenario(cells=3, policy="no-such-policy")


class TestHistograms:
    def test_merge_matches_single_histogram(self):
        values = [100.0, 500.0, 900.0, 1500.0, 9000.0]
        whole = latency_histogram(values, 2000.0)
        merged = merge_histograms([
            latency_histogram(values[:2], 2000.0),
            latency_histogram(values[2:], 2000.0),
        ])
        assert merged == whole
        assert merged["overflow"] == 1  # 9000 > 4 x 2000

    def test_percentiles(self):
        values = [float(v) for v in range(1, 1001)]
        hist = latency_histogram(values, 2000.0)
        p50 = histogram_percentile(hist, 0.50)
        assert abs(p50 - 500.0) < hist["bin_width_us"]
        # Overflowing tail resolves to the exact maximum.
        hist = latency_histogram(values + [99999.0], 2000.0)
        assert histogram_percentile(hist, 1.0) == 99999.0
        assert histogram_percentile(hist, 0.0) >= 0.0

    def test_percentile_interpolates_through_overflow(self):
        # 990 in-range values plus 10 overflowed ones: p99.9 lands
        # inside the overflow region and must interpolate between the
        # range top and the recorded maximum — not collapse onto the
        # single worst value.
        values = [float(v) for v in range(1, 991)]  # < 8000 = range top
        values += [10000.0 + 1000.0 * i for i in range(10)]  # overflow
        hist = latency_histogram(values, 2000.0)
        assert hist["overflow"] == 10
        range_top = hist["bin_width_us"] * len(hist["counts"])
        p999 = histogram_percentile(hist, 0.999)
        assert p999 != hist["max_us"]
        assert range_top < p999 < hist["max_us"]
        # Monotone in the quantile, and q=1.0 still hits the max.
        assert p999 <= histogram_percentile(hist, 0.9999) \
            <= histogram_percentile(hist, 1.0) == hist["max_us"]

    def test_histogram_rejects_bad_latencies(self):
        for bad in (-1.0, -1e-9, float("nan"), float("inf"),
                    float("-inf")):
            with pytest.raises(ValueError):
                latency_histogram([100.0, bad], 2000.0)

    def test_merge_rejects_mixed_geometry(self):
        with pytest.raises(ValueError):
            merge_histograms([latency_histogram([], 2000.0),
                              latency_histogram([], 1500.0)])


def demand_spec(scenario, num_slots):
    return dataclasses.replace(make_spec(scenario, num_slots),
                               knobs={"demand": True})


class TestShardExecution:
    def test_demand_spec_result(self):
        fleet = FleetScenario(cells=2, shards=1, num_slots=20, seed=4)
        (shard,) = fleet.derive_shards()
        names = sorted(c.name for c in shard.pool_config().cells)
        payload = run_spec(demand_spec(shard, 20)).to_dict()
        assert sorted(payload["demand"]["cell_digests"]) == names
        assert payload["telemetry"]["counters"]["slots/completed"] > 0
        demand = payload["demand"]["demand"]
        assert demand["cores"] >= 1
        assert sorted(demand["cells"]) == names
        # Round-trips through JSON (the result cache's format).
        assert json.loads(json.dumps(payload)) == payload
        # Without the knob the result has no demand key at all.
        plain = run_spec(make_spec(shard, 20)).to_dict()
        assert "demand" not in plain

    def test_demand_uses_federated_rule(self):
        fleet = FleetScenario(cells=2, shards=1, num_slots=20, seed=4)
        (shard,) = fleet.derive_shards()
        from repro.fleet.demand import ShardDemandRecorder
        from repro.scenario import build_simulation

        config = shard.pool_config()
        recorder = ShardDemandRecorder(config.cells, config.deadline_us)
        simulation = build_simulation(shard)
        simulation.demand_observer = recorder
        simulation.run(fleet.num_slots)
        demand = recorder.shard_demand()
        assert isinstance(demand, CoreDemand)
        per_cell = [recorder.cell_demand(c.name) for c in config.cells]
        assert demand.cores == sum(d.cores for d in per_cell)

    def test_recorder_forces_no_dag_builds(self):
        # The recorder reads each slot's rows at window-fill time, so
        # a slot the array kernel commits is never built, observed or
        # not: 7 x 20 MHz at load 0.05 commits some of its 1,000 slots.
        from repro.fleet.demand import ShardDemandRecorder
        from repro.scenario import Scenario, build_simulation

        def dags_built(observe: bool) -> tuple:
            scenario = Scenario(pool={"name": "20mhz"},
                                policy="concordia-noml",
                                load_fraction=0.05, seed=7,
                                cell_id_base=0)
            simulation = build_simulation(scenario)
            build_many = simulation.builder.build_many
            built = []

            def counting(jobs, costed=None):
                dags = build_many(jobs, costed)
                built.append(len(dags))
                return dags

            simulation.builder.build_many = counting
            if observe:
                config = scenario.pool_config()
                simulation.demand_observer = ShardDemandRecorder(
                    config.cells, config.deadline_us)
            simulation.run(1000)
            return sum(built), simulation.kernel_stats["array_slots"]

        plain, committed = dags_built(observe=False)
        assert committed > 0
        assert dags_built(observe=True) == (plain, committed)


class TestShardingInvariance:
    def _digests(self, shards, jobs=1):
        fleet = FleetScenario(cells=6, shards=shards, num_slots=25,
                              seed=13)
        report = Planner(fleet, jobs=jobs).run()
        assert report.ok, report.failures
        return report.cell_digests

    def test_digests_invariant_to_shard_count(self):
        one = self._digests(shards=1)
        three = self._digests(shards=3)
        six = self._digests(shards=6)
        assert one == three == six
        assert len(one) == 6

    def test_digests_invariant_to_jobs(self):
        serial = self._digests(shards=3, jobs=1)
        parallel = self._digests(shards=3, jobs=3)
        assert serial == parallel

    def test_different_seeds_differ(self):
        a = Planner(FleetScenario(cells=2, num_slots=10, seed=1)).run()
        b = Planner(FleetScenario(cells=2, num_slots=10, seed=2)).run()
        assert a.cell_digests != b.cell_digests

    def test_combined_digest_order_independent(self):
        digests = {"b": "2", "a": "1"}
        assert combined_digest(digests) == \
            combined_digest(dict(reversed(list(digests.items()))))


class TestPlanner:
    def test_serial_and_parallel_reports_match(self):
        fleet = FleetScenario(cells=4, shards=2, num_slots=20, seed=6)
        serial = Planner(fleet, jobs=1).run().to_dict()
        parallel = Planner(fleet, jobs=2).run().to_dict()

        def strip(payload):
            payload.pop("planner")
            for row in payload["servers"]:
                row.pop("wall_s")
            return payload

        assert strip(serial) == strip(parallel)

    def test_report_contents(self):
        fleet = FleetScenario(cells=4, shards=2, num_slots=20, seed=6)
        report = Planner(fleet, jobs=1).run()
        assert report.ok
        assert report.slot_count == 4 * 20 * 2  # cells x slots x dirs
        assert report.provisioned_cores == fleet.provisioned_cores
        assert 0.0 <= report.reclaimed_fraction <= 1.0
        assert report.latency_us["p50"] <= report.latency_us["p99"] \
            <= report.latency_us["p999"]
        assert report.demand_cores >= len(report.cell_digests)
        assert report.fleet_digest == combined_digest(report.cell_digests)
        rendered = report.render()
        assert "tail latency" in rendered and "reclaimed CPU" in rendered
        json.dumps(report.to_dict())

    def test_progress_events(self):
        events = []
        fleet = FleetScenario(cells=2, shards=2, num_slots=5)
        Planner(fleet, jobs=1, progress=events.append).run()
        assert [e["status"] for e in events] == ["ok", "ok"]
        assert [e["index"] for e in events] == [0, 1]

    def test_warm_cache_runs_no_shard(self, tmp_path):
        fleet = FleetScenario(cells=4, shards=2, num_slots=10, seed=6)

        def strip(report):
            payload = report.to_dict()
            planner = payload.pop("planner")
            for row in payload["servers"]:
                row.pop("wall_s")
            return payload, planner

        with activated_cache(ResultCache(tmp_path)):
            cold, cold_planner = strip(Planner(fleet, jobs=1).run())
            warm, warm_planner = strip(Planner(fleet, jobs=1).run())
        assert cold_planner["dispatches"] == 2
        assert warm_planner["dispatches"] == 0
        assert warm == cold

    def test_lockstep_and_batch_paths_agree(self):
        fleet = FleetScenario(cells=4, shards=2, num_slots=15, seed=6)
        planner = Planner(fleet, jobs=1)
        specs = [demand_spec(shard, fleet.num_slots)
                 for shard in fleet.derive_shards()]
        lockstep, *_ = planner._run_lockstep(specs, ())
        batch, *_ = planner._run_shards(specs)

        def rows(results):
            report = build_fleet_report(fleet, results,
                                        [0.0] * len(results))
            return report.servers, report.cell_digests

        assert rows(lockstep) == rows(batch)

    def test_dead_worker_shard_is_requeued(self, monkeypatch):
        """Killing a shard's forked child must not forfeit the shard.

        The shard is retried (retry budget 1) in a fresh child, so the
        report is clean and the fleet digest matches the serial run
        byte for byte.
        """
        _kill_first_attempt(monkeypatch, cell_id_base=0)
        events = []
        fleet = FleetScenario(cells=4, shards=2, num_slots=10, seed=6)
        report = Planner(fleet, jobs=2, progress=events.append).run()
        assert report.ok, report.failures
        assert [e["kind"] for e in events].count("retry") == 1
        assert len(report.servers) == 2
        serial = Planner(fleet, jobs=1).run()
        assert report.fleet_digest == serial.fleet_digest
        assert report.cell_digests == serial.cell_digests

    def test_lost_attempt_counts_in_telemetry(self, monkeypatch):
        _kill_first_attempt(monkeypatch, cell_id_base=1)
        fleet = FleetScenario(cells=3, shards=3, num_slots=5, seed=2)
        report = Planner(fleet, jobs=2).run()
        assert report.ok, report.failures
        assert report.dispatches == fleet.shards + 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shard_exception_is_retried_then_failed(self, monkeypatch,
                                                    jobs):
        """A raising shard body gets the sweep's retry, serial or forked."""
        import repro.exec.batch as batch_module

        entry = batch_module.run_job_in_child

        def corrupt_shard_zero(conn, payload, attempt):
            if payload["scenario"]["cell_id_base"] == 0:
                payload = dict(payload, scenario={"schema": -1})
            entry(conn, payload, attempt)

        monkeypatch.setattr(batch_module, "run_job_in_child",
                            corrupt_shard_zero)
        events = []
        fleet = FleetScenario(cells=2, shards=2, num_slots=5, seed=3)
        report = Planner(fleet, jobs=jobs, progress=events.append).run()
        kinds = [e["kind"] for e in events]
        assert kinds.count("retry") == 1
        assert kinds.count("failed") == 1
        assert [f["shard_index"] for f in report.failures] == [0]
        assert "schema" in report.failures[0]["error"]
        assert [row["shard_index"] for row in report.servers] == [1]
        assert report.dispatches == 3


def _kill_first_attempt(monkeypatch, cell_id_base: int) -> None:
    """SIGKILL the forked child of the first attempt of the shard whose
    first global cell is ``cell_id_base``.

    At ``jobs=1`` the entry point runs in the test process itself,
    which is never killed.
    """
    import repro.exec.batch as batch_module

    entry = batch_module.run_job_in_child
    parent = os.getpid()

    def die_once(conn, payload, attempt):
        if (attempt == 0
                and payload["scenario"]["cell_id_base"] == cell_id_base
                and os.getpid() != parent):
            os.kill(os.getpid(), signal.SIGKILL)
        entry(conn, payload, attempt)

    monkeypatch.setattr(batch_module, "run_job_in_child", die_once)


class TestFleetCli:
    def test_fleet_text_output(self, capsys):
        code = main(["fleet", "--cells", "3", "--shards", "3",
                     "--slots", "5", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet digest:" in out
        assert "3 x 20mhz cells" in out

    def test_fleet_json_verify_serial(self, capsys):
        code = main(["fleet", "--cells", "4", "--shards", "2",
                     "--jobs", "2", "--slots", "5", "--seed", "1",
                     "--json", "--verify-serial"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified_against_serial"] is True
        assert len(payload["cell_digests"]) == 4
        assert payload["planner"]["workers"] == 2

    def test_fleet_rejects_nonpositive_jobs(self, capsys):
        code = main(["fleet", "--cells", "2", "--jobs", "-1",
                     "--slots", "5"])
        assert code == 2
        assert "error: jobs must be a positive integer" in \
            capsys.readouterr().err
