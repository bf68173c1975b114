"""Tests for :mod:`repro.exec` — specs, cache, batch runner, routing.

Simulation budgets are tiny (one-to-few hundred slots on small pools):
the goal is exercising the orchestration machinery, not the paper's
numbers.
"""

import json
import os
import time

import pytest

from repro.core.models import QuantileTreeWCET
from repro.core.training import train_predictor
from repro.exec import (
    ResultCache,
    SimSpec,
    SpecError,
    activated_cache,
    execute_spec,
    model_fingerprint,
    pool_config_to_dict,
    run_batch,
    spec_key,
)
from repro.exec.batch import default_jobs
from repro.exec.digest import result_digest
from repro.exec.spec import run_spec
from repro.experiments.common import (
    get_predictor,
    make_spec,
    repro_scale,
    run_spec_batch,
)
from repro.ran.config import PoolConfig, cell_20mhz_fdd, pool_20mhz_7cells
from repro.scenario import Scenario, build_policy, build_simulation
from repro.sim.runner import RESULT_SCHEMA


def small_config(num_cores: int = 4) -> PoolConfig:
    return pool_20mhz_7cells(num_cores=num_cores)


def tiny_config() -> PoolConfig:
    return PoolConfig(cells=(cell_20mhz_fdd("t0"),), num_cores=2,
                      deadline_us=2000.0)


def flexran_spec(seed: int = 3, num_slots: int = 120, **fields) -> SimSpec:
    return make_spec(Scenario(pool=small_config(), policy="flexran",
                              seed=seed, **fields), num_slots)


#: Between them these set every ``Scenario`` field away from its
#: default; each must give one digest on every run path.
FORMAT_SCENARIOS = {
    "mac+harq": {"allocation": "mac", "harq": True},
    "profiling": {"traffic": "profiling"},
    "reconfig": {"reconfig": (
        {"action": "add_worker", "at_slot": 10, "count": 2},
        {"action": "remove_worker", "at_slot": 30})},
    "cell-id-base": {"cell_id_base": 5},
}


def inject_faults(monkeypatch, fault) -> None:
    """Call ``fault(spec, attempt)`` before each job attempt runs.

    Patches ``repro.exec.batch.execute_spec`` and ``run_job_in_child``,
    which the runner looks up at call time; forked children inherit
    the patch.  A ``fault`` that raises fails the attempt through the
    job's own error path; one that sleeps makes a slow job.
    """
    import repro.exec.batch as batch_module

    entry = batch_module.run_job_in_child
    execute = batch_module.execute_spec
    attempts = []

    def entry_with_attempt(conn, payload, attempt):
        attempts.append(attempt)
        entry(conn, payload, attempt)

    def faulty_execute(spec, **kwargs):
        fault(spec, attempts[-1])
        return execute(spec, **kwargs)

    monkeypatch.setattr(batch_module, "run_job_in_child", entry_with_attempt)
    monkeypatch.setattr(batch_module, "execute_spec", faulty_execute)


def format_scenario(**fields) -> Scenario:
    return Scenario(pool=tiny_config(), policy="shenango",
                    policy_params={"queue_delay_threshold_us": 50.0},
                    workload="mix", load_fraction=0.6, seed=21,
                    mix_interval_us=(1e4, 5e4), **fields)


class TestSpec:
    @pytest.mark.parametrize("name", sorted(FORMAT_SCENARIOS))
    def test_spec_round_trips_its_scenario(self, name):
        scenario = format_scenario(**FORMAT_SCENARIOS[name])
        payload = json.loads(json.dumps(make_spec(scenario, 60).to_dict()))
        clone = SimSpec.from_dict(payload)
        assert clone.scenario.to_dict() == scenario.to_dict()

    @pytest.mark.parametrize("name", sorted(FORMAT_SCENARIOS))
    def test_every_run_path_gives_one_digest(self, name):
        scenario = format_scenario(**FORMAT_SCENARIOS[name])
        digests = {
            result_digest(execute_spec(make_spec(scenario, 60))),
            result_digest(run_spec_batch([make_spec(scenario, 60)])[0]),
            result_digest(build_simulation(scenario).run(60)),
        }
        assert len(digests) == 1

    def test_round_trip(self):
        spec = flexran_spec(workload="redis", load_fraction=0.3)
        clone = SimSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.scenario.pool_config() == small_config()
        assert clone.config == pool_config_to_dict(small_config())

    def test_key_depends_on_payload_and_fingerprint(self):
        a, b = flexran_spec(seed=1), flexran_spec(seed=2)
        assert spec_key(a, "fp") != spec_key(b, "fp")
        assert spec_key(a, "fp") == spec_key(flexran_spec(seed=1), "fp")
        assert spec_key(a, "fp") != spec_key(a, "other-fp")

    def test_live_objects_are_rejected(self):
        with pytest.raises(SpecError):
            make_spec(Scenario(pool=small_config(), policy="concordia",
                               policy_params={"predictor": object()}),
                      100)

    def test_label_mentions_the_grid_point(self):
        label = flexran_spec(load_fraction=0.25).label()
        assert "flexran" in label and "@0.25" in label

    def test_fingerprint_is_stable_hex(self):
        assert model_fingerprint() == model_fingerprint()
        int(model_fingerprint(), 16)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        result = {"schema": RESULT_SCHEMA, "x": 1}
        cache.put("ab" * 32, {"result": result})
        assert cache.get("ab" * 32)["result"] == result
        assert cache.hits == 1 and cache.misses == 1

    def test_stale_schema_artifact_is_a_miss(self, tmp_path):
        # The spec hash ignores the result schema, so an artifact from
        # before a schema bump is still addressed: it must count as a
        # miss, like the re-execution the batch report records.
        spec = flexran_spec(seed=15, num_slots=20)
        key = spec_key(spec, model_fingerprint())
        cache = ResultCache(tmp_path)
        cache.put(key, {"result": {"schema": RESULT_SCHEMA - 1}})
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        report = run_batch([spec], jobs=1, cache=cache)
        assert (report.executed, report.cached) == (1, 0)
        assert (cache.hits, cache.misses) == (0, 2)

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        path = cache.put(key, {"result": {}})
        path.write_text("{not json")
        assert cache.get(key) is None


class TestBatchRunner:
    def test_parallel_matches_serial_byte_for_byte(self):
        specs = [flexran_spec(seed=s, num_slots=100) for s in (1, 2, 3)]
        serial = run_batch(specs, jobs=1, use_cache=False)
        parallel = run_batch(specs, jobs=3, use_cache=False)
        dump = lambda rep: [json.dumps(o.result, sort_keys=True)
                            for o in rep.outcomes]
        assert dump(serial) == dump(parallel)
        assert parallel.executed == 3 and parallel.failed == 0

    def test_warm_cache_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [flexran_spec(seed=s, num_slots=100) for s in (4, 5)]
        cold = run_batch(specs, jobs=2, cache=cache)
        warm = run_batch(specs, jobs=2, cache=cache)
        assert (cold.executed, cold.cached) == (2, 0)
        assert (warm.executed, warm.cached) == (0, 2)
        assert [o.result for o in warm.outcomes] == \
            [o.result for o in cold.outcomes]

    def test_fingerprint_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        specs = [flexran_spec(seed=6, num_slots=100)]
        run_batch(specs, jobs=1, cache=cache)
        monkeypatch.setattr("repro.exec.batch.model_fingerprint",
                            lambda: "recalibrated")
        again = run_batch(specs, jobs=1, cache=cache)
        assert again.cached == 0 and again.executed == 1

    def test_crash_is_isolated_and_retried(self, monkeypatch):
        def fault(spec, attempt):
            # Seed 7 crashes on every attempt, seed 8 on the first.
            if spec.scenario.seed == 7 or (spec.scenario.seed == 8
                                           and attempt == 0):
                raise RuntimeError(f"injected crash on attempt {attempt}")

        inject_faults(monkeypatch, fault)
        report = run_batch([flexran_spec(seed=s, num_slots=100)
                            for s in (7, 8, 9)], jobs=2,
                           use_cache=False, retries=1)
        by_status = {o.spec.scenario.seed: o for o in report.outcomes}
        assert by_status[7].status == "failed"
        assert by_status[7].attempts == 2
        assert "injected crash" in by_status[7].error
        assert by_status[8].status == "ok"  # succeeded on retry
        assert by_status[9].status == "ok"
        assert report.retried >= 2
        with pytest.raises(RuntimeError, match="1 of 3 jobs failed"):
            report.results(strict=True)
        results = report.results(strict=False)
        assert results[0] is None and results[2] is not None

    @pytest.mark.parametrize("deaths", ["first", "every"])
    def test_dead_child_is_retried(self, monkeypatch, deaths):
        """A forked job that dies without reporting gets one retry.

        Patching ``repro.exec.batch.run_job_in_child`` (the benchmark's
        per-job hook) also pins that the runner looks the entry point
        up at call time.
        """
        import repro.exec.batch as batch_module

        entry = batch_module.run_job_in_child

        def die(conn, payload, attempt):
            if deaths == "every" or attempt == 0:
                os._exit(3)
            entry(conn, payload, attempt)

        monkeypatch.setattr(batch_module, "run_job_in_child", die)
        events = []
        report = run_batch([flexran_spec(seed=12, num_slots=100)],
                           jobs=2, use_cache=False, retries=1,
                           progress=events.append)
        (outcome,) = report.outcomes
        assert report.retried == 1 and outcome.attempts == 2
        retries = [e for e in events if e["kind"] == "retry"]
        assert len(retries) == 1
        assert "without reporting" in retries[0]["error"]
        if deaths == "first":
            assert outcome.status == "ok"
            assert [e["kind"] for e in events] == ["retry", "ok"]
        else:
            assert outcome.status == "failed"
            assert "without reporting" in outcome.error

    def test_timeout_kills_the_job(self, monkeypatch):
        inject_faults(monkeypatch, lambda spec, attempt: time.sleep(30.0))
        report = run_batch([flexran_spec(seed=10, num_slots=100)], jobs=2,
                           use_cache=False, timeout_s=0.5)
        outcome = report.outcomes[0]
        assert outcome.status == "timeout"
        assert "killed" in outcome.error
        assert report.batch_wall_s < 10.0

    def test_straggler_is_flagged_once(self, monkeypatch, caplog):
        monkeypatch.setattr("repro.exec.batch.STRAGGLER_FACTOR", 1.0)
        monkeypatch.setattr("repro.exec.batch.STRAGGLER_MIN_S", 0.5)
        inject_faults(monkeypatch, lambda spec, attempt: time.sleep(
            3.0 if spec.scenario.seed == 14 else 0.0))
        events = []
        report = run_batch([flexran_spec(seed=s, num_slots=100)
                            for s in (13, 14)], jobs=2, use_cache=False,
                           progress=events.append)
        flagged = [e for e in events if e["kind"] == "straggler"]
        assert [e["index"] for e in flagged] == [1]
        assert flagged[0]["wall_s"] > 0.5
        assert "straggler" in caplog.text
        assert [o.status for o in report.outcomes] == ["ok", "ok"]

    def test_telemetry_and_progress_stream(self, tmp_path):
        cache = ResultCache(tmp_path)
        events = []
        spec = flexran_spec(seed=11, num_slots=100)
        run_batch([spec], jobs=1, cache=cache, progress=events.append)
        run_batch([spec], jobs=1, cache=cache, progress=events.append)
        kinds = [e["status"] for e in events]
        assert kinds == ["ok", "cached"]
        assert events[0]["wall_s"] > 0
        assert events[0]["total"] == 1


#: Concordia on ``tiny_config()``: enough slots that online learning
#: changes later predictions, so a run that trained a shared model in
#: place would change the next run's result.  Each test runs its own
#: seed: a model that has already learned one run's runtimes would no
#: longer change on a repeat of that run.
HERMETIC_SLOTS = 300


@pytest.fixture
def small_training_budget(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.1")  # 300 training slots


def _concordia_scenario(seed) -> Scenario:
    return Scenario(pool=tiny_config(), policy="concordia",
                    workload="redis", load_fraction=0.8, seed=seed)


def _concordia_spec(seed) -> SimSpec:
    return make_spec(_concordia_scenario(seed), HERMETIC_SLOTS)


def _predictor_state(predictor) -> list:
    """Every leaf buffer and counter of a quantile-tree predictor."""
    state = [predictor.predictions_made, predictor.observations_made]
    for task_type, model in sorted(predictor.models.items(),
                                   key=lambda item: item[0].name):
        assert isinstance(model, QuantileTreeWCET)
        state.append([model.tree.leaf_values(leaf).tolist()
                      for leaf in range(model.tree.num_leaves)])
    return state


def _flexran(config, seed) -> Scenario:
    return Scenario(pool=config, policy="flexran", seed=seed)


class TestRunSimulationRouting:
    """How one run reaches the result cache: a spec batch goes through
    the active cache unless ``use_cache=False``; :func:`run_spec`, the
    path for a caller-owned predictor, never touches it."""

    def test_hit_returns_identical_payload(self, tmp_path):
        spec = make_spec(_flexran(small_config(), 12), 100)
        with activated_cache(ResultCache(tmp_path)) as cache:
            first, = run_spec_batch([spec])
            second, = run_spec_batch([spec])
        assert cache.hits >= 1
        assert first.to_dict() == second.to_dict()

    def test_use_cache_false_bypasses(self, tmp_path):
        spec = make_spec(_flexran(small_config(), 13), 100)
        with activated_cache(ResultCache(tmp_path)) as cache:
            result, = run_spec_batch([spec], use_cache=False)
        assert result.latency.count > 0
        assert cache.hits == 0 and cache.misses == 0
        assert not any(tmp_path.iterdir())  # nothing stored either

    def test_unspeccable_call_falls_back(self, tmp_path):
        spec = make_spec(_flexran(small_config(), 14), 100)
        with activated_cache(ResultCache(tmp_path)) as cache:
            result = run_spec(spec, predictor=object())
        # A caller-owned predictor has no spec address, so its run
        # bypasses the cache entirely.
        assert result.latency.count > 0
        assert cache.hits == 0 and cache.misses == 0

    # Cached, uncached and batched runs are one pure function: a
    # trained model reaches a policy only as a private copy, so no run
    # changes another through the process's predictor cache.

    @pytest.mark.usefixtures("small_training_budget")
    def test_two_uncached_concordia_calls_are_equal(self):
        first = run_spec(_concordia_spec(5))
        second = run_spec(_concordia_spec(5))
        assert result_digest(first) == result_digest(second)

    @pytest.mark.usefixtures("small_training_budget")
    def test_cached_uncached_and_spec_payloads_are_equal(self, tmp_path):
        uncached = run_spec(_concordia_spec(6))
        with activated_cache(ResultCache(tmp_path)) as cache:
            cached, = run_spec_batch([_concordia_spec(6)])
        assert cache.misses == 1
        payload = execute_spec(_concordia_spec(6))
        assert result_digest(uncached) == result_digest(cached) == \
            result_digest(payload)

    def test_caller_predictor_is_not_trained_in_place(self):
        predictor = train_predictor(tiny_config(), num_slots=300, seed=42)
        before = _predictor_state(predictor)
        result = run_spec(_concordia_spec(7), predictor=predictor)
        assert result.latency.count > 0
        assert _predictor_state(predictor) == before
        assert predictor.predictions_made == 0

    @pytest.mark.usefixtures("small_training_budget")
    def test_build_policy_gets_a_private_model(self):
        config = tiny_config()
        assert build_policy("concordia", config).predictor is not \
            get_predictor(config)


class TestPredictorWarmup:
    """The parent trains only the models two or more jobs share; a
    model with one user trains in that user's job."""

    @staticmethod
    def _parent_trainings(monkeypatch, configs) -> int:
        import repro.experiments.common as common

        parent = os.getpid()
        trained = []

        def fake_train(config, **kwargs):
            if os.getpid() == parent:
                trained.append(config)
            return object()

        monkeypatch.setattr(common, "train_predictor", fake_train)
        monkeypatch.setattr(common, "_PREDICTOR_CACHE", {})
        # The jobs crash before building anything, so only the
        # parent's warm-up can train.
        def crash(spec, attempt):
            raise RuntimeError("injected crash")

        inject_faults(monkeypatch, crash)
        specs = [SimSpec(scenario=Scenario(pool=config, policy="concordia",
                                           seed=seed),
                         num_slots=10, training_slots=300)
                 for seed, config in enumerate(configs)]
        report = run_batch(specs, jobs=2, use_cache=False, retries=0)
        assert report.failed == len(specs)
        return len(trained)

    def test_distinct_pools_train_nothing_in_parent(self, monkeypatch):
        configs = [tiny_config(), small_config()]
        assert self._parent_trainings(monkeypatch, configs) == 0

    def test_shared_pool_trains_once_in_parent(self, monkeypatch):
        configs = [tiny_config(), tiny_config()]
        assert self._parent_trainings(monkeypatch, configs) == 1


class TestFingerprintCoverage:
    def test_fleet_result_sources_are_fingerprinted(self):
        import inspect
        from pathlib import Path

        import repro
        from repro.exec.fingerprint import FINGERPRINTED_PACKAGES
        from repro.fleet.demand import ShardDemandRecorder
        from repro.fleet.report import latency_histogram

        root = Path(repro.__file__).resolve().parent
        for obj in (ShardDemandRecorder, latency_histogram):
            path = Path(inspect.getsourcefile(obj)).resolve()
            package = path.relative_to(root).parts[0]
            assert package in FINGERPRINTED_PACKAGES, (obj, package)


class TestPredictorPersistence:
    def test_train_persist_reload(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "predictor.pkl"
        trained = train_predictor(config, num_slots=200, seed=5,
                                  cache_path=path)
        assert path.exists()
        reloaded = train_predictor(config, num_slots=200, seed=5,
                                   cache_path=path)
        assert set(reloaded.models) == set(trained.models)
        assert reloaded.selected_features == trained.selected_features


class TestEnvValidation:
    def test_repro_scale_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "fast")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            repro_scale()

    def test_repro_scale_rejects_nonpositive(self, monkeypatch):
        for bad in ("0", "-2", "inf", "nan"):
            monkeypatch.setenv("REPRO_SCALE", bad)
            with pytest.raises(ValueError, match="REPRO_SCALE"):
                repro_scale()

    def test_repro_scale_accepts_numbers(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert repro_scale() == 2.5
        monkeypatch.delenv("REPRO_SCALE")
        assert repro_scale() == 1.0

    def test_repro_jobs_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() == 1
