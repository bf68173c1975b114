"""Tests for :mod:`repro.exec` — specs, cache, batch runner, routing.

Simulation budgets are tiny (one-to-few hundred slots on small pools):
the goal is exercising the orchestration machinery, not the paper's
numbers.
"""

import json
import os

import pytest

from repro.core.training import train_predictor
from repro.exec import (
    ResultCache,
    SimSpec,
    SpecError,
    activated_cache,
    model_fingerprint,
    pool_config_from_dict,
    pool_config_to_dict,
    run_batch,
    spec_key,
)
from repro.exec.batch import default_jobs
from repro.experiments.common import make_spec, repro_scale, run_simulation
from repro.ran.config import PoolConfig, cell_20mhz_fdd, pool_20mhz_7cells


def small_config(num_cores: int = 4) -> PoolConfig:
    return pool_20mhz_7cells(num_cores=num_cores)


def tiny_config() -> PoolConfig:
    return PoolConfig(cells=(cell_20mhz_fdd("t0"),), num_cores=2,
                      deadline_us=2000.0)


def flexran_spec(seed: int = 3, num_slots: int = 120, **kwargs) -> SimSpec:
    return make_spec(small_config(), "flexran", num_slots=num_slots,
                     seed=seed, **kwargs)


class TestSpec:
    def test_round_trip(self):
        spec = flexran_spec(workload="redis", load_fraction=0.3)
        clone = SimSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert pool_config_from_dict(clone.config) == small_config()

    def test_key_depends_on_payload_and_fingerprint(self):
        a, b = flexran_spec(seed=1), flexran_spec(seed=2)
        assert spec_key(a, "fp") != spec_key(b, "fp")
        assert spec_key(a, "fp") == spec_key(flexran_spec(seed=1), "fp")
        assert spec_key(a, "fp") != spec_key(a, "other-fp")

    def test_live_objects_are_rejected(self):
        with pytest.raises(SpecError):
            make_spec(small_config(), "concordia",
                      policy_kwargs={"predictor": object()})

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
        cache.put("ab" * 32, {"result": {"x": 1}})
        assert cache.get("ab" * 32)["result"] == {"x": 1}
        assert cache.hits == 1 and cache.misses == 1

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

    def test_crash_is_isolated_and_retried(self):
        crash = flexran_spec(seed=7, num_slots=100)
        crash.knobs["__test_crash__"] = True
        flaky = flexran_spec(seed=8, num_slots=100)
        flaky.knobs["__test_crash_until_attempt__"] = 1
        good = flexran_spec(seed=9, num_slots=100)
        report = run_batch([crash, flaky, good], jobs=2,
                           use_cache=False, retries=1)
        by_status = {o.spec.seed: o for o in report.outcomes}
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
        report = run_batch([flexran_spec(seed=12, num_slots=100)],
                           jobs=2, use_cache=False, retries=1)
        (outcome,) = report.outcomes
        assert report.retried == 1 and outcome.attempts == 2
        if deaths == "first":
            assert outcome.status == "ok"
        else:
            assert outcome.status == "failed"
            assert "without reporting" in outcome.error

    def test_timeout_kills_the_job(self):
        slow = flexran_spec(seed=10, num_slots=100)
        slow.knobs["__test_sleep_s__"] = 30.0
        report = run_batch([slow], jobs=2, use_cache=False,
                           timeout_s=0.5)
        outcome = report.outcomes[0]
        assert outcome.status == "timeout"
        assert "killed" in outcome.error
        assert report.batch_wall_s < 10.0

    def test_straggler_is_flagged_once(self, monkeypatch, caplog):
        monkeypatch.setattr("repro.exec.batch.STRAGGLER_FACTOR", 1.0)
        monkeypatch.setattr("repro.exec.batch.STRAGGLER_MIN_S", 0.5)
        fast = flexran_spec(seed=13, num_slots=100)
        slow = flexran_spec(seed=14, num_slots=100)
        slow.knobs["__test_sleep_s__"] = 3.0
        events = []
        report = run_batch([fast, slow], jobs=2, use_cache=False,
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


class TestRunSimulationRouting:
    def test_hit_returns_identical_payload(self, tmp_path):
        config = small_config()
        with activated_cache(ResultCache(tmp_path)) as cache:
            first = run_simulation(config, "flexran", num_slots=100,
                                   seed=12)
            second = run_simulation(config, "flexran", num_slots=100,
                                    seed=12)
        assert cache.hits >= 1
        assert first.metrics is None and first.pool is None
        assert first.to_dict() == second.to_dict()

    def test_use_cache_false_bypasses(self, tmp_path):
        config = small_config()
        with activated_cache(ResultCache(tmp_path)) as cache:
            result = run_simulation(config, "flexran", num_slots=100,
                                    seed=13, use_cache=False)
        assert result.metrics is not None  # live, uncached result
        assert cache.hits == 0 and cache.misses == 0

    def test_unspeccable_call_falls_back(self, tmp_path):
        config = small_config()
        with activated_cache(ResultCache(tmp_path)) as cache:
            result = run_simulation(config, "flexran", num_slots=100,
                                    seed=14,
                                    policy_kwargs={"predictor": object()})
        # A live object in policy_kwargs cannot be expressed as a
        # spec, so the call must bypass the cache entirely.
        assert result.metrics is not None
        assert cache.hits == 0 and cache.misses == 0


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
