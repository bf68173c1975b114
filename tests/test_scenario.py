"""Tests for the scenario assembly layer and the RNG-stream refactor."""

import json

import numpy as np
import pytest

from repro.fleet import FleetScenario

from repro.ran.config import PoolConfig, pool_20mhz_7cells
from repro.ran.ue import SlotLoad, bytes_to_allocations
from repro.scenario import (
    NAMED_POOLS,
    POLICY_NAMES,
    Scenario,
    build_policy,
    build_simulation,
    pool_config_from_dict,
    pool_config_to_dict,
    resolve_pool,
)
from repro.exec.digest import result_digest
from repro.sim.runner import RESULT_SCHEMA, SimulationResult


def small_pool(num_cores: int = 4) -> PoolConfig:
    base = pool_20mhz_7cells(num_cores=num_cores)
    return PoolConfig(cells=base.cells[:2], num_cores=num_cores,
                      deadline_us=base.deadline_us)


class TestResolvePool:
    def test_pool_config_passthrough(self):
        config = small_pool()
        assert resolve_pool(config) is config

    def test_named_reference(self):
        assert resolve_pool({"name": "20mhz"}) == pool_20mhz_7cells()

    def test_named_reference_with_overrides(self):
        pool = resolve_pool({"name": "20mhz", "num_cores": 12})
        assert pool.num_cores == 12

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown pool name"):
            resolve_pool({"name": "42mhz"})

    def test_inline_cells_dict(self):
        config = small_pool()
        assert resolve_pool(pool_config_to_dict(config)) == config

    def test_dict_without_name_or_cells_raises(self):
        with pytest.raises(ValueError):
            resolve_pool({"num_cores": 4})

    def test_non_dict_raises(self):
        with pytest.raises(TypeError):
            resolve_pool(["20mhz"])

    def test_every_named_pool_resolves(self):
        for name in NAMED_POOLS:
            assert isinstance(resolve_pool({"name": name}), PoolConfig)


class TestScenario:
    def test_round_trip_with_named_pool(self):
        scenario = Scenario(pool={"name": "20mhz"}, policy="flexran",
                            workload="redis", load_fraction=0.75, seed=3,
                            harq=True, allocation="mac")
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_round_trip_inlines_pool_config(self):
        scenario = Scenario(pool=small_pool())
        payload = scenario.to_dict()
        clone = Scenario.from_dict(payload)
        assert resolve_pool(clone.pool) == small_pool()

    def test_unknown_schema_raises(self):
        payload = Scenario(pool={"name": "20mhz"}).to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="scenario schema"):
            Scenario.from_dict(payload)

    def test_removed_record_tasks_key(self):
        # Payloads are hashed into every result digest, so the removed
        # per-task recording knob keeps its constant key in place.
        payload = Scenario(pool={"name": "20mhz"}).to_dict()
        keys = list(payload)
        assert payload["record_tasks"] is False
        assert keys.index("record_tasks") == keys.index("mix_interval_us") + 1
        assert Scenario.from_dict(payload) == Scenario(pool={"name": "20mhz"})
        payload["record_tasks"] = True
        with pytest.raises(ValueError, match="record_tasks"):
            Scenario.from_dict(payload)

    @pytest.mark.parametrize("engine_mode", ["event", "array"])
    def test_removed_engine_mode_key_loads(self, engine_mode):
        # Payloads written while the engine was a choice still load,
        # and serialize exactly like a payload that never had the key.
        default = Scenario(pool={"name": "20mhz"}).to_dict()
        legacy = dict(default, engine_mode=engine_mode)
        loaded = Scenario.from_dict(legacy)
        assert json.dumps(loaded.to_dict()) == json.dumps(default)

    @pytest.mark.parametrize("engine_mode", ["event", "array"])
    def test_fleet_removed_engine_mode_key_loads(self, engine_mode):
        default = FleetScenario(cells=4, shards=2, num_slots=10).to_dict()
        legacy = dict(default, engine_mode=engine_mode)
        loaded = FleetScenario.from_dict(legacy)
        assert json.dumps(loaded.to_dict()) == json.dumps(default)

    def test_invalid_allocation_raises(self):
        with pytest.raises(ValueError, match="allocation"):
            Scenario(pool={"name": "20mhz"}, allocation="roundrobin")

    def test_invalid_traffic_raises(self):
        with pytest.raises(ValueError, match="traffic"):
            Scenario(pool={"name": "20mhz"}, traffic="replay")

    def test_profiling_traffic_property(self):
        assert Scenario(pool={"name": "20mhz"},
                        traffic="profiling").profiling_traffic
        assert not Scenario(pool={"name": "20mhz"}).profiling_traffic


class TestBuildPolicy:
    def test_all_names_instantiate(self):
        config = small_pool()
        for name in POLICY_NAMES:
            if name == "concordia":
                continue  # needs a trained predictor; covered elsewhere
            policy = build_policy(name, config)
            assert hasattr(policy, "name")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown policy"):
            build_policy("edf", small_pool())


class TestBuildSimulation:
    @pytest.mark.parametrize("policy, params", [
        pytest.param(name, params, id=name) for name, params in (
            ("concordia-noml", {}), ("flexran", {}), ("dedicated", {}),
            ("shenango", {}), ("utilization", {}),
            ("static", {"reserved_cores": 2}))])
    def test_result_rebuilds_the_same_run(self, policy, params):
        # Every catalog policy that needs no predictor: the scenario a
        # result embeds names the policy and its parameters, so
        # rebuilding from it reproduces the run bit for bit.  Six cores
        # keep the static partition off its default (num_cores // 2).
        scenario = Scenario(pool=small_pool(num_cores=6), policy=policy,
                            policy_params=params, workload="redis",
                            load_fraction=0.4, seed=11)
        result = build_simulation(scenario).run(40)
        rebuilt = build_simulation(Scenario.from_dict(result.scenario))
        assert (result.scenario["policy"],
                result.scenario["policy_params"]) == (policy, params)
        assert result_digest(rebuilt.run(40)) == result_digest(result)

    def test_result_embeds_scenario(self):
        scenario = Scenario(pool={"name": "20mhz", "num_cores": 4},
                            policy="concordia-noml", seed=2)
        result = build_simulation(scenario).run(20)
        assert result.scenario is not None
        assert result.scenario["policy"] == "concordia-noml"
        assert result.scenario["pool"] == {"name": "20mhz", "num_cores": 4}


class TestRngStreams:
    """Satellite: per-subsystem streams are spawn-keyed, not sequential."""

    def test_same_seed_reproduces(self):
        scenario = Scenario(pool=small_pool(), policy="concordia-noml",
                            seed=5)
        a = build_simulation(scenario).run(30)
        b = build_simulation(scenario).run(30)
        assert a.latency.p99_us == b.latency.p99_us
        assert a.vran_utilization == b.vran_utilization

    def test_different_seeds_differ(self):
        base = dict(pool=small_pool(), policy="concordia-noml")
        a = build_simulation(Scenario(seed=1, **base)).run(30)
        b = build_simulation(Scenario(seed=2, **base)).run(30)
        assert a.latency.mean_us != b.latency.mean_us

    def test_per_cell_traffic_streams_distinct(self):
        sim = build_simulation(
            Scenario(pool=small_pool(), policy="concordia-noml", seed=9))
        draws = [[gen.downlink.next_slot() for _ in range(8)]
                 for gen in sim.traffic]
        assert draws[0] != draws[1]

    def test_optional_subsystems_do_not_shift_traffic_streams(self):
        # Before the spawn-key refactor, HARQ/MAC constructors consumed
        # draws from the shared traffic RNG, so toggling them reseeded
        # every cell's generator.  Streams are keyed now.
        base = dict(pool=small_pool(), policy="concordia-noml", seed=9)
        plain = build_simulation(Scenario(**base))
        harq = build_simulation(Scenario(harq=True, **base))
        mac = build_simulation(Scenario(allocation="mac", **base))
        reference = [plain.traffic[i].downlink.next_slot() for i in (0, 1)]
        assert [harq.traffic[i].downlink.next_slot() for i in (0, 1)] \
            == reference
        assert [mac.traffic[i].downlink.next_slot() for i in (0, 1)] \
            == reference

    def test_root_streams_pairwise_distinct(self):
        sim = build_simulation(
            Scenario(pool=small_pool(), policy="concordia-noml", seed=0))
        rngs = [sim._rng_traffic, sim._rng_alloc, sim._rng_os,
                sim._rng_mix]
        firsts = [rng.random() for rng in rngs]
        assert len(set(firsts)) == len(firsts)


def _slot_loads(cell, seed: int) -> list:
    """Both directions' half-peak loads of ``cell`` in slot 0."""
    rng = np.random.default_rng(seed)
    return [
        SlotLoad(cell_name=cell.name, slot_index=0, uplink=uplink,
                 allocations=bytes_to_allocations(
                     cell.peak_bytes_per_slot(uplink) // 2, rng,
                     max_ues=cell.max_ues_per_slot,
                     max_layers=cell.max_layers))
        for uplink in (True, False)
    ]


class TestDagStreamIndependence:
    """Per-DAG batched draws keyed by (cell, slot, direction)."""

    def test_build_order_does_not_change_runtimes(self):
        from repro.ran.dag import DagBuilder
        from repro.ran.tasks import CostModel

        sim = build_simulation(
            Scenario(pool=small_pool(), policy="concordia-noml", seed=3))
        loads = {i: _slot_loads(sim.pool_config.cells[i], seed=i)
                 for i in (0, 1)}
        assert not any(load.idle for cell_loads in loads.values()
                       for load in cell_loads)

        def build_all(order):
            builder = DagBuilder(CostModel(),
                                 seed_seq=np.random.SeedSequence(42))
            out = {}
            for cell_index in order:
                cell = sim.pool_config.cells[cell_index]
                for load in loads[cell_index]:
                    dag = builder.build(load, cell, 0.0, 2000.0,
                                        cell_index=cell_index)
                    out[(cell_index, load.uplink)] = [
                        t.stoch_mult for t in dag.tasks]
            return out

        assert build_all([0, 1]) == build_all([1, 0])

    def test_presampled_fields_populated(self):
        sim = build_simulation(
            Scenario(pool=small_pool(), policy="concordia-noml", seed=3))
        cell = sim.pool_config.cells[0]
        load = _slot_loads(cell, seed=3)[0]
        dag = sim.builder.build(load, cell, 0.0, 2000.0, cell_index=0)
        assert all(t.stoch_mult is not None for t in dag.tasks)
        assert all(t.cache_u is not None for t in dag.tasks)
        assert all(t.cache_tail >= 1.0 for t in dag.tasks)


class TestResultSchema:
    def test_to_dict_emits_schema_2(self):
        result = build_simulation(
            Scenario(pool=small_pool(), policy="concordia-noml",
                     seed=1)).run(20)
        payload = result.to_dict()
        assert payload["schema"] == 2
        assert payload["scenario"]["seed"] == 1

    def test_schema_2_round_trip(self):
        result = build_simulation(
            Scenario(pool=small_pool(), policy="concordia-noml",
                     seed=1)).run(20)
        clone = SimulationResult.from_dict(result.to_dict())
        assert clone.latency.p99999_us == result.latency.p99999_us
        assert clone.scenario == result.scenario
        assert clone.to_dict() == result.to_dict()

    def test_unknown_schema_raises(self):
        result = build_simulation(
            Scenario(pool=small_pool(), policy="concordia-noml",
                     seed=1)).run(20)
        # Schema 1 (no scenario) is retired: cache keys fingerprint the
        # model sources, so no current key can address such a payload.
        for schema in (1, RESULT_SCHEMA + 1, None):
            payload = result.to_dict()
            payload["schema"] = schema
            with pytest.raises(ValueError, match="result schema"):
                SimulationResult.from_dict(payload)


class TestCacheSchemaBump:
    def test_stale_result_schema_is_a_miss_not_a_crash(self, tmp_path):
        from repro.exec.cache import ResultCache, activated_cache
        from repro.exec.fingerprint import model_fingerprint
        from repro.exec.spec import spec_key
        from repro.experiments.common import make_spec, run_spec_batch

        config = small_pool()
        cache = ResultCache(tmp_path / "cache")
        spec = make_spec(Scenario(pool=config, policy="concordia-noml",
                                  seed=3), 20)
        with activated_cache(cache):
            first, = run_spec_batch([spec])
            key = spec_key(spec, model_fingerprint())
            artifact = cache.get(key)
            assert artifact is not None
            # Simulate an artifact written by a future result schema.
            artifact["result"]["schema"] = RESULT_SCHEMA + 1
            cache.put(key, artifact)
            again, = run_spec_batch([spec])
        assert again.latency.p99_us == first.latency.p99_us
        # The re-executed artifact replaced the stale one.
        refreshed = cache.get(key)
        assert refreshed["result"]["schema"] == RESULT_SCHEMA

    def test_batch_treats_stale_result_schema_as_miss(self, tmp_path):
        from repro.exec.batch import run_batch
        from repro.exec.cache import ResultCache
        from repro.exec.fingerprint import model_fingerprint
        from repro.exec.spec import spec_key
        from repro.experiments.common import make_spec

        config = small_pool()
        spec = make_spec(Scenario(pool=config, policy="concordia-noml",
                                  seed=3), 20)
        cache = ResultCache(tmp_path / "cache")
        report = run_batch([spec], cache=cache)
        assert report.executed == 1
        key = spec_key(spec, model_fingerprint())
        artifact = cache.get(key)
        artifact["result"]["schema"] = RESULT_SCHEMA + 1
        cache.put(key, artifact)
        report2 = run_batch([spec], cache=cache)
        assert report2.executed == 1 and report2.cached == 0
        assert report2.results(strict=True)[0].num_slots == 20
