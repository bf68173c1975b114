"""Integration tests: full simulations through the public API.

These run small but complete experiments (hundreds to thousands of
slots), exercising traffic generation, DAG construction, scheduling,
OS/cache models and metrics together.
"""

import pytest

from repro import (
    PoolConfig,
    Scenario,
    build_simulation,
    cell_20mhz_fdd,
    pool_100mhz_2cells,
    pool_20mhz_7cells,
    train_predictor,
)


@pytest.fixture(scope="module")
def small_pool():
    return PoolConfig(cells=(cell_20mhz_fdd("c0"), cell_20mhz_fdd("c1")),
                      num_cores=4, deadline_us=2000.0)


@pytest.fixture(scope="module")
def predictor(small_pool):
    return train_predictor(small_pool, num_slots=300, seed=100)


class TestBasicRuns:
    def test_flexran_isolated_run(self, small_pool):
        sim = build_simulation(Scenario(
            pool=small_pool, policy="flexran", load_fraction=0.3, seed=1))
        result = sim.run(400)
        assert result.latency.count >= 400  # >= 1 DAG per slot
        assert result.latency.miss_fraction < 0.01
        assert 0.0 <= result.reclaimed_fraction <= 1.0
        assert result.duration_us >= 400 * 1000.0

    def test_concordia_run_with_predictor(self, small_pool, predictor):
        sim = build_simulation(
            Scenario(pool=small_pool, policy="concordia", workload="redis",
                     load_fraction=0.3, seed=1),
            predictor=predictor)
        result = sim.run(400)
        assert result.latency.miss_fraction < 0.01
        assert result.reclaimed_fraction > 0.2
        assert result.workload_rates_per_s["redis-get"] > 0

    def test_dedicated_reclaims_nothing(self, small_pool):
        sim = build_simulation(Scenario(
            pool=small_pool, policy="dedicated", load_fraction=0.3, seed=2))
        result = sim.run(200)
        assert result.reclaimed_fraction == pytest.approx(0.0, abs=1e-6)

    def test_shenango_and_utilization_run(self, small_pool):
        for policy, params in (
                ("shenango", {"queue_delay_threshold_us": 20.0}),
                ("utilization", {})):
            sim = build_simulation(Scenario(
                pool=small_pool, policy=policy, policy_params=params,
                workload="nginx", load_fraction=0.3, seed=3))
            result = sim.run(300)
            assert result.latency.count > 0

    def test_invalid_slots(self, small_pool):
        sim = build_simulation(Scenario(pool=small_pool, policy="flexran"))
        with pytest.raises(ValueError):
            sim.run(0)


class TestDeterminism:
    def test_same_seed_same_result(self, small_pool):
        def run():
            sim = build_simulation(Scenario(
                pool=small_pool, policy="flexran", workload="redis",
                load_fraction=0.4, seed=9))
            return sim.run(200)

        a, b = run(), run()
        assert a.latency.mean_us == b.latency.mean_us
        assert a.scheduling_events == b.scheduling_events
        assert a.reclaimed_fraction == b.reclaimed_fraction

    def test_different_seeds_differ(self, small_pool):
        results = []
        for seed in (1, 2):
            sim = build_simulation(Scenario(
                pool=small_pool, policy="flexran", load_fraction=0.4,
                seed=seed))
            results.append(sim.run(200).latency.mean_us)
        assert results[0] != results[1]


class TestWorkloadInteraction:
    def test_collocation_reduces_reclaim_or_inflates_runtimes(self,
                                                              small_pool):
        def mean_latency(workload):
            sim = build_simulation(Scenario(
                pool=small_pool, policy="flexran", workload=workload,
                load_fraction=0.4, seed=5))
            return sim.run(500).latency.mean_us

        isolated = mean_latency("none")
        interfered = mean_latency("mlperf")
        assert interfered > isolated

    def test_workload_throughput_tracks_reclaimed_cores(self, small_pool):
        def redis_rate(load):
            sim = build_simulation(Scenario(
                pool=small_pool, policy="flexran", workload="redis",
                load_fraction=load, seed=6))
            return sim.run(300).workload_rates_per_s["redis-get"]

        assert redis_rate(0.05) > redis_rate(0.9)

    def test_mix_workload_toggles(self, small_pool):
        sim = build_simulation(Scenario(
            pool=small_pool, policy="flexran", workload="mix",
            load_fraction=0.3, seed=7, mix_interval_us=(20_000.0, 50_000.0)))
        result = sim.run(400)
        assert set(result.workload_ops) == {"nginx", "redis-get", "tpcc"}


class TestSlotAccounting:
    def test_tdd_slots_produce_expected_dag_mix(self):
        config = pool_100mhz_2cells(num_cores=4)
        sim = build_simulation(Scenario(
            pool=config, policy="dedicated", load_fraction=0.5, seed=8))
        result = sim.run(100)
        # 2 cells x 100 slots; DDDSU means D slots carry 1 DAG/cell, S
        # carries 2 (UL+DL), U carries 1: per 5 slots = 6 DAGs/cell.
        expected = 2 * 100 // 5 * 6
        assert result.latency.count == expected

    def test_fdd_slots_produce_two_dags_per_cell(self, small_pool):
        sim = build_simulation(Scenario(
            pool=small_pool, policy="dedicated", load_fraction=0.5, seed=8))
        result = sim.run(100)
        assert result.latency.count == 2 * 2 * 100

    def test_five_nines_summary_flags(self, small_pool, predictor):
        sim = build_simulation(
            Scenario(pool=small_pool, policy="concordia", load_fraction=0.2,
                     seed=10),
            predictor=predictor)
        result = sim.run(300)
        assert result.meets_five_nines == \
            (result.latency.p99999_us <= result.latency.deadline_us)
