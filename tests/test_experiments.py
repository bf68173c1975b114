"""Smoke tests for the per-figure experiment drivers.

These run each driver at a tiny slot budget: the goal is that every
table/figure pipeline executes end-to-end and returns well-formed
results (the shape assertions live in benchmarks/).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.training import collect_offline_dataset
from repro.exec.cache import ResultCache, activated_cache
from repro.exec.spec import predictor_cache_key
from repro.experiments import (
    fig03_traffic,
    fig04_motivation,
    fig06_ldpc,
    fig08_reclaim,
    fig09_cache,
    fig10_sched_latency,
    fig11_tail_latency,
    fig13_pwcet,
    fig15_overhead,
    tables,
)
from repro.experiments.common import (
    format_table,
    get_predictor,
    make_spec,
    run_spec_batch,
    scaled_slots,
)
from repro.ran.config import PoolConfig, cell_20mhz_fdd, pool_20mhz_7cells
from repro.scenario import Scenario, build_policy


class TestCommon:
    def test_scaled_slots_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        assert scaled_slots(1000) == 2000
        monkeypatch.setenv("REPRO_SCALE", "0.001")
        assert scaled_slots(1000, minimum=300) == 300

    def test_make_policy_names(self):
        config = pool_20mhz_7cells()
        for name in ("concordia-noml", "flexran", "dedicated",
                     "shenango", "utilization"):
            policy = build_policy(name, config)
            assert policy is not None
        with pytest.raises(ValueError):
            build_policy("nonexistent", config)

    def test_predictor_cache_reuses(self):
        config = pool_20mhz_7cells()
        first = get_predictor(config, seed=77, num_slots=200)
        second = get_predictor(config, seed=77, num_slots=200)
        assert first is second

    def test_pools_differing_in_antennas_get_distinct_models(self):
        cell = cell_20mhz_fdd("a0")
        first, second = (
            get_predictor(PoolConfig(cells=(replace(cell, num_antennas=n),),
                                     num_cores=2, deadline_us=2000.0),
                          seed=78, num_slots=200)
            for n in (cell.num_antennas, 2 * cell.num_antennas))
        assert first is not second

    def test_deadline_leaves_the_offline_dataset_unchanged(self):
        # Why the predictor key leaves deadline_us out: Fig. 15b's
        # deadline sweep trains one model for all its pools.
        pools = [pool_20mhz_7cells(deadline_us=d) for d in (1600.0, 2000.0)]
        short, long = (collect_offline_dataset(p, num_slots=300, seed=42)
                       for p in pools)
        assert len(short) == len(long) > 0
        assert short.task_types() == long.task_types()
        for task in short.task_types():
            for a, b in zip(short.arrays(task), long.arrays(task)):
                np.testing.assert_array_equal(a, b)
        assert predictor_cache_key(pools[0], 42, 300, "fp") == \
            predictor_cache_key(pools[1], 42, 300, "fp")

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1

    def test_spec_batch_policy_params(self):
        config = pool_20mhz_7cells(num_cores=4)
        result, = run_spec_batch([make_spec(
            Scenario(pool=config, policy="shenango", seed=7,
                     policy_params={"queue_delay_threshold_us": 42.0}),
            200)])
        assert result.latency.count > 0
        assert result.scenario["policy_params"] == {
            "queue_delay_threshold_us": 42.0}


class TestDrivers:
    def test_fig03(self):
        results = fig03_traffic.run(num_slots=5000)
        assert 0 < results["single_idle_fraction"] < 1
        assert "p95" in results["aggregate_cdf_kb"]

    def test_fig04_utilization(self):
        rows = fig04_motivation.run_utilization(num_slots=300)
        assert len(rows) == 3
        assert all(0 < r["utilization"] < 1 for r in rows)

    def test_fig06(self):
        results = fig06_ldpc.run(samples_per_point=200)
        assert results["runtimes"][(1, 3)].q50 > 0

    def test_fig08_reclaim(self):
        results = fig08_reclaim.run_reclaim(num_slots=300,
                                            loads=(0.1, 0.9))
        assert set(results["configs"]) == {"20MHz", "100MHz"}
        for series in results["configs"].values():
            assert len(series) == 2

    def test_fig09(self):
        results = fig09_cache.run(num_slots=500)
        assert set(results) == {"concordia", "flexran"}

    def test_fig09_is_cached(self, tmp_path, monkeypatch):
        import repro.exec.spec as spec_module

        def executed(*args, **kwargs):
            raise AssertionError("a cached grid point was executed")

        with activated_cache(ResultCache(tmp_path)):
            first = fig09_cache.run(num_slots=300)
            monkeypatch.setattr(spec_module, "build_spec_simulation",
                                executed)
            second = fig09_cache.run(num_slots=300)
        assert second == first

    def test_fig10(self):
        results = fig10_sched_latency.run(num_slots=500)
        assert results["event_ratio"] > 0

    def test_fig11_subset(self):
        results = fig11_tail_latency.run(
            num_slots=300, workloads=("none",), configs=("20MHz",),
            policies=("flexran",))
        entry = results[("20MHz", "flexran", "none")]
        assert entry["count"] > 0

    def test_fig13_wcetless(self):
        results = fig13_pwcet.run_wcetless(num_slots=400)
        assert "concordia" in results
        assert "shenango-5us" in results

    def test_fig15_overhead(self):
        results = fig15_overhead.run_overhead(num_slots=200,
                                              cell_counts=(1, 2))
        assert results[2]["predictor_us"] >= 0

    def test_table5(self):
        results = tables.run_table5(num_slots=300)
        assert abs(sum(results["uplink_shares"].values()) - 1.0) < 1e-6
        assert abs(sum(results["downlink_shares"].values()) - 1.0) < 1e-6

    def test_table4(self):
        results = tables.run_table4(num_slots=400)
        for entry in results.values():
            assert entry["avg_total_us"] >= entry["avg_nonoffloaded_us"]


class TestMains:
    """main() renderers produce non-empty printable reports."""

    def test_fig03_main(self):
        text = fig03_traffic.main(num_slots=4000)
        assert "Figure 3" in text
        assert "idle fraction" in text

    def test_fig06_main(self):
        text = fig06_ldpc.main(samples_per_point=150)
        assert "Figure 6a" in text and "Figure 6b" in text
