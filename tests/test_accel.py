"""Tests for the FPGA-offload extension (§7, Tables 3-4)."""

from repro.accel.offload import (
    Accelerator,
    AcceleratorConfig,
    attach_accelerator,
    cell_100mhz_tdd_accel,
    pool_100mhz_accel,
)
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.ran.tasks import TaskType
from repro.sim.engine import Engine
from repro.sim.pool import VranPool

from .test_pool import ManualPolicy, _FixedCost, _fast_os, make_dag


def make_accel_pool(num_cores=4, accel_config=None):
    engine = Engine()
    config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=num_cores,
                        deadline_us=4000.0)
    pool = VranPool(
        engine=engine, config=config, policy=ManualPolicy(),
        cost_model=_FixedCost(noise_sigma=0.0, isolated_tail_prob=0.0),
        os_model=_fast_os(),
    )
    accel = attach_accelerator(pool, Accelerator(engine, accel_config))
    return engine, pool, accel


class TestAcceleratorModel:
    def test_service_time_scales_with_codeblocks(self):
        engine, pool, accel = make_accel_pool()
        dag = make_dag(total_bytes=40_000)
        decodes = [t for t in dag.tasks
                   if t.task_type is TaskType.LDPC_DECODE]
        big = max(decodes, key=lambda t: t.feature("task_codeblocks"))
        small = min(decodes, key=lambda t: t.feature("task_codeblocks"))
        if big.feature("task_codeblocks") > small.feature("task_codeblocks"):
            assert accel.config.service_time_us(big) > \
                accel.config.service_time_us(small)

    def test_offload_saves_cpu_not_latency(self):
        """Offloading frees CPU cycles; end-to-end latency can be higher
        than the CPU path (paper Table 4: waits dominate slot time)."""
        config = AcceleratorConfig()
        assert config.roundtrip_us > 0.0
        assert config.decode_us_per_cb > 0.0
        # A 4-CB decode group costs more wall time on the accelerator
        # than the CPU's ~21 µs/CB, yet zero CPU cycles.
        assert config.roundtrip_us + 4 * config.decode_us_per_cb > 4 * 21.0

    def test_dag_completes_with_offload(self):
        engine, pool, accel = make_accel_pool()
        dag = make_dag(total_bytes=20_000)
        pool.release_slot([dag])
        engine.run_until(100_000.0)
        assert dag.finished
        assert accel.tasks_served > 0

    def test_offloaded_tasks_never_occupy_workers(self):
        engine, pool, accel = make_accel_pool(num_cores=1)
        dag = make_dag(total_bytes=20_000)
        started = []
        original = pool._start
        def spy(worker, task):
            started.append(task)
            original(worker, task)
        pool._start = spy
        pool.release_slot([dag])
        engine.run_until(100_000.0)
        assert dag.finished
        running_types = [task.task_type for task in started]
        assert TaskType.LDPC_DECODE not in running_types
        assert TaskType.LDPC_ENCODE not in running_types
        # _start is the only way a task reaches a worker, so the spy
        # must have seen every task that stayed on the CPU.
        cpu_tasks = [task for task in dag.tasks
                     if task.task_type not in accel.offloaded_types]
        assert cpu_tasks
        assert sorted(task.task_id for task in started) == \
            sorted(task.task_id for task in cpu_tasks)

    def test_pipeline_limit_respected(self):
        engine, pool, accel = make_accel_pool(
            accel_config=AcceleratorConfig(pipelines=1))
        dag = make_dag(total_bytes=60_000)
        pool.release_slot([dag])
        engine.run_until(200_000.0)
        assert dag.finished
        # With one pipeline, decodes are strictly serialized.
        decodes = sorted(
            ((t.start_time, t.finish_time) for t in dag.tasks
             if t.task_type is TaskType.LDPC_DECODE),
        )
        for (__, f1), (s2, __) in zip(decodes, decodes[1:]):
            assert s2 >= f1 - 1e-9

    def test_dependencies_still_respected(self):
        engine, pool, accel = make_accel_pool()
        dag = make_dag(total_bytes=20_000)
        pool.release_slot([dag])
        engine.run_until(100_000.0)
        for task in dag.tasks:
            for successor in task.successors:
                assert successor.start_time >= task.finish_time - 1e-9


class TestAccelConfigs:
    def test_table3_cell(self):
        cell = cell_100mhz_tdd_accel()
        assert cell.peak_dl_mbps == 1600.0
        assert cell.peak_ul_mbps == 150.0
        assert cell.slot_duration_us == 500.0

    def test_pool_factory(self):
        pool = pool_100mhz_accel(num_cells=3, num_cores=4)
        assert len(pool.cells) == 3
        assert pool.num_cores == 4
