"""Tests for slot DAG construction (paper Fig. 1 / Fig. 16)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ran.config import cell_100mhz_tdd, cell_20mhz_fdd
from repro.ran.dag import MAX_CBS_PER_TASK, DagBuilder
from repro.ran.tasks import CostModel, TaskType
from repro.ran.ue import SlotLoad, bytes_to_allocations


@pytest.fixture
def builder():
    return DagBuilder(CostModel(rng=np.random.default_rng(0)),
                      rng=np.random.default_rng(1))


def _load(total_bytes, uplink=True, seed=2, slot_index=0):
    rng = np.random.default_rng(seed)
    allocations = bytes_to_allocations(total_bytes, rng)
    return SlotLoad("cell", slot_index, uplink, allocations)


def _topo_check(dag):
    """Tasks must be stored so edges only point to other tasks in the DAG,
    and the graph must be acyclic with consistent predecessor counts."""
    tasks = set(id(t) for t in dag.tasks)
    indegree = {id(t): 0 for t in dag.tasks}
    for task in dag.tasks:
        for successor in task.successors:
            assert id(successor) in tasks
            indegree[id(successor)] += 1
    for task in dag.tasks:
        assert indegree[id(task)] == task.predecessors_remaining
    # Kahn's algorithm terminates iff acyclic.
    ready = [t for t in dag.tasks if indegree[id(t)] == 0]
    seen = 0
    while ready:
        task = ready.pop()
        seen += 1
        for successor in task.successors:
            indegree[id(successor)] -= 1
            if indegree[id(successor)] == 0:
                ready.append(successor)
    assert seen == len(dag.tasks)


class TestUplinkDag:
    def test_idle_slot_is_front_end_only(self, builder):
        dag = builder.build(_load(0), cell_100mhz_tdd(), 0.0, 1500.0)
        assert [t.task_type for t in dag.tasks] == [TaskType.FFT]

    def test_structure(self, builder):
        load = _load(20_000)
        dag = builder.build(load, cell_100mhz_tdd(), 0.0, 1500.0)
        types = [t.task_type for t in dag.tasks]
        assert types.count(TaskType.FFT) == 1
        assert types.count(TaskType.CRC_CHECK) == 1
        assert types.count(TaskType.CHANNEL_ESTIMATION) == load.num_ues
        assert types.count(TaskType.EQUALIZATION) == load.num_ues
        _topo_check(dag)

    def test_decode_group_sizes(self, builder):
        load = _load(30_000)
        dag = builder.build(load, cell_100mhz_tdd(), 0.0, 1500.0)
        decode_cbs = [int(t.feature("task_codeblocks")) for t in dag.tasks
                      if t.task_type is TaskType.LDPC_DECODE]
        assert sum(decode_cbs) == load.total_codeblocks
        assert all(1 <= cbs <= MAX_CBS_PER_TASK for cbs in decode_cbs)

    def test_fft_is_single_entry(self, builder):
        dag = builder.build(_load(10_000), cell_100mhz_tdd(), 0.0, 1500.0)
        entries = dag.entry_tasks()
        assert len(entries) == 1
        assert entries[0].task_type is TaskType.FFT

    def test_crc_is_sink_joining_all_decodes(self, builder):
        dag = builder.build(_load(10_000), cell_100mhz_tdd(), 0.0, 1500.0)
        crc = [t for t in dag.tasks if t.task_type is TaskType.CRC_CHECK][0]
        decodes = [t for t in dag.tasks
                   if t.task_type is TaskType.LDPC_DECODE]
        assert crc.predecessors_remaining == len(decodes)
        assert crc.successors == []


class TestDownlinkDag:
    def test_idle_slot_is_control_only(self, builder):
        dag = builder.build(_load(0, uplink=False), cell_100mhz_tdd(),
                            0.0, 1500.0)
        types = [t.task_type for t in dag.tasks]
        assert types == [TaskType.MODULATION, TaskType.IFFT]

    def test_structure(self, builder):
        load = _load(50_000, uplink=False)
        dag = builder.build(load, cell_100mhz_tdd(), 0.0, 1500.0)
        types = [t.task_type for t in dag.tasks]
        assert types.count(TaskType.CRC_ATTACH) == 1
        assert types.count(TaskType.PRECODING) == 1
        assert types.count(TaskType.IFFT) == 1
        assert types.count(TaskType.RATE_MATCH) == load.num_ues
        _topo_check(dag)

    def test_ifft_is_sink(self, builder):
        dag = builder.build(_load(50_000, uplink=False), cell_100mhz_tdd(),
                            0.0, 1500.0)
        sinks = [t for t in dag.tasks if not t.successors]
        assert len(sinks) == 1
        assert sinks[0].task_type is TaskType.IFFT


class TestDagInstance:
    def test_deadline_and_latency(self, builder):
        dag = builder.build(_load(5000), cell_20mhz_fdd(), 100.0, 2100.0)
        assert dag.deadline_us == 2100.0
        assert dag.latency_us is None
        dag.completion_us = 900.0
        assert dag.latency_us == 800.0


@given(st.integers(min_value=0, max_value=120_000),
       st.booleans(),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_dag_invariants(total_bytes, uplink, seed):
    builder = DagBuilder(CostModel(rng=np.random.default_rng(0)),
                         rng=np.random.default_rng(1))
    load = _load(total_bytes, uplink=uplink, seed=seed)
    dag = builder.build(load, cell_100mhz_tdd(), 0.0, 1500.0)
    assert dag.tasks_remaining == len(dag.tasks) > 0
    assert all(t.dag is dag for t in dag.tasks)
    assert all(t.base_cost_us > 0 for t in dag.tasks)
    _topo_check(dag)
    # Codeblock conservation through decode/encode groups.
    coding = TaskType.LDPC_DECODE if uplink else TaskType.LDPC_ENCODE
    group_cbs = sum(int(t.feature("task_codeblocks")) for t in dag.tasks
                    if t.task_type is coding)
    assert group_cbs == load.total_codeblocks
