"""Tests for the polar-code kernels and the recorded task timeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EventBus, render_gantt
from repro.phy.polar import PolarCode, bsc_llrs, polar_decode_sc, polar_encode
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.scenario import Scenario, build_simulation


class TestPolarCode:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolarCode(block_length=6, message_length=3)  # not power of 2
        with pytest.raises(ValueError):
            PolarCode(block_length=8, message_length=0)
        with pytest.raises(ValueError):
            PolarCode(block_length=8, message_length=9)

    def test_information_set_size(self):
        code = PolarCode(block_length=64, message_length=32)
        info = code.information_set
        assert len(info) == 32
        assert len(set(info.tolist())) == 32
        assert code.rate == 0.5

    def test_noiseless_roundtrip(self):
        code = PolarCode(block_length=128, message_length=64)
        rng = np.random.default_rng(0)
        for __ in range(20):
            message = rng.integers(0, 2, 64).astype(np.uint8)
            codeword = polar_encode(code, message)
            llrs = bsc_llrs(codeword, 0.01)
            decoded = polar_decode_sc(code, llrs)
            assert np.array_equal(decoded, message)

    def test_corrects_noisy_channel(self):
        """Low-rate polar code over a 5% BSC decodes most blocks."""
        code = PolarCode(block_length=256, message_length=64,
                         design_p=0.05)
        rng = np.random.default_rng(1)
        successes = 0
        for __ in range(30):
            message = rng.integers(0, 2, 64).astype(np.uint8)
            codeword = polar_encode(code, message)
            noisy = codeword ^ (rng.random(256) < 0.05).astype(np.uint8)
            decoded = polar_decode_sc(code, bsc_llrs(noisy, 0.05))
            successes += np.array_equal(decoded, message)
        assert successes >= 24

    def test_higher_rate_less_robust(self):
        rng = np.random.default_rng(2)

        def block_error_rate(k):
            code = PolarCode(block_length=128, message_length=k,
                             design_p=0.08)
            errors = 0
            for __ in range(40):
                message = rng.integers(0, 2, k).astype(np.uint8)
                codeword = polar_encode(code, message)
                noisy = codeword ^ (rng.random(128) < 0.08).astype(np.uint8)
                decoded = polar_decode_sc(code, bsc_llrs(noisy, 0.08))
                errors += not np.array_equal(decoded, message)
            return errors / 40

        assert block_error_rate(96) >= block_error_rate(32)

    def test_wrong_message_length(self):
        code = PolarCode(block_length=8, message_length=4)
        with pytest.raises(ValueError):
            polar_encode(code, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            polar_decode_sc(code, np.zeros(7))

    def test_bsc_llr_validation(self):
        with pytest.raises(ValueError):
            bsc_llrs(np.zeros(4, dtype=np.uint8), 0.7)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        code = PolarCode(block_length=64, message_length=24)
        message = rng.integers(0, 2, 24).astype(np.uint8)
        codeword = polar_encode(code, message)
        decoded = polar_decode_sc(code, bsc_llrs(codeword, 0.01))
        assert np.array_equal(decoded, message)


@pytest.fixture(scope="module")
def traced_run():
    """A recorded run plus the tasks a live observer saw in it."""
    config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                        deadline_us=2000.0)
    bus = EventBus()
    simulation = build_simulation(
        Scenario(pool=config, policy="flexran", load_fraction=0.5, seed=2),
        event_bus=bus)
    observed = []
    simulation.pool.task_observers.append(
        lambda task: observed.append((task.dag.dag_id, task.task_id)))
    simulation.run(200)
    return bus, observed


class TestTaskTimeline:
    def test_bus_records_every_task(self, traced_run):
        bus, observed = traced_run
        done = list(bus.of_kind("task_done"))
        assert bus.dropped == 0
        assert len(done) > 200
        assert sorted((e.dag_id, e.task_id) for e in done) \
            == sorted(observed)
        for event in done:
            assert event.ts_us >= event.start_us >= event.enqueue_us >= 0
            assert event.runtime_us > 0


class TestGantt:
    def test_renders_dag_timeline(self, traced_run):
        bus, __ = traced_run
        # dag_complete events carry the DAG's latency in runtime_us.
        slowest = max(bus.of_kind("dag_complete"),
                      key=lambda e: e.runtime_us)
        chart = render_gantt([e for e in bus.of_kind("task_done")
                              if e.dag_id == slowest.dag_id], title="slot")
        assert "slot" in chart
        assert "#" in chart
        assert "us total" in chart

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            render_gantt([])
