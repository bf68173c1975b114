"""Tests for the task cost model (Fig. 6, Table 5 calibration anchors)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ran.tasks import (
    CostModel,
    TaskInstance,
    TaskType,
    prbs_for_bandwidth,
)


@pytest.fixture
def model():
    return CostModel()


def _decode_cost(model, cbs, snr_margin=10.0, code_rate=0.8):
    return model.base_cost_us(
        TaskType.LDPC_DECODE, prbs=273, antennas=4, total_layers=4,
        slot_bytes=10_000, slot_codeblocks=cbs, task_codeblocks=cbs,
        snr_margin_db=snr_margin, code_rate=code_rate,
    )


class TestPrbs:
    def test_standard_values(self):
        assert prbs_for_bandwidth(20, 0) == 107  # ~106 in 38.101
        assert prbs_for_bandwidth(100, 1) == 269  # ~273 in 38.101

    def test_scales_with_bandwidth(self):
        assert prbs_for_bandwidth(40, 1) > prbs_for_bandwidth(20, 1)


class TestDecodeCalibration:
    """Fig. 6a anchors: 3 CBs ≈ 100 µs, 15 CBs ≈ 450-500 µs (one core)."""

    def test_runtime_linear_in_codeblocks(self, model):
        c3 = _decode_cost(model, 3)
        c15 = _decode_cost(model, 15)
        assert c15 / c3 == pytest.approx(5.0, rel=0.15)

    def test_absolute_range_matches_fig6a(self, model):
        # Average-ish link margin gives the Fig. 6a magnitudes.
        assert 60 <= _decode_cost(model, 3, snr_margin=3.0) <= 140
        assert 300 <= _decode_cost(model, 15, snr_margin=3.0) <= 550

    def test_low_snr_margin_costs_more(self, model):
        assert _decode_cost(model, 8, snr_margin=0.0) > \
            _decode_cost(model, 8, snr_margin=8.0)

    def test_snr_effect_saturates(self, model):
        assert _decode_cost(model, 8, snr_margin=8.0) == \
            _decode_cost(model, 8, snr_margin=20.0)

    def test_low_code_rate_costs_more(self, model):
        assert _decode_cost(model, 8, code_rate=0.2) > \
            _decode_cost(model, 8, code_rate=0.9)


class TestCorePenalty:
    def test_single_core_no_penalty(self, model):
        assert model.core_penalty(TaskType.LDPC_DECODE, 1) == 0.0

    def test_penalty_caps_at_25_percent(self, model):
        assert model.core_penalty(TaskType.LDPC_DECODE, 6) == \
            pytest.approx(0.25)
        assert model.core_penalty(TaskType.LDPC_DECODE, 48) == \
            pytest.approx(0.25)

    def test_penalty_monotone_in_cores(self, model):
        penalties = [model.core_penalty(TaskType.LDPC_DECODE, n)
                     for n in range(1, 8)]
        assert all(b >= a for a, b in zip(penalties, penalties[1:]))

    def test_compute_bound_tasks_unaffected(self, model):
        assert model.core_penalty(TaskType.FFT, 6) == 0.0
        assert model.core_penalty(TaskType.MODULATION, 6) == 0.0

    def test_memory_stalls_grow_with_spread(self, model):
        single = model.memory_stalls_per_cycle(8, 1)
        spread = model.memory_stalls_per_cycle(8, 6)
        assert spread > 2 * single


def _runtimes(model, task, n, seed=0, **kwargs):
    """``n`` runtimes of ``task``, each with its ``stoch_mult`` drawn as
    :meth:`DagBuilder.draw_window` does: raw variates through
    :meth:`CostModel.stoch_multipliers`."""
    rng = np.random.default_rng(seed)
    tail_u, jitter_u = rng.random((2, n))
    decode = np.full(n, task.task_type is TaskType.LDPC_DECODE)
    mults = model.stoch_multipliers(rng.standard_normal(n), tail_u,
                                    jitter_u, decode)
    runtimes = []
    for mult in mults.tolist():
        task.stoch_mult = mult
        runtimes.append(model.sample_runtime(task, **kwargs))
    return runtimes


class TestStochMultipliers:
    def test_noise_only_off_decode_rows(self, model):
        normal = np.array([0.0, 1.0, -1.0])
        mults = model.stoch_multipliers(normal, np.ones(3), np.zeros(3),
                                        np.zeros(3, dtype=bool))
        assert mults.tolist() == np.exp(normal * model.noise_sigma).tolist()

    def test_isolated_tail_triggers_below_probability(self, model):
        tail_u = np.array([0.0, model.isolated_tail_prob])
        mults = model.stoch_multipliers(np.zeros(2), tail_u, np.zeros(2),
                                        np.zeros(2, dtype=bool))
        assert mults.tolist() == [model.isolated_tail_scale, 1.0]

    def test_decode_jitter_is_inverse_cdf_exponential(self, model):
        jitter_u = np.array([0.5, 0.5])
        mults = model.stoch_multipliers(np.zeros(2), np.ones(2), jitter_u,
                                        np.array([True, False]))
        assert mults[0] == pytest.approx(
            1.0 + model.decode_iteration_jitter * np.log(2.0))
        assert mults[1] == 1.0


class TestSampling:
    def _task(self, model, cbs=8):
        base = _decode_cost(model, cbs)
        return TaskInstance(
            task_id=0, task_type=TaskType.LDPC_DECODE, cell_name="c",
            features=np.zeros(16), base_cost_us=base,
        )

    def test_runtime_near_base_in_isolation(self, model):
        task = self._task(model)
        samples = _runtimes(model, task, 2000)
        assert np.median(samples) == pytest.approx(task.base_cost_us,
                                                   rel=0.05)

    def test_interference_multiplier_applies(self, model):
        task = self._task(model)
        inflated = _runtimes(model, task, 500, seed=1,
                             interference_multiplier=1.5)
        assert np.median(inflated) == pytest.approx(1.5 * task.base_cost_us,
                                                    rel=0.1)

    def test_tail_multiplier_applies(self, model):
        task = self._task(model)
        sample, = _runtimes(model, task, 1, seed=2, tail_multiplier=3.0)
        assert sample > 2.0 * task.base_cost_us

    def test_multicore_samples_slower(self, model):
        task = self._task(model)
        single = np.median(_runtimes(model, task, 500, seed=3,
                                     active_cores=1))
        six = np.median(_runtimes(model, task, 500, seed=4,
                                  active_cores=6))
        assert six == pytest.approx(1.25 * single, rel=0.08)

    def test_runtime_strictly_positive(self, model):
        task = self._task(model, cbs=0)
        task.base_cost_us = 0.0
        sample, = _runtimes(model, task, 1, seed=5)
        assert sample > 0.0


class TestTaskInstance:
    def test_deadline_requires_dag(self, model):
        task = TaskInstance(task_id=0, task_type=TaskType.FFT,
                            cell_name="c", features=np.zeros(16),
                            base_cost_us=1.0)
        with pytest.raises(ValueError):
            __ = task.deadline_us

    def test_feature_lookup_by_name(self):
        features = np.arange(16, dtype=float)
        task = TaskInstance(task_id=0, task_type=TaskType.FFT,
                            cell_name="c", features=features,
                            base_cost_us=1.0)
        assert task.feature("num_ues") == 0.0
        assert task.feature("task_codeblocks") == 10.0


@given(st.sampled_from(list(TaskType)),
       st.integers(min_value=0, max_value=60),
       st.floats(min_value=0, max_value=200_000, allow_nan=False))
@settings(max_examples=200)
def test_base_cost_always_positive(task_type, cbs, slot_bytes):
    model = CostModel()
    cost = model.base_cost_us(
        task_type, prbs=106, antennas=2, total_layers=2,
        slot_bytes=slot_bytes, slot_codeblocks=cbs, task_codeblocks=cbs,
        task_bytes=slot_bytes, snr_margin_db=5.0, code_rate=0.6,
    )
    assert cost > 0.0
    assert np.isfinite(cost)
