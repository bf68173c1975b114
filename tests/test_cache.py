"""Tests for the cache-interference model (§2.3, Fig. 7b, Fig. 9)."""

import numpy as np
import pytest

from repro.sim.cache import (
    CacheInterferenceModel,
    l1_miss_increase,
    llc_load_increase,
)


@pytest.fixture
def model():
    return CacheInterferenceModel()


def _draw(rng):
    """One task's presampled (trigger, tail magnitude), as
    :meth:`DagBuilder.draw_window` draws them."""
    return rng.random(), 1.5 + rng.random()


class TestPressure:
    def test_clamped_to_unit_interval(self, model):
        model.set_pressure(3.0)
        assert model.pressure == 1.0
        model.set_pressure(-1.0)
        assert model.pressure == 0.0

    def test_no_pressure_no_inflation(self, model):
        model.set_pressure(0.0)
        for t in range(0, 10000, 50):
            model.record_scheduling_event(float(t))
        # Even a trigger that lands under any tail probability fires
        # no spike without pressure.
        mean, tail = model.multipliers_for(10000.0, 0.0, 2.0)
        assert mean == 1.0
        assert tail == 1.0


class TestChurn:
    def test_no_events_no_churn(self, model):
        assert model.churn_factor(1000.0) == 0.0

    def test_frequent_events_saturate(self, model):
        t = 0.0
        for _ in range(500):
            t += 50.0  # 20 events per ms
            model.record_scheduling_event(t)
        assert model.churn_factor(t) == pytest.approx(1.0)

    def test_churn_decays_when_quiet(self, model):
        t = 0.0
        for _ in range(200):
            t += 100.0
            model.record_scheduling_event(t)
        busy = model.churn_factor(t)
        quiet = model.churn_factor(t + 50_000.0)
        assert quiet < 0.1 * busy

    def test_sparse_events_low_churn(self, model):
        t = 0.0
        for _ in range(100):
            t += 2000.0  # one event every 2 ms
            model.record_scheduling_event(t)
        assert model.churn_factor(t) < 0.1


class TestStallIncrease:
    def _drive(self, model, gap_us, pressure, n=400):
        model.set_pressure(pressure)
        t = 0.0
        for _ in range(n):
            t += gap_us
            model.record_scheduling_event(t)
        return model.stall_increase(t)

    def test_fig9_shape(self):
        """High-churn (FlexRAN-like) pool gets ~25% extra stalls with
        Redis; low-churn (Concordia-like) stays near 2% (Fig. 9)."""
        flexran = self._drive(CacheInterferenceModel(), gap_us=65,
                              pressure=0.5)
        concordia = self._drive(CacheInterferenceModel(), gap_us=500,
                                pressure=0.5)
        assert 0.15 <= flexran <= 0.35
        assert concordia <= 0.05
        assert flexran > 5 * concordia

    def test_scales_with_pressure(self):
        heavy = self._drive(CacheInterferenceModel(), 100, 1.0)
        light = self._drive(CacheInterferenceModel(), 100, 0.2)
        assert heavy == pytest.approx(5 * light, rel=1e-6)


class TestMultipliers:
    def test_mean_multiplier_above_one_under_load(self, model):
        model.set_pressure(0.5)
        t = 0.0
        for _ in range(300):
            t += 80.0
            model.record_scheduling_event(t)
        mean, __ = model.multipliers_for(t, *_draw(np.random.default_rng(0)))
        assert mean > 1.0

    def test_tails_heavier_under_interference(self):
        """Fig. 7b: collocated runtime distributions get heavy tails."""
        model = CacheInterferenceModel()
        model.set_pressure(1.0)
        rng = np.random.default_rng(2)
        t = 0.0
        tails = []
        for _ in range(200_000):
            t += 50.0
            if len(tails) % 100 == 0:
                model.record_scheduling_event(t)
            __, tail = model.multipliers_for(t, *_draw(rng))
            tails.append(tail)
        tails = np.array(tails)
        spike_rate = (tails > 1.0).mean()
        assert 0.0005 < spike_rate < 0.02
        assert tails.max() <= 2.5

    def test_reporting_accumulates(self, model):
        model.set_pressure(0.4)
        rng = np.random.default_rng(0)
        t = 0.0
        for _ in range(100):
            t += 60.0
            model.record_scheduling_event(t)
            model.multipliers_for(t, *_draw(rng))
        assert model.mean_stall_increase > 0.0
        stall = model.mean_stall_increase
        assert l1_miss_increase(stall) < stall
        assert llc_load_increase(stall) < stall
