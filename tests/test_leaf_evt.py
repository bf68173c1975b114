"""Tests for the per-leaf EVT predictor variant."""

import numpy as np
import pytest

from repro.core.leaf_evt import LeafEvtQuantileTree
from repro.core.models import QuantileTreeWCET


def _dataset(n=2500, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 3))
    y = 20.0 * X[:, 0] + rng.gumbel(0.0, 3.0, n)
    return X, y


class TestLeafEvt:
    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            LeafEvtQuantileTree(confidence=0.0)

    def test_prediction_covers_samples(self):
        X, y = _dataset()
        model = LeafEvtQuantileTree(confidence=0.999).fit(X, y)
        predictions = np.array([model.predict(x) for x in X[:600]])
        assert (predictions >= y[:600]).mean() > 0.99

    def test_never_below_observed_max(self):
        X, y = _dataset(seed=1)
        model = LeafEvtQuantileTree(confidence=0.9).fit(X, y)
        x = X[0]
        leaf = model.tree.leaf_index(x)
        assert model.predict(x) >= model.tree.leaf_max(leaf)

    def test_higher_confidence_more_pessimistic(self):
        X, y = _dataset(seed=2)
        low = LeafEvtQuantileTree(confidence=0.99).fit(X, y)
        high = LeafEvtQuantileTree(confidence=0.999999).fit(X, y)
        probe = X[:100]
        assert np.mean([high.predict(x) for x in probe]) >= \
            np.mean([low.predict(x) for x in probe])

    def test_online_refit_tracks_shift(self):
        X, y = _dataset(seed=3)
        model = LeafEvtQuantileTree(refit_every=50).fit(X, y)
        x = X[0]
        before = model.predict(x)
        for __ in range(200):
            model.observe(x, before * 1.5)
        assert model.predict(x) >= before * 1.4

    def test_more_expensive_than_max_rule(self):
        """The paper's conclusion: similar accuracy, more compute."""
        X, y = _dataset(seed=4)
        evt = LeafEvtQuantileTree(refit_every=25).fit(X, y)
        baseline = QuantileTreeWCET().fit(X, y)
        fits_before = evt.fits_performed
        probe = X[0]
        for runtime in y[:100]:
            evt.observe(probe, runtime)
            baseline.observe(probe, runtime)
        # The EVT variant keeps performing distribution fits online;
        # the max rule never does any.
        assert evt.fits_performed > fits_before

    def test_accuracy_comparable_to_max_rule(self):
        X, y = _dataset(seed=5)
        split = int(0.8 * len(y))
        evt = LeafEvtQuantileTree().fit(X[:split], y[:split])
        baseline = QuantileTreeWCET().fit(X[:split], y[:split])
        test_x, test_y = X[split:], y[split:]
        evt_miss = np.mean([evt.predict(x) < t
                            for x, t in zip(test_x, test_y)])
        base_miss = np.mean([baseline.predict(x) < t
                             for x, t in zip(test_x, test_y)])
        assert abs(evt_miss - base_miss) < 0.05
