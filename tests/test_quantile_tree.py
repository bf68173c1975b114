"""Tests for the quantile decision tree (the paper's Algorithms 1-2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantile_tree import QuantileDecisionTree, TreeConfig


def _piecewise_dataset(n=3000, seed=0):
    """Runtime depends on feature 0 (strongly) and feature 1 (weakly)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 3))
    y = 10.0 * np.floor(X[:, 0]) + 2.0 * (X[:, 1] > 5) + rng.normal(0, 0.3, n)
    return X, y


class TestFitting:
    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            QuantileDecisionTree().fit(np.empty((0, 2)), np.empty(0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            QuantileDecisionTree().fit(np.zeros((5, 2)), np.zeros(4))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TreeConfig(max_depth=0)
        with pytest.raises(ValueError):
            TreeConfig(min_samples_leaf=0)
        with pytest.raises(ValueError):
            TreeConfig(leaf_buffer_capacity=0)

    def test_constant_target_yields_single_leaf(self):
        X = np.random.default_rng(1).uniform(size=(500, 4))
        tree = QuantileDecisionTree().fit(X, np.full(500, 7.0))
        assert tree.num_leaves == 1
        assert tree.predict_wcet(X[0]) == 7.0

    def test_splits_reduce_leaf_variance(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree(TreeConfig(max_depth=8,
                                               min_samples_leaf=30)).fit(X, y)
        assert tree.num_leaves > 4
        leaves = tree.leaf_indices(X)
        total_var = y.var()
        within = sum(
            y[leaves == leaf].var() * (leaves == leaf).sum()
            for leaf in range(tree.num_leaves)
        ) / len(y)
        assert within < 0.15 * total_var

    def test_max_depth_bounds_leaves(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree(TreeConfig(max_depth=2)).fit(X, y)
        assert tree.num_leaves <= 4

    def test_min_samples_leaf_respected(self):
        X, y = _piecewise_dataset(n=1000)
        min_leaf = 50
        tree = QuantileDecisionTree(
            TreeConfig(min_samples_leaf=min_leaf)
        ).fit(X, y)
        leaves = tree.leaf_indices(X)
        for leaf in range(tree.num_leaves):
            assert (leaves == leaf).sum() >= min_leaf


class TestPrediction:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            QuantileDecisionTree().leaf_index(np.zeros(3))

    def test_wcet_is_leaf_maximum(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree().fit(X, y)
        leaves = tree.leaf_indices(X)
        x = X[0]
        leaf = tree.leaf_index(x)
        # The fitted buffers hold the (trailing window of) offline
        # samples in that leaf; the WCET is their maximum.
        expected = tree.leaves[leaf].max()
        assert tree.predict_wcet(x) == expected
        assert expected >= np.median(y[leaves == leaf])

    def test_wcet_covers_most_runtimes(self):
        X, y = _piecewise_dataset(seed=3)
        tree = QuantileDecisionTree().fit(X, y)
        predictions = np.array([tree.predict_wcet(x) for x in X[:500]])
        assert (predictions >= y[:500]).mean() > 0.97

    def test_predict_quantile_monotone(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree().fit(X, y)
        x = X[10]
        assert tree.predict_quantile(x, 0.5) <= tree.predict_quantile(x, 0.99)


class TestOnlinePhase:
    def test_observe_updates_leaf(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree().fit(X, y)
        x = X[0]
        before = tree.predict_wcet(x)
        tree.observe(x, before + 100.0)
        assert tree.predict_wcet(x) == before + 100.0

    def test_observe_only_affects_routed_leaf(self):
        X, y = _piecewise_dataset()
        tree = QuantileDecisionTree().fit(X, y)
        assert tree.num_leaves >= 2
        x0 = X[0]
        leaf0 = tree.leaf_index(x0)
        other = next(x for x in X if tree.leaf_index(x) != leaf0)
        before_other = tree.predict_wcet(other)
        tree.observe(x0, 1e6)
        assert tree.predict_wcet(other) == before_other

    def test_online_samples_displace_offline(self):
        """The paper replaces offline leaf samples with online ones."""
        X, y = _piecewise_dataset(n=600)
        config = TreeConfig(leaf_buffer_capacity=8, min_samples_leaf=50)
        tree = QuantileDecisionTree(config).fit(X, y)
        x = X[0]
        for _ in range(8):
            tree.observe(x, 1.0)
        assert tree.predict_wcet(x) == 1.0

    def test_reset_online_empties_buffers(self):
        X, y = _piecewise_dataset(n=600)
        tree = QuantileDecisionTree().fit(X, y)
        tree.reset_online()
        with pytest.raises(ValueError):
            tree.predict_wcet(X[0])
        tree.observe(X[0], 42.0)
        assert tree.predict_wcet(X[0]) == 42.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_partition_property(seed):
    """Every input routes to exactly one leaf and routing is stable."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, size=(400, 3))
    y = X[:, 0] ** 2 + rng.normal(0, 0.1, 400)
    tree = QuantileDecisionTree(TreeConfig(min_samples_leaf=20)).fit(X, y)
    probes = rng.uniform(-10, 10, size=(50, 3))
    first = [tree.leaf_index(p) for p in probes]
    second = [tree.leaf_index(p) for p in probes]
    assert first == second
    assert all(0 <= leaf < tree.num_leaves for leaf in first)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_leaf_indices_matches_scalar_walk(seed, max_depth, min_leaf):
    """The level-by-level batch routing equals the per-row walk,
    including rows that sit exactly on a split threshold."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 600))
    X = np.column_stack([rng.uniform(-5, 5, n),
                         rng.integers(0, 4, n).astype(float),
                         rng.normal(size=n)])
    y = X[:, 0] ** 2 + 3.0 * X[:, 1] + rng.normal(0, 0.2, n)
    tree = QuantileDecisionTree(TreeConfig(
        max_depth=max_depth, min_samples_leaf=min_leaf)).fit(X, y)
    on_threshold = X[:20].copy()
    for node, feature in enumerate(tree._feature):
        if tree._leaf_id[node] < 0:
            on_threshold[node % len(on_threshold), feature] = \
                tree._threshold[node]
    probes = np.vstack([X, rng.uniform(-10, 10, size=(50, 3)),
                        on_threshold])
    batch = tree.leaf_indices(probes)
    assert batch.dtype == np.int64
    assert batch.tolist() == [tree.leaf_index(row) for row in probes]
    assert tree.leaf_indices(np.empty((0, 3))).tolist() == []


def test_leaf_indices_unfitted_raises():
    with pytest.raises(RuntimeError):
        QuantileDecisionTree().leaf_indices(np.zeros((2, 3)))
