"""Tests for the quantile decision tree (the paper's Algorithms 1-2)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantile_tree import (LeafBank, QuantileDecisionTree,
                                     QuantileForest, TreeConfig)
from repro.core.ring_buffer import RingBuffer


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
        expected = tree.leaf_max(leaf)
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


@pytest.mark.parametrize("constant", [True, False])
def test_leaf_indices_matches_scalar_walk_on_shallow_trees(constant):
    """A single-leaf tree and a one-split stump route every row, the
    stump's threshold rows included, exactly like the scalar walk."""
    X, y = _piecewise_dataset(n=800, seed=3)
    if constant:
        y = np.full(len(y), 7.0)
    tree = QuantileDecisionTree(TreeConfig(max_depth=1)).fit(X, y)
    assert tree.num_leaves == (1 if constant else 2)
    probes = X.copy()
    if not constant:
        feature, threshold = tree._feature[0], tree._threshold[0]
        probes[:10, feature] = threshold
        probes[10:20, feature] = np.nextafter(threshold, np.inf)
    batch = tree.leaf_indices(probes)
    assert batch.tolist() == [tree.leaf_index(row) for row in probes]
    if not constant:
        assert set(batch[:10].tolist()) != set(batch[10:20].tolist())


def _assert_bank_matches(bank, refs):
    """Every row of ``bank`` holds its reference buffer's window, and
    its ``leaf_max`` is that window's max (the fallback while empty)."""
    for row, ref in enumerate(refs):
        assert bank.values(row).tolist() == ref.values().tolist()
        expected = ref.max() if len(ref) else bank.empty_max[row]
        assert bank.leaf_max[row] == expected


@pytest.mark.parametrize("capacity", [*range(1, 9), 5000])
@pytest.mark.parametrize("seed", range(3))
def test_fold_matches_ring_buffer_reference(capacity, seed):
    """Random completion sequences folded (and pushed) into the bank
    give exactly the per-leaf ring buffers' windows and maxima."""
    rng = np.random.default_rng(1000 * seed + capacity)
    rows = 3 if capacity > 100 else 6
    bank = LeafBank(rows, capacity, empty_max=-1.0)
    refs = [RingBuffer(capacity) for _ in range(rows)]
    pending = []
    seen = {"long batch": False, "max evicted": False, "fallback": False}

    def flush():
        before = [ref.max() if len(ref) else None for ref in refs]
        bank.fold([row for row, _ in pending], [v for _, v in pending])
        counts = np.bincount([row for row, _ in pending], minlength=rows)
        seen["long batch"] |= bool((counts > capacity).any())
        for row, value in pending:
            refs[row].push(value)
        for row, ref in enumerate(refs):
            if before[row] is not None and ref.max() < before[row]:
                seen["max evicted"] = True
        pending.clear()
        _assert_bank_matches(bank, refs)

    for _ in range(60):
        action = rng.random()
        if action < 0.6:
            # Small integer runtimes tie often; rare spikes become a
            # row's maximum until a later sample evicts them.
            n = int(rng.integers(1, 4 * capacity + 2)) if capacity < 100 \
                else int(rng.integers(1, 3000))
            if rng.random() < 0.2:
                batch_rows = np.full(n, rng.integers(rows))
            else:
                batch_rows = rng.integers(0, rows, n)
            values = rng.integers(0, 12, n).astype(float)
            spikes = rng.random(n) < 0.02
            values[spikes] += 100.0
            pending.extend(zip(batch_rows.tolist(), values.tolist()))
        elif action < 0.85:
            flush()
        elif action < 0.95:
            flush()
            row, value = int(rng.integers(rows)), float(rng.integers(0, 12))
            bank.push(row, value)
            refs[row].push(value)
            _assert_bank_matches(bank, refs)
        else:
            flush()
            bank.clear(0, rows)
            for ref in refs:
                ref.clear()
            _assert_bank_matches(bank, refs)
            seen["fallback"] = True
            assert (bank.leaf_max == -1.0).all()
    if capacity > 100:
        # Fill past the capacity, from one spike down, in two long
        # batches into one row: the second evicts the spike.
        pending.extend([(0, 500.0)] + [(0, 1.0)] * capacity)
        flush()
        pending.extend([(0, 2.0)] * (capacity + 10))
        flush()
    flush()
    bank.clear(0, rows)
    for ref in refs:
        ref.clear()
    _assert_bank_matches(bank, refs)
    assert seen["long batch"] and seen["max evicted"]


def test_bank_rejects_nan():
    bank = LeafBank(2, 4)
    with pytest.raises(ValueError):
        bank.push(0, float("nan"))
    with pytest.raises(ValueError):
        bank.fold([1, 0], [1.0, float("nan")])
    assert bank.size.tolist() == [0, 0]


def test_forest_routes_like_each_tree():
    """One descent over the merged node array gives every row its own
    tree's leaf, offset to the tree's rows of the shared bank, which
    holds each tree's buffered samples: the offline ones of a tree that
    had no bank yet, the current ones of a tree that had its own."""
    rng = np.random.default_rng(4)
    trees, members = [], []
    for code, (max_depth, column) in enumerate([(3, 0), (6, 2), (1, 1)]):
        X = rng.uniform(0, 10, size=(600, 2))
        y = 10.0 * np.floor(X[:, 0]) + X[:, 1] ** 2
        tree = QuantileDecisionTree(TreeConfig(max_depth=max_depth,
                                               min_samples_leaf=20))
        tree.fit(X, y)
        selected = [column, 3]
        if code == 1:
            tree.observe(X[0], 1e3)
        else:
            assert tree._bank is None
        # A copy reads the samples without giving the tree a bank.
        snapshot = copy.deepcopy(tree)
        trees.append((tree, selected, [snapshot.leaf_values(leaf).tolist()
                                       for leaf in range(tree.num_leaves)]))
        members.append((2 * code, tree, selected, -1.0))
    forest = QuantileForest(members, num_codes=7)
    codes = rng.integers(0, 7, 500)
    feats = rng.uniform(-1, 11, size=(500, 4))
    expected = []
    for code, row in zip(codes, feats):
        if code % 2 or code > 4:
            expected.append(-1)
            continue
        tree, selected, _ = trees[code // 2]
        expected.append(tree.leaf_base + tree.leaf_index(row[selected]))
    assert forest.route(codes, feats).tolist() == expected
    for tree, _, values in trees:
        assert tree.bank is forest.bank
        assert [tree.leaf_values(leaf).tolist()
                for leaf in range(tree.num_leaves)] == values
