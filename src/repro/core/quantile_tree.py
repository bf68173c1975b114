"""Quantile decision tree for parameterized WCET prediction (paper §4.2).

A CART-style regression tree is grown offline on (features, runtime)
samples collected with the vRAN in isolation, splitting to minimize the
within-leaf variance of runtimes.  Each leaf owns a ring buffer of the
most recent runtime samples; the online phase replaces offline samples
with ones observed under collocation without re-growing the tree
(Algorithms 1 and 2):

* ``observe(x, runtime)`` — training step: route to a leaf, push the
  sample into its buffer;
* ``predict_wcet(x)`` — prediction step: route to a leaf, return the
  maximum of its buffered samples.

The implementation is from scratch on NumPy (the paper used
scikit-learn offline plus generated C online; neither is needed here).
Internal nodes are stored in flat arrays.  ``leaf_index`` walks them
for one feature vector; ``leaf_indices`` descends a whole matrix of
rows one tree level per pass, with the same ``<=`` comparison.  The
simulator uses the batch form: the tree is frozen once fitted, so
:meth:`repro.core.predictor.ConcordiaPredictor.route` routes every
task of a DAG build batch at once, and the per-TTI steps (Fig. 15a)
touch only the routed leaf's buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ring_buffer import RingBuffer

__all__ = ["QuantileDecisionTree", "TreeConfig"]


@dataclass(frozen=True)
class TreeConfig:
    """Growth hyperparameters of the quantile decision tree."""

    max_depth: int = 8
    min_samples_leaf: int = 40
    min_variance_reduction: float = 1e-3  # relative to parent variance
    max_thresholds_per_feature: int = 32
    leaf_buffer_capacity: int = 5000

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.leaf_buffer_capacity < 1:
            raise ValueError("leaf_buffer_capacity must be >= 1")


class _BuildNode:
    """Temporary node used while growing the tree."""

    __slots__ = ("feature", "threshold", "left", "right", "samples")

    def __init__(self) -> None:
        self.feature: int = -1
        self.threshold: float = 0.0
        self.left: Optional["_BuildNode"] = None
        self.right: Optional["_BuildNode"] = None
        self.samples: Optional[np.ndarray] = None  # leaf runtimes


def _best_split(
    X: np.ndarray, y: np.ndarray, config: TreeConfig
) -> Optional[tuple[int, float, float]]:
    """Find the (feature, threshold) minimizing weighted child variance.

    Returns (feature, threshold, variance_reduction) or None when no
    admissible split improves on the parent's variance.
    """
    n = len(y)
    parent_var = float(y.var())
    if parent_var <= 0 or n < 2 * config.min_samples_leaf:
        return None
    best: Optional[tuple[int, float, float]] = None
    best_score = parent_var
    for feature in range(X.shape[1]):
        column = X[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_x = column[order]
        sorted_y = y[order]
        # Cumulative sums give O(1) variance of each prefix/suffix.
        csum = np.cumsum(sorted_y)
        csum2 = np.cumsum(sorted_y**2)
        total, total2 = csum[-1], csum2[-1]
        # Candidate split positions: between distinct feature values,
        # respecting min_samples_leaf; subsampled for speed.
        lo, hi = config.min_samples_leaf, n - config.min_samples_leaf
        if lo >= hi:
            continue
        positions = np.arange(lo, hi)
        valid = sorted_x[positions] < sorted_x[positions + 1] - 1e-12
        positions = positions[valid]
        if len(positions) == 0:
            continue
        if len(positions) > config.max_thresholds_per_feature:
            idx = np.linspace(0, len(positions) - 1,
                              config.max_thresholds_per_feature).astype(int)
            positions = positions[idx]
        k = positions + 1  # left child sizes
        left_var = csum2[positions] / k - (csum[positions] / k) ** 2
        right_n = n - k
        right_sum = total - csum[positions]
        right_sum2 = total2 - csum2[positions]
        right_var = right_sum2 / right_n - (right_sum / right_n) ** 2
        weighted = (k * left_var + right_n * right_var) / n
        i = int(np.argmin(weighted))
        score = float(weighted[i])
        if score < best_score - config.min_variance_reduction * parent_var:
            best_score = score
            pos = positions[i]
            threshold = 0.5 * (sorted_x[pos] + sorted_x[pos + 1])
            best = (feature, float(threshold), parent_var - score)
    return best


class QuantileDecisionTree:
    """Variance-minimizing CART with per-leaf runtime ring buffers."""

    def __init__(self, config: Optional[TreeConfig] = None) -> None:
        self.config = config if config is not None else TreeConfig()
        # Flat-array representation filled by fit().
        self._feature: np.ndarray = np.empty(0, dtype=np.int32)
        self._threshold: np.ndarray = np.empty(0, dtype=np.float64)
        self._left: np.ndarray = np.empty(0, dtype=np.int32)
        self._right: np.ndarray = np.empty(0, dtype=np.int32)
        self._leaf_id: np.ndarray = np.empty(0, dtype=np.int32)
        self.leaves: list[RingBuffer] = []
        self._fitted = False

    # -- offline phase -------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "QuantileDecisionTree":
        """Grow the tree on offline (isolated-vRAN) samples."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise ValueError("X must be (n, d) and y (n,) with matching n")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        root = self._grow(X, y, depth=0)
        self._flatten(root)
        self._fitted = True
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _BuildNode:
        node = _BuildNode()
        split = None
        if depth < self.config.max_depth:
            split = _best_split(X, y, self.config)
        if split is None:
            node.samples = y
            return node
        feature, threshold, _ = split
        node.feature = feature
        node.threshold = threshold
        mask = X[:, feature] <= threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _flatten(self, root: _BuildNode) -> None:
        features, thresholds, lefts, rights, leaf_ids = [], [], [], [], []
        self.leaves = []

        def visit(node: _BuildNode) -> int:
            index = len(features)
            features.append(node.feature)
            thresholds.append(node.threshold)
            lefts.append(-1)
            rights.append(-1)
            leaf_ids.append(-1)
            if node.samples is not None:
                buffer = RingBuffer(self.config.leaf_buffer_capacity)
                buffer.extend(node.samples[-self.config.leaf_buffer_capacity:])
                leaf_ids[index] = len(self.leaves)
                self.leaves.append(buffer)
            else:
                lefts[index] = visit(node.left)
                rights[index] = visit(node.right)
            return index

        visit(root)
        self._feature = np.asarray(features, dtype=np.int32)
        self._threshold = np.asarray(thresholds, dtype=np.float64)
        self._left = np.asarray(lefts, dtype=np.int32)
        self._right = np.asarray(rights, dtype=np.int32)
        self._leaf_id = np.asarray(leaf_ids, dtype=np.int32)

    # -- routing ---------------------------------------------------------------

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    def leaf_index(self, x) -> int:
        """Index of the leaf that the feature vector ``x`` routes to."""
        if not self._fitted:
            raise RuntimeError("tree is not fitted")
        node = 0
        leaf_id = self._leaf_id
        feature = self._feature
        threshold = self._threshold
        left, right = self._left, self._right
        while leaf_id[node] < 0:
            node = left[node] if x[feature[node]] <= threshold[node] \
                else right[node]
        return int(leaf_id[node])

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """:meth:`leaf_index` for every row of ``X`` at once.

        All rows descend together, one tree level per pass, with the
        same ``<=`` comparison as the scalar walk.
        """
        if not self._fitted:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X)
        node = np.zeros(len(X), dtype=np.int64)
        active = np.arange(len(X))
        while len(active):
            current = node[active]
            internal = self._leaf_id[current] < 0
            active, current = active[internal], current[internal]
            go_left = (X[active, self._feature[current]]
                       <= self._threshold[current])
            node[active] = np.where(go_left, self._left[current],
                                    self._right[current])
        return self._leaf_id[node].astype(np.int64)

    # -- online phase ----------------------------------------------------------

    def observe(self, x, runtime: float) -> int:
        """Online training step: store an observed runtime; returns leaf."""
        leaf = self.leaf_index(x)
        self.leaves[leaf].push(float(runtime))
        return leaf

    def predict_wcet(self, x) -> float:
        """WCET prediction: maximum runtime buffered in the routed leaf."""
        leaf = self.leaf_index(x)
        return self.leaves[leaf].max()

    def predict_quantile(self, x, q: float) -> float:
        leaf = self.leaf_index(x)
        return self.leaves[leaf].quantile(q)

    def reset_online(self) -> None:
        """Drop all buffered samples (start of a fresh online phase)."""
        for leaf in self.leaves:
            leaf.clear()
