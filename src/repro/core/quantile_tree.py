"""Quantile decision tree for parameterized WCET prediction (paper §4.2).

A CART-style regression tree is grown offline on (features, runtime)
samples collected with the vRAN in isolation, splitting to minimize the
within-leaf variance of runtimes.  Each leaf keeps a ring buffer of the
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
rows one tree level per pass, with the same ``<=`` comparison.

The leaf buffers are rows of a :class:`LeafBank`, one sample matrix
with per-row head, size and maximum arrays.  A standalone tree makes a
bank of its own leaves on first use; :class:`QuantileForest` instead
merges several fitted trees: it flattens their nodes into one node
array over the full feature row, numbers their leaves globally and
loads every tree's offline samples straight into one shared bank.  The
simulator routes a whole DAG build batch in one descent
(:meth:`repro.core.predictor.ConcordiaPredictor.route`); the per-TTI
steps (Fig. 15a) are then a leaf-max read per task and one fold of the
completed tasks' runtimes per slot.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["LeafBank", "QuantileDecisionTree", "QuantileForest",
           "TreeConfig"]


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


def _sample_matrix(rows: int, capacity: int) -> np.ndarray:
    """An uninitialized ``(rows, capacity)`` float64 matrix whose pages
    become resident only as they are written.

    numpy asks for transparent huge pages on arrays of 4 MiB and more,
    so one sample in each of a mostly empty bank's rows would make all
    of it resident, 2 MiB at a time.  A private anonymous mapping
    without huge pages costs only the pages the samples touch.
    """
    count = rows * capacity
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty((rows, capacity), dtype=np.float64)
    buffer = mmap.mmap(-1, max(8 * count, 1), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype=np.float64,
                         count=count).reshape(rows, capacity)


class LeafBank:
    """The runtime ring buffer of every leaf, as one sample matrix.

    Row ``r`` is one leaf's buffer: ``samples[r]`` holds its last
    ``size[r]`` samples (at most ``capacity``) and ``head[r]`` is its
    next write position.  ``leaf_max[r]`` is the maximum of the stored
    samples, or ``empty_max[r]`` while the row is empty (NaN unless the
    bank was made with a fallback).  The maximum is kept incrementally:
    a row is rescanned only when a push evicts its current maximum, so
    the push/max cycle stays O(1) amortized, as the paper's online
    predictor requires.

    :meth:`fold` pushes a batch of ``(row, sample)`` pairs in order,
    with a fixed number of array operations for the whole batch; each
    row then holds exactly the last ``capacity`` samples pushed into
    it.  :meth:`push` is the same step for one sample, in scalar code:
    for one pair the fold's ~40 array calls cost some 30 times as
    much, and the per-task paths (an unrouted task, the leaf-EVT
    ablation's model) push one sample at a time.  NaN is rejected: a
    stored NaN would poison the maximum.
    """

    def __init__(self, rows: int, capacity: int,
                 empty_max=np.nan) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.samples = _sample_matrix(rows, capacity)
        self.head = np.zeros(rows, dtype=np.int64)
        self.size = np.zeros(rows, dtype=np.int64)
        self.empty_max = np.broadcast_to(
            np.asarray(empty_max, dtype=np.float64), (rows,)).copy()
        self.leaf_max = self.empty_max.copy()

    def __getstate__(self) -> dict:
        # Only the stored samples travel (deepcopy and pickle alike):
        # each row's are its first ``size`` entries, full or not.
        state = self.__dict__.copy()
        sizes = enumerate(self.size.tolist())
        state["samples"] = np.concatenate(
            [self.samples[row, :n] for row, n in sizes] + [np.empty(0)])
        return state

    def __setstate__(self, state: dict) -> None:
        stored = state.pop("samples")
        self.__dict__.update(state)
        self.samples = _sample_matrix(len(self.size), self.capacity)
        offsets = np.concatenate(([0], np.cumsum(self.size)))
        for row, n in enumerate(self.size.tolist()):
            self.samples[row, :n] = stored[offsets[row]:offsets[row + 1]]

    def push(self, row: int, value: float) -> None:
        """:meth:`fold` of the one pair ``(row, value)``."""
        value = float(value)
        if value != value:
            raise ValueError("cannot push NaN into a leaf buffer")
        capacity = self.capacity
        size = int(self.size[row])
        head = int(self.head[row])
        samples = self.samples[row]
        evicted = samples[head]
        samples[head] = value
        self.head[row] = head + 1 if head + 1 < capacity else 0
        current = self.leaf_max[row]
        if size < capacity:
            self.size[row] = size + 1
        if size == 0 or value >= current:
            self.leaf_max[row] = value
        elif size == capacity and evicted == current:
            self.leaf_max[row] = samples.max()

    def fold(self, rows, values) -> None:
        """Append every ``values[i]`` to row ``rows[i]``, in order, each
        push into a full row evicting that row's oldest sample."""
        rows = np.asarray(rows, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        n = len(rows)
        if n == 0:
            return
        if np.isnan(values).any():
            raise ValueError("cannot push NaN into a leaf buffer")
        capacity = self.capacity
        # Group by row, keeping each row's samples in push order.
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        values = values[order]
        first = np.flatnonzero(np.concatenate(([True],
                                               rows[1:] != rows[:-1])))
        touched = rows[first]
        counts = np.diff(np.append(first, n))
        group = np.repeat(np.arange(len(first)), counts)
        rank = np.arange(n) - first[group]
        head = self.head[touched]
        size = self.size[touched]
        old_max = self.leaf_max[touched]
        position = (head[group] + rank) % capacity
        # Only the last ``capacity`` samples of a row survive the batch.
        kept = rank >= (counts - capacity)[group]
        batch_max = np.maximum.reduceat(np.where(kept, values, -np.inf),
                                        first)
        # The k-th push into a row of s samples evicts an older sample
        # iff s + k >= capacity; read what it evicts before writing.
        evicts_max = ((rank >= (capacity - size)[group])
                      & (self.samples[rows, position] == old_max[group]))
        partial = counts < capacity
        stale = np.logical_or.reduceat(evicts_max, first) & partial
        self.samples[rows[kept], position[kept]] = values[kept]
        self.head[touched] = (head + counts) % capacity
        self.size[touched] = np.minimum(size + counts, capacity)
        # Old samples survive in a row that was not empty and got fewer
        # than ``capacity`` new ones; their maximum is the old one
        # unless it was evicted, and a row that evicted it is full:
        # rescan all of it.
        self.leaf_max[touched] = np.where(
            (size > 0) & partial, np.maximum(batch_max, old_max), batch_max)
        for row in touched[stale].tolist():
            self.leaf_max[row] = self.samples[row].max()

    def load(self, row: int, values) -> None:
        """Fill an empty ``row`` with the trailing window of ``values``."""
        values = np.asarray(values, dtype=np.float64)[-self.capacity:]
        if np.isnan(values).any():
            raise ValueError("cannot push NaN into a leaf buffer")
        n = len(values)
        self.samples[row, :n] = values
        self.head[row] = n % self.capacity
        self.size[row] = n
        self.leaf_max[row] = values.max() if n else self.empty_max[row]

    def max(self, row: int) -> float:
        """Largest sample stored in ``row``.  Raises ValueError when empty."""
        if self.size[row] == 0:
            raise ValueError("max() of an empty leaf buffer")
        return float(self.leaf_max[row])

    def values(self, row: int) -> np.ndarray:
        """Samples stored in ``row``, oldest first (copy)."""
        size = int(self.size[row])
        samples = self.samples[row]
        if size < self.capacity:
            return samples[:size].copy()
        head = int(self.head[row])
        return np.concatenate((samples[head:], samples[:head]))

    def clear(self, start: int, stop: int) -> None:
        """Empty rows ``start`` to ``stop`` (exclusive)."""
        self.size[start:stop] = 0
        self.head[start:stop] = 0
        self.leaf_max[start:stop] = self.empty_max[start:stop]


class QuantileDecisionTree:
    """Variance-minimizing CART with per-leaf runtime ring buffers.

    Leaf ``l``'s buffer is row ``leaf_base + l`` of ``bank``.  A fitted
    tree keeps each leaf's trailing offline samples until a bank takes
    them: a forest's shared one (:meth:`attach`), or, on first use, a
    bank of the tree's own.
    """

    def __init__(self, config: Optional[TreeConfig] = None) -> None:
        self.config = config if config is not None else TreeConfig()
        # Flat-array representation filled by fit().
        self._feature: np.ndarray = np.empty(0, dtype=np.int32)
        self._threshold: np.ndarray = np.empty(0, dtype=np.float64)
        self._left: np.ndarray = np.empty(0, dtype=np.int32)
        self._right: np.ndarray = np.empty(0, dtype=np.int32)
        self._leaf_id: np.ndarray = np.empty(0, dtype=np.int32)
        self._bank: Optional[LeafBank] = None
        self.leaf_base = 0
        #: Each leaf's trailing offline samples while no bank holds them.
        self._offline: Optional[list] = None
        #: Edges from the root to the deepest leaf.
        self.depth = 0
        self._num_leaves = 0
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
        leaf_samples = []
        self.depth = 0

        def visit(node: _BuildNode, depth: int) -> int:
            index = len(features)
            features.append(node.feature)
            thresholds.append(node.threshold)
            lefts.append(-1)
            rights.append(-1)
            leaf_ids.append(-1)
            if node.samples is not None:
                leaf_ids[index] = len(leaf_samples)
                leaf_samples.append(node.samples)
                self.depth = max(self.depth, depth)
            else:
                lefts[index] = visit(node.left, depth + 1)
                rights[index] = visit(node.right, depth + 1)
            return index

        visit(root, 0)
        self._feature = np.asarray(features, dtype=np.int32)
        self._threshold = np.asarray(thresholds, dtype=np.float64)
        self._left = np.asarray(lefts, dtype=np.int32)
        self._right = np.asarray(rights, dtype=np.int32)
        self._leaf_id = np.asarray(leaf_ids, dtype=np.int32)
        self._num_leaves = len(leaf_samples)
        capacity = self.config.leaf_buffer_capacity
        self._offline = [samples[-capacity:] for samples in leaf_samples]
        self._bank, self.leaf_base = None, 0

    @property
    def bank(self) -> LeafBank:
        """The leaf bank holding this tree's buffers."""
        if self._bank is None:
            if self._offline is None:
                raise RuntimeError("tree is not fitted")
            self.attach(LeafBank(self._num_leaves,
                                 self.config.leaf_buffer_capacity), 0)
        return self._bank

    def attach(self, bank: LeafBank, base: int) -> None:
        """Keep the leaf buffers in rows ``base`` onwards of ``bank``.

        The rows get the offline samples of a tree no bank holds yet,
        or else the samples buffered in the tree's current bank.
        """
        if bank.capacity != self.config.leaf_buffer_capacity:
            raise ValueError("leaf bank capacity differs from the tree's")
        for leaf in range(self._num_leaves):
            bank.load(base + leaf, self._offline[leaf]
                      if self._offline is not None
                      else self.leaf_values(leaf))
        self._bank, self.leaf_base, self._offline = bank, base, None

    # -- routing ---------------------------------------------------------------

    @property
    def num_leaves(self) -> int:
        return self._num_leaves

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

    def leaf_max(self, leaf: int) -> float:
        """Largest sample buffered in ``leaf``; ValueError when empty."""
        return self.bank.max(self.leaf_base + leaf)

    def leaf_values(self, leaf: int) -> np.ndarray:
        """Samples buffered in ``leaf``, oldest first (copy)."""
        return self.bank.values(self.leaf_base + leaf)

    def observe(self, x, runtime: float) -> int:
        """Online training step: store an observed runtime; returns leaf."""
        leaf = self.leaf_index(x)
        self.bank.push(self.leaf_base + leaf, runtime)
        return leaf

    def predict_wcet(self, x) -> float:
        """WCET prediction: maximum runtime buffered in the routed leaf."""
        return self.leaf_max(self.leaf_index(x))

    def predict_quantile(self, x, q: float) -> float:
        values = self.leaf_values(self.leaf_index(x))
        if len(values) == 0:
            raise ValueError("quantile() of an empty leaf buffer")
        return float(np.quantile(values, q))

    def reset_online(self) -> None:
        """Drop all buffered samples (start of a fresh online phase)."""
        self.bank.clear(self.leaf_base, self.leaf_base + self._num_leaves)


class QuantileForest:
    """Fitted trees merged into one node array and one leaf bank.

    ``members`` lists ``(type_code, tree, selected, empty_max)``: a
    fitted tree, the type code whose rows it routes, the feature
    columns it was fitted on and what its leaves read while empty.
    Internal nodes index the full feature row through ``selected``,
    leaves are numbered globally (tree by tree, in member order) and
    each tree attaches to the shared ``bank`` at its global leaf ids,
    so the bank is the one owner of every leaf buffer.  Node 0 is
    a leaf with id -1 that every unrouted type code's root points to.
    Every leaf loops back to itself, so :meth:`route` runs a fixed
    ``depth`` passes over all rows.
    """

    def __init__(self, members: Sequence[tuple], num_codes: int) -> None:
        self.bank = LeafBank(
            sum(tree.num_leaves for _, tree, _, _ in members),
            members[0][1].config.leaf_buffer_capacity,
            np.repeat([empty for _, _, _, empty in members],
                      [tree.num_leaves for _, tree, _, _ in members]))
        self.root = np.zeros(num_codes, dtype=np.int64)
        features, thresholds = [np.zeros(1, np.int64)], [np.zeros(1)]
        lefts, rights = [np.zeros(1, np.int64)], [np.zeros(1, np.int64)]
        leaf_ids = [np.full(1, -1, np.int64)]
        self.depth = 0
        node_base, leaf_base = 1, 0
        for code, tree, selected, _ in members:
            internal = tree._leaf_id < 0
            itself = node_base + np.arange(len(internal))
            columns = np.asarray(selected, dtype=np.int64)
            features.append(np.where(
                internal, columns[np.maximum(tree._feature, 0)], 0))
            thresholds.append(tree._threshold)
            lefts.append(np.where(internal, tree._left + node_base, itself))
            rights.append(np.where(internal, tree._right + node_base, itself))
            leaf_ids.append(np.where(internal, -1, tree._leaf_id + leaf_base))
            self.root[code] = node_base
            self.depth = max(self.depth, tree.depth)
            tree.attach(self.bank, leaf_base)
            node_base += len(internal)
            leaf_base += tree.num_leaves
        self.feature = np.concatenate(features)
        self.threshold = np.concatenate(thresholds)
        self.left = np.concatenate(lefts)
        self.right = np.concatenate(rights)
        self.leaf_id = np.concatenate(leaf_ids)

    def route(self, type_codes: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Global leaf of every row, -1 where its type has no tree.

        Each row starts at its type's root and all rows descend one
        level per pass, comparing the same float64 values with the
        same ``<=`` as :meth:`QuantileDecisionTree.leaf_index` does on
        the row's selected features.
        """
        node = self.root[type_codes]
        rows = np.arange(len(node))
        for _ in range(self.depth):
            go_left = feats[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.leaf_id[node]
