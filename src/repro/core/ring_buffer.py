"""Fixed-capacity ring buffer of runtime samples with max tracking.

The regression baselines keep their online residuals in one, and the
EVT baseline its online samples.  The quantile tree's leaf buffers
(Algorithm 2 of the paper) follow the same push/max semantics as rows
of one :class:`repro.core.quantile_tree.LeafBank`, which the tests
check against this class.

The buffer is implemented over a preallocated NumPy array.  ``max()`` is
cached and recomputed lazily only when the previous maximum is evicted,
so the amortized cost of the push/max cycle stays O(1) — matching the
paper's requirement that the online predictor runs every TTI.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RingBuffer"]


class RingBuffer:
    """Ring buffer of floats with O(1) amortized push and max queries."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._data = np.empty(capacity, dtype=np.float64)
        self._capacity = capacity
        self._size = 0
        self._head = 0  # next write position
        self._max: float | None = None

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size == self._capacity

    def push(self, value: float) -> None:
        """Append ``value``, evicting the oldest sample when full.

        NaN is rejected: a stored NaN would silently poison the cached
        maximum (every comparison against NaN is False, so it neither
        becomes the max nor triggers the eviction recompute correctly).
        """
        if value != value:  # NaN check without importing math
            raise ValueError("cannot push NaN into a ring buffer")
        evicting = self._size == self._capacity
        evicted = self._data[self._head] if evicting else None
        self._data[self._head] = value
        self._head = (self._head + 1) % self._capacity
        if not evicting:
            self._size += 1
        if self._max is None or value >= self._max:
            self._max = float(value)
        elif evicting and evicted == self._max:
            # The previous maximum may have been evicted; recompute.
            self._max = float(self._data[: self._size].max())

    def extend(self, values) -> None:
        """Push each value in ``values`` in order."""
        for value in values:
            self.push(float(value))

    def max(self) -> float:
        """Largest stored sample.  Raises ValueError when empty."""
        if self._size == 0:
            raise ValueError("max() of empty ring buffer")
        assert self._max is not None
        return self._max

    def quantile(self, q: float) -> float:
        """q-quantile of the stored samples (linear interpolation)."""
        if self._size == 0:
            raise ValueError("quantile() of empty ring buffer")
        return float(np.quantile(self.values(), q))

    def values(self) -> np.ndarray:
        """Stored samples in insertion order (copy)."""
        if self._size < self._capacity:
            return self._data[: self._size].copy()
        return np.concatenate(
            (self._data[self._head:], self._data[: self._head])
        )

    def clear(self) -> None:
        self._size = 0
        self._head = 0
        self._max = None

    def replace(self, values) -> None:
        """Reset the buffer contents to the trailing window of ``values``.

        Used when switching from offline to online samples: the paper
        replaces the offline samples in each leaf with online ones.
        """
        self.clear()
        self.extend(values)
