"""Alternative WCET prediction models (paper §6.3 / §6.4 comparisons).

All models share the :class:`WcetModel` interface so the experiment
harness can swap them freely:

* :class:`LinearRegressionWCET` — OLS mean model plus an online residual
  buffer (the paper's "linear regression" baseline, adapted to online
  samples "like in the quantile decision tree case");
* :class:`GradientBoostingWCET` — from-scratch gradient-boosted
  regression trees plus the same online residual scheme (the paper's
  non-linear baseline);
* :class:`PwcetEVT` — a conventional measurement-based probabilistic
  WCET estimator in the style of Cucu-Grosjean et al. (EVT over block
  maxima, Gumbel fit, one prediction per task regardless of input) used
  for the Fig. 13 comparison;
* :class:`QuantileTreeWCET` — adapter putting the Concordia quantile
  decision tree behind the same interface.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

from .quantile_tree import QuantileDecisionTree, TreeConfig
from .ring_buffer import RingBuffer

__all__ = [
    "WcetModel",
    "LinearRegressionWCET",
    "GradientBoostingWCET",
    "PwcetEVT",
    "QuantileTreeWCET",
    "fit_gumbel_moments",
]

#: Euler-Mascheroni constant (Gumbel method-of-moments fit).
_EULER_GAMMA = 0.5772156649015329


class WcetModel(abc.ABC):
    """Common interface of all WCET predictors."""

    name: str = "abstract"

    @abc.abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "WcetModel":
        """Offline phase: fit on isolated-vRAN samples."""

    @abc.abstractmethod
    def predict(self, x: np.ndarray) -> float:
        """Predict the WCET for one feature vector."""

    @abc.abstractmethod
    def observe(self, x: np.ndarray, runtime: float) -> None:
        """Online phase: fold in one observed runtime."""


#: Standard-normal quantile for the paper's 1-10^-5 prediction interval.
_Z_99999 = 4.264890793922825


class _ResidualTailMixin:
    """Shared online-adaptation scheme: a ring buffer of residuals.

    The regression baselines make *probabilistic* WCET predictions at
    the paper's 0.99999 interval: mean prediction plus z * sigma of the
    recent residuals (a Gaussian tail assumption — which is exactly why
    they miss more deadlines than the quantile tree's distribution-free
    leaf maximum on heavy-tailed runtimes).
    """

    def _init_residuals(self, residuals: np.ndarray, capacity: int) -> None:
        self._residuals = RingBuffer(capacity)
        self._residuals.extend(residuals[-capacity:])

    def _tail(self) -> float:
        if len(self._residuals) < 2:
            return 0.0
        values = self._residuals.values()
        return float(values.mean() + _Z_99999 * values.std())

    def _observe_residual(self, residual: float) -> None:
        self._residuals.push(residual)


class LinearRegressionWCET(WcetModel, _ResidualTailMixin):
    """OLS mean + max-of-recent-residuals tail."""

    name = "linear_regression"

    def __init__(self, residual_capacity: int = 5000) -> None:
        self.residual_capacity = residual_capacity
        self._coeffs: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegressionWCET":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        design = np.column_stack([X, np.ones(len(X))])
        self._coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
        residuals = y - design @ self._coeffs
        self._init_residuals(residuals, self.residual_capacity)
        return self

    def _mean(self, x: np.ndarray) -> float:
        if self._coeffs is None:
            raise RuntimeError("model is not fitted")
        return float(np.dot(self._coeffs[:-1], x) + self._coeffs[-1])

    def predict(self, x: np.ndarray) -> float:
        return max(0.0, self._mean(x) + self._tail())

    def observe(self, x: np.ndarray, runtime: float) -> None:
        self._observe_residual(runtime - self._mean(x))


class _MeanTree:
    """Small regression tree with leaf means (GBRT weak learner)."""

    def __init__(self, max_depth: int, min_samples_leaf: int) -> None:
        self._tree = QuantileDecisionTree(
            TreeConfig(
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                max_thresholds_per_feature=16,
                leaf_buffer_capacity=1,
            )
        )
        self._leaf_means: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_MeanTree":
        self._tree.fit(X, y)
        leaves = self._tree.leaf_indices(X)
        size = self._tree.num_leaves
        # bincount adds the weights in row order, like a per-row loop.
        sums = np.bincount(leaves, weights=y, minlength=size)
        counts = np.bincount(leaves, minlength=size).astype(np.float64)
        counts[counts == 0] = 1
        self._leaf_means = sums / counts
        return self

    def predict(self, x: np.ndarray) -> float:
        assert self._leaf_means is not None
        return float(self._leaf_means[self._tree.leaf_index(x)])

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        assert self._leaf_means is not None
        return self._leaf_means[self._tree.leaf_indices(X)]


class GradientBoostingWCET(WcetModel, _ResidualTailMixin):
    """From-scratch gradient-boosted regression trees for the mean,
    with the shared online residual tail."""

    name = "gradient_boosting"

    def __init__(
        self,
        n_stages: int = 40,
        learning_rate: float = 0.15,
        max_depth: int = 3,
        min_samples_leaf: int = 30,
        residual_capacity: int = 5000,
    ) -> None:
        self.n_stages = n_stages
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.residual_capacity = residual_capacity
        self._base: float = 0.0
        self._stages: list[_MeanTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingWCET":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(y) > 5000:
            # Boosting cost is stages x tree fits; 5K samples are plenty
            # for the mean model (the online residual buffer handles the
            # tail), so subsample deterministically.
            idx = np.random.default_rng(0).choice(len(y), 5000,
                                                  replace=False)
            X, y = X[idx], y[idx]
        self._base = float(y.mean())
        self._stages = []
        pred = np.full(len(y), self._base)
        for _ in range(self.n_stages):
            residual = y - pred
            if float(np.abs(residual).max()) < 1e-9:
                break
            tree = _MeanTree(self.max_depth, self.min_samples_leaf)
            try:
                tree.fit(X, residual)
            except ValueError:
                break
            update = tree.predict_many(X)
            if float(np.abs(update).max()) < 1e-12:
                break
            pred = pred + self.learning_rate * update
            self._stages.append(tree)
        self._init_residuals(y - pred, self.residual_capacity)
        return self

    def _mean(self, x: np.ndarray) -> float:
        value = self._base
        for stage in self._stages:
            value += self.learning_rate * stage.predict(x)
        return value

    def predict(self, x: np.ndarray) -> float:
        return max(0.0, self._mean(x) + self._tail())

    def observe(self, x: np.ndarray, runtime: float) -> None:
        self._observe_residual(runtime - self._mean(x))


def fit_gumbel_moments(samples: np.ndarray) -> tuple[float, float]:
    """Method-of-moments Gumbel fit: returns (location mu, scale beta)."""
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) < 2:
        raise ValueError("need at least two samples for a Gumbel fit")
    std = float(samples.std(ddof=1))
    beta = std * math.sqrt(6.0) / math.pi
    mu = float(samples.mean()) - _EULER_GAMMA * beta
    return mu, max(beta, 1e-12)


class PwcetEVT(WcetModel):
    """Conventional probabilistic WCET via extreme value theory.

    Block maxima of the runtime samples are fitted with a Gumbel
    distribution; the WCET is the ``confidence`` quantile.  The model is
    deliberately *not* parameterized by input features — that is the
    point of the Fig. 13 comparison: one pessimistic number per task.
    Online samples are accumulated in a ring buffer and the fit is
    refreshed periodically.
    """

    name = "pwcet_evt"

    def __init__(
        self,
        confidence: float = 0.99999,
        block_size: int = 50,
        online_capacity: int = 5000,
        refit_every: int = 500,
    ) -> None:
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        self.confidence = confidence
        self.block_size = block_size
        self.online_capacity = online_capacity
        self.refit_every = refit_every
        self._mu = 0.0
        self._beta = 1.0
        self._buffer = RingBuffer(online_capacity)
        self._since_refit = 0
        self._fitted = False

    def _block_maxima(self, samples: np.ndarray) -> np.ndarray:
        n_blocks = len(samples) // self.block_size
        if n_blocks < 2:
            return samples
        trimmed = samples[: n_blocks * self.block_size]
        return trimmed.reshape(n_blocks, self.block_size).max(axis=1)

    def _refit(self, samples: np.ndarray) -> None:
        maxima = self._block_maxima(samples)
        self._mu, self._beta = fit_gumbel_moments(maxima)
        self._fitted = True

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PwcetEVT":
        y = np.asarray(y, dtype=np.float64)
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._refit(y)
        self._buffer.replace(y)
        return self

    def predict(self, x: np.ndarray = None) -> float:
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        # Gumbel quantile: mu - beta * ln(-ln(q))
        return self._mu - self._beta * math.log(-math.log(self.confidence))

    def observe(self, x: np.ndarray, runtime: float) -> None:
        self._buffer.push(runtime)
        self._since_refit += 1
        if self._since_refit >= self.refit_every and \
                len(self._buffer) >= 2 * self.block_size:
            self._refit(self._buffer.values())
            self._since_refit = 0


class QuantileTreeWCET(WcetModel):
    """Adapter exposing the quantile decision tree as a WcetModel."""

    name = "quantile_tree"

    def __init__(self, config: Optional[TreeConfig] = None) -> None:
        self.tree = QuantileDecisionTree(config)
        self._global_max = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "QuantileTreeWCET":
        self.tree.fit(X, y)
        self._global_max = float(np.asarray(y).max())
        return self

    def predict(self, x: np.ndarray) -> float:
        try:
            return self.tree.predict_wcet(x)
        except ValueError:
            # Empty leaf buffer (fresh online phase): fall back to the
            # most pessimistic offline observation.
            return self._global_max

    def observe(self, x: np.ndarray, runtime: float) -> None:
        self.tree.observe(x, runtime)
