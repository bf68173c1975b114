"""Per-leaf EVT prediction — the variant the paper tried and rejected.

§4.2: "We also experimented with such methods (e.g. [23]) to replace
our online predictor on each leaf node, but they provided similar
accuracy while being more computationally expensive."

:class:`LeafEvtQuantileTree` keeps Concordia's offline quantile tree
but replaces the per-leaf *max-of-ring-buffer* estimate with a
probabilistic WCET: a Gumbel fit over the leaf's buffered samples,
evaluated at a configurable confidence.  The ablation benchmark
(`benchmarks/test_ablations.py`) quantifies the paper's conclusion:
accuracy comparable to the max rule at a strictly higher prediction
cost (a distribution fit instead of an O(1) max lookup).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .models import WcetModel, fit_gumbel_moments
from .quantile_tree import QuantileDecisionTree, TreeConfig

__all__ = ["LeafEvtQuantileTree"]


class LeafEvtQuantileTree(WcetModel):
    """Quantile tree with Gumbel-quantile leaf predictions."""

    name = "leaf_evt_tree"

    def __init__(self, config: Optional[TreeConfig] = None,
                 confidence: float = 0.99999,
                 refit_every: int = 200) -> None:
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        self.tree = QuantileDecisionTree(config)
        self.confidence = confidence
        self.refit_every = refit_every
        self._leaf_params: list = []
        self._since_refit: list = []
        self._global_max = 0.0
        # Cost accounting for the ablation comparison.
        self.fits_performed = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LeafEvtQuantileTree":
        self.tree.fit(X, y)
        self._global_max = float(np.asarray(y).max())
        self._leaf_params = [None] * self.tree.num_leaves
        self._since_refit = [0] * self.tree.num_leaves
        for leaf in range(self.tree.num_leaves):
            self._refit_leaf(leaf)
        return self

    def _refit_leaf(self, leaf: int) -> None:
        values = self.tree.leaf_values(leaf)
        if len(values) < 8:
            self._leaf_params[leaf] = None
            return
        # Guard against degenerate (constant) leaves.
        if float(values.std()) < 1e-12:
            self._leaf_params[leaf] = (float(values[0]), 1e-9)
        else:
            self._leaf_params[leaf] = fit_gumbel_moments(values)
        self.fits_performed += 1
        self._since_refit[leaf] = 0

    def predict(self, x: np.ndarray) -> float:
        leaf = self.tree.leaf_index(x)
        params = self._leaf_params[leaf]
        if params is None:
            try:
                return self.tree.leaf_max(leaf)
            except ValueError:
                return self._global_max
        mu, beta = params
        quantile = mu - beta * math.log(-math.log(self.confidence))
        # Never predict below the worst sample actually observed.
        try:
            observed = self.tree.leaf_max(leaf)
        except ValueError:
            observed = 0.0
        return max(quantile, observed)

    def observe(self, x: np.ndarray, runtime: float) -> None:
        leaf = self.tree.observe(x, runtime)
        self._since_refit[leaf] += 1
        if self._since_refit[leaf] >= self.refit_every:
            self._refit_leaf(leaf)
