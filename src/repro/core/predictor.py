"""The Concordia WCET predictor (paper §4).

One prediction model per signal-processing task type.  The offline
phase (``fit_offline``) runs Algorithm 1 on a profiling dataset
collected with the vRAN in isolation: distance-correlation ranking,
backwards elimination, union with hand-picked features, then a quantile
decision tree per task.  At runtime, ``predict_task`` returns the max
of a task's leaf ring buffer, and ``observe_task`` feeds observed
runtimes back into that leaf (Algorithm 2's training step), letting the
leaf buffers absorb collocation-induced distribution shifts without
re-growing the trees.

Routing a task to its leaf is the expensive part, and it is fixed once
the task is built: every feature is drawn by then and the trees are
frozen after ``fit_offline``.  So the DAG builder calls :meth:`route`
once per build batch, one vectorized tree descent per task type, and
stores each task's leaf on ``TaskInstance.leaf``; the two online steps
are then an O(1) leaf-max read and a ring-buffer push, as in the
paper.  Only :class:`~repro.core.models.QuantileTreeWCET` models are
routed; other models, and tasks that were never routed
(``leaf == -1``), take the per-task call on the feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..ran.tasks import FEATURE_INDEX, TaskInstance, TaskType
from .features import select_features
from .models import QuantileTreeWCET, WcetModel
from .quantile_tree import TreeConfig

__all__ = ["ConcordiaPredictor", "OfflineDataset", "HANDPICKED_FEATURES"]

#: Domain-expert features always kept per Algorithm 1 (X_t^h): the work
#: size of the task itself, the slot volume and the worst link margin.
HANDPICKED_FEATURES = (
    FEATURE_INDEX["task_codeblocks"],
    FEATURE_INDEX["slot_bytes"],
    FEATURE_INDEX["min_snr_margin_db"],
)


class _QuantileTreeFactory:
    """Default per-task model factory.

    A class (not a lambda) so trained predictors stay picklable for
    the on-disk predictor cache (:mod:`repro.exec`).
    """

    def __init__(self, tree_config: Optional[TreeConfig] = None) -> None:
        self.tree_config = tree_config

    def __call__(self) -> QuantileTreeWCET:
        return QuantileTreeWCET(self.tree_config)


@dataclass
class OfflineDataset:
    """Profiling samples grouped per task type."""

    samples: dict = field(default_factory=dict)  # TaskType -> (list[X], list[y])

    def add(self, task_type: TaskType, features: np.ndarray,
            runtime: float) -> None:
        bucket = self.samples.setdefault(task_type, ([], []))
        bucket[0].append(np.asarray(features, dtype=np.float64))
        bucket[1].append(float(runtime))

    def arrays(self, task_type: TaskType) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = self.samples[task_type]
        return np.vstack(xs), np.asarray(ys, dtype=np.float64)

    def task_types(self) -> list[TaskType]:
        return list(self.samples.keys())

    def __len__(self) -> int:
        return sum(len(ys) for _, ys in self.samples.values())


class ConcordiaPredictor:
    """Per-task-type parameterized WCET prediction."""

    def __init__(
        self,
        model_factory: Optional[Callable[[], WcetModel]] = None,
        tree_config: Optional[TreeConfig] = None,
        handpicked: tuple = HANDPICKED_FEATURES,
        top_n: int = 8,
        keep_m: int = 5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if model_factory is None:
            model_factory = _QuantileTreeFactory(tree_config)
        self._model_factory = model_factory
        self.handpicked = handpicked
        self.top_n = top_n
        self.keep_m = keep_m
        self.rng = rng if rng is not None else np.random.default_rng(23)
        self.models: dict[TaskType, WcetModel] = {}
        self.selected_features: dict[TaskType, list[int]] = {}
        self.predictions_made = 0
        self.observations_made = 0

    # -- offline phase ---------------------------------------------------------

    def fit_offline(self, dataset: OfflineDataset,
                    min_samples: int = 100,
                    task_types=None) -> "ConcordiaPredictor":
        """Algorithm 1 for each profiled task type.

        ``task_types`` optionally restricts fitting to a subset (e.g.
        when only the coding tasks are being studied).
        """
        for task_type in dataset.task_types():
            if task_types is not None and task_type not in task_types:
                continue
            X, y = dataset.arrays(task_type)
            if len(y) < min_samples:
                continue
            selected = select_features(
                X, y,
                handpicked=self.handpicked,
                top_n=self.top_n,
                keep_m=self.keep_m,
                rng=self.rng,
            )
            model = self._model_factory()
            model.fit(X[:, selected], y)
            self.models[task_type] = model
            self.selected_features[task_type] = selected
        return self

    # -- online phase -------------------------------------------------------------

    def route(self, type_codes: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Leaf of every row of a build batch, -1 where unrouted.

        ``type_codes`` holds each row's :data:`~repro.ran.tasks.TYPE_CODE`
        and ``feats`` the matching ``(rows, NUM_FEATURES)`` feature
        matrix.  Rows of a task type modelled by a
        :class:`QuantileTreeWCET` get ``leaf_indices`` over their
        selected features, which compares the same float64 values with
        the same ``<=`` as the per-task walk; every other row reads -1.
        """
        leaves = np.full(len(type_codes), -1, dtype=np.int64)
        for task_type, model in self.models.items():
            if type(model) is not QuantileTreeWCET:
                continue
            rows = np.flatnonzero(type_codes == task_type.type_code)
            if len(rows):
                selected = self.selected_features[task_type]
                leaves[rows] = model.tree.leaf_indices(
                    feats[np.ix_(rows, selected)])
        return leaves

    def predict_task(self, task: TaskInstance) -> Optional[float]:
        """WCET prediction for a task instance (None when unmodelled)."""
        model = self.models.get(task.task_type)
        if model is None:
            return None
        self.predictions_made += 1
        if task.leaf >= 0:
            return model.predict_leaf(task.leaf)
        selected = self.selected_features[task.task_type]
        return model.predict(task.features[selected])

    def observe_task(self, task: TaskInstance) -> None:
        """Feed one observed runtime back into the online buffers."""
        model = self.models.get(task.task_type)
        if model is None or task.runtime_us is None:
            return
        self.observations_made += 1
        if task.leaf >= 0:
            model.observe_leaf(task.leaf, task.runtime_us)
            return
        selected = self.selected_features[task.task_type]
        model.observe(task.features[selected], task.runtime_us)
