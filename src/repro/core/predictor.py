"""The Concordia WCET predictor (paper §4).

One prediction model per signal-processing task type.  The offline
phase (``fit_offline``) runs Algorithm 1 on a profiling dataset
collected with the vRAN in isolation: distance-correlation ranking,
backwards elimination, union with hand-picked features, then a quantile
decision tree per task.  The online phase (Algorithm 2) reads the
maximum of a task's leaf buffer as its WCET and pushes observed
runtimes back into that leaf, letting the leaf buffers absorb
collocation-induced distribution shifts without re-growing the trees.

Routing a task to its leaf is fixed once the task is built: every
feature is drawn by then and the trees are frozen after
``fit_offline``.  So ``fit_offline`` ends by merging every
:class:`~repro.core.models.QuantileTreeWCET` task type's tree into one
:class:`~repro.core.quantile_tree.QuantileForest`: one node array over
the full feature row, global leaf ids, and one
:class:`~repro.core.quantile_tree.LeafBank` that owns every leaf
buffer.  The DAG builder calls :meth:`route` once per build batch, one
descent for every task type, and stores each task's global leaf on
``TaskInstance.leaf``.  For a routed task, :meth:`predict_task` is then
a read of the bank's ``leaf_max`` and :meth:`observe_task` an append
to a pending list; the first prediction after a run of observations
folds the pending runtimes into the bank in one
:meth:`~repro.core.quantile_tree.LeafBank.fold`, in completion order,
so every prediction sees every runtime observed before it.

Other models (linear regression, gradient boosting, EVT, leaf EVT),
and tasks that were never routed (``leaf == -1``), take the model's
own per-task call on the feature vector, looked up by type code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..ran.tasks import FEATURE_INDEX, TYPE_CODE, TaskInstance, TaskType
from .features import select_features
from .models import QuantileTreeWCET, WcetModel
from .quantile_tree import QuantileForest, TreeConfig

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
        #: The routed trees as one node array and leaf bank (None while
        #: no task type has a quantile tree).
        self.forest: Optional[QuantileForest] = None
        #: ``(model, selected features)`` per ``type_code``, None where
        #: unmodelled: the per-task path's lookup, without hashing the
        #: task type.
        self._by_code: list = [None] * len(TYPE_CODE)
        #: Routed runtimes observed but not yet folded into the leaf
        #: bank, in completion order: their global leaves and values.
        self._pending_leaves: list = []
        self._pending_runtimes: list = []
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
        self._build_forest()
        return self

    def _build_forest(self) -> None:
        """Index the models by type code and merge the quantile trees."""
        self.fold()
        self._by_code = [None] * len(TYPE_CODE)
        members = []
        for task_type, model in self.models.items():
            selected = self.selected_features[task_type]
            self._by_code[task_type.type_code] = (model, selected)
            if type(model) is QuantileTreeWCET:
                # An empty leaf reads the most pessimistic offline
                # observation, as the model's own fallback does.
                members.append((task_type.type_code, model.tree, selected,
                                model._global_max))
        self.forest = QuantileForest(members, len(TYPE_CODE)) \
            if members else None

    # -- online phase -------------------------------------------------------------

    def route(self, type_codes: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Global leaf of every row of a build batch, -1 where unrouted.

        ``type_codes`` holds each row's :data:`~repro.ran.tasks.TYPE_CODE`
        and ``feats`` the matching ``(rows, NUM_FEATURES)`` feature
        matrix.  Rows of a task type in the forest descend its tree,
        comparing the same float64 values with the same ``<=`` as the
        per-task walk; every other row reads -1.
        """
        if self.forest is None:
            return np.full(len(type_codes), -1, dtype=np.int64)
        return self.forest.route(type_codes, feats)

    def fold(self) -> None:
        """Push the pending routed runtimes into the leaf bank, in
        completion order; every prediction does this first."""
        leaves = self._pending_leaves
        if leaves:
            self.forest.bank.fold(leaves, self._pending_runtimes)
            leaves.clear()
            self._pending_runtimes.clear()

    def reset_online(self) -> None:
        """Start a fresh online phase of the quantile trees.

        Every leaf buffer is emptied, the routed runtimes still pending
        included, so each leaf predicts its fallback until it sees a
        new sample.  The other models keep their online state.
        """
        self._pending_leaves.clear()
        self._pending_runtimes.clear()
        for model in self.models.values():
            if isinstance(model, QuantileTreeWCET):
                model.tree.reset_online()

    def predict_task(self, task: TaskInstance) -> Optional[float]:
        """WCET prediction for a task instance (None when unmodelled)."""
        leaf = task.leaf
        if leaf >= 0:
            if self._pending_leaves:
                self.fold()
            self.predictions_made += 1
            return self.forest.bank.leaf_max.item(leaf)
        entry = self._by_code[task.task_type.type_code]
        if entry is None:
            return None
        self.fold()
        self.predictions_made += 1
        model, selected = entry
        return model.predict(task.features[selected])

    def observe_task(self, task: TaskInstance) -> None:
        """Feed one observed runtime back into the online buffers.

        A routed task's runtime joins the pending ones, which the next
        prediction folds in.
        """
        runtime = task.runtime_us
        if runtime is None:
            return
        leaf = task.leaf
        if leaf >= 0:
            self._pending_leaves.append(leaf)
            self._pending_runtimes.append(runtime)
            self.observations_made += 1
            return
        entry = self._by_code[task.task_type.type_code]
        if entry is None:
            return
        self.fold()
        self.observations_made += 1
        model, selected = entry
        model.observe(task.features[selected], runtime)
