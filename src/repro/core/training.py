"""Offline profiling and predictor training (paper §4.2 / §5).

The paper collects 500 K training samples by running synthetic vRAN
workloads in isolation, with transmission parameters varied every TTI.
``collect_offline_dataset`` does the simulated equivalent: it runs the
pool under the fully isolated :class:`DedicatedScheduler` with
uniform-coverage profiling traffic and records every completed task's
feature vector and runtime.  ``train_predictor`` wraps that into the
full offline pipeline (Algorithm 1 feature selection + quantile-tree
fits per task type).
"""

from __future__ import annotations

import os
import pathlib
import pickle
from typing import Callable, Optional

import numpy as np

from ..ran.config import PoolConfig
from ..scenario import Scenario, build_simulation
from .models import WcetModel
from .predictor import ConcordiaPredictor, OfflineDataset
from .quantile_tree import TreeConfig

__all__ = ["collect_offline_dataset", "train_predictor"]


def collect_offline_dataset(
    pool_config: PoolConfig,
    num_slots: int = 3000,
    seed: int = 1234,
) -> OfflineDataset:
    """Profile the isolated vRAN and collect (features, runtime) samples."""
    simulation = build_simulation(Scenario(
        pool=pool_config, policy="dedicated", load_fraction=1.0,
        seed=seed, traffic="profiling"))
    dataset = OfflineDataset()
    simulation.pool.task_observers.append(lambda task: dataset.add(
        task.task_type, task.features, task.runtime_us
    ))
    simulation.run(num_slots)
    return dataset


def train_predictor(
    pool_config: PoolConfig,
    num_slots: int = 3000,
    seed: int = 1234,
    model_factory: Optional[Callable[[], WcetModel]] = None,
    tree_config: Optional[TreeConfig] = None,
    dataset: Optional[OfflineDataset] = None,
    cache_path: Optional["os.PathLike"] = None,
) -> ConcordiaPredictor:
    """Full offline phase: profile (unless given a dataset) and fit.

    When ``cache_path`` is given, a previously trained predictor is
    unpickled from there instead of re-profiling, and a fresh fit is
    pickled back — training is deterministic in (config, slots, seed),
    so the reloaded model is identical to what retraining would yield.
    """
    if cache_path is not None:
        path = pathlib.Path(cache_path)
        if path.exists():
            try:
                with path.open("rb") as handle:
                    return pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError):
                pass  # corrupt or stale artifact: retrain below
    if dataset is None:
        dataset = collect_offline_dataset(pool_config, num_slots, seed)
    predictor = ConcordiaPredictor(
        model_factory=model_factory,
        tree_config=tree_config,
        rng=np.random.default_rng(seed),
    )
    predictor.fit_offline(dataset)
    if cache_path is not None:
        path = pathlib.Path(cache_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(predictor, handle)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError):
            tmp.unlink(missing_ok=True)
    return predictor
