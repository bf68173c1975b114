"""Shared infrastructure for the per-figure experiment drivers.

Every experiment in :mod:`repro.experiments` reproduces one table or
figure from the paper.  They share:

* a predictor cache (offline training is expensive and reusable) —
  process-local, and persisted through :mod:`repro.exec`'s on-disk
  cache when one is active so parallel workers and later runs reload
  instead of re-training;
* a slot-budget scale — set the ``REPRO_SCALE`` environment variable to
  run longer (e.g. ``REPRO_SCALE=10`` for tighter tail percentiles) or
  shorter experiments than the defaults;
* spec-batch execution (:func:`make_spec` / :func:`run_spec_batch`):
  drivers submit their simulation grids to :func:`repro.exec.run_batch`
  and parallelize via ``--jobs`` / ``REPRO_JOBS``;
* plain-text table rendering for the benchmark reports.
"""

from __future__ import annotations

import copy
import math
import os
from typing import Optional, Sequence

from ..core.predictor import ConcordiaPredictor
from ..core.training import train_predictor
from ..exec.cache import active_cache
from ..exec.fingerprint import model_fingerprint
from ..exec.spec import SimSpec, predictor_cache_key
from ..ran.config import PoolConfig
from ..scenario.scenario import Scenario

__all__ = [
    "scaled_slots",
    "repro_scale",
    "get_predictor",
    "private_predictor",
    "make_spec",
    "run_spec_batch",
    "format_table",
]

_PREDICTOR_CACHE: dict = {}

#: Default slots used for offline profiling when training predictors.
TRAINING_SLOTS = 800


def repro_scale() -> float:
    """The validated ``REPRO_SCALE`` multiplier (default 1.0)."""
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SCALE must be a positive number, got {raw!r}"
        ) from None
    if not math.isfinite(scale) or scale <= 0:
        raise ValueError(
            f"REPRO_SCALE must be a positive number, got {raw!r}")
    return scale


def scaled_slots(default: int, minimum: int = 200) -> int:
    """Apply the REPRO_SCALE environment multiplier to a slot budget."""
    return max(minimum, int(default * repro_scale()))


def _training_slots(num_slots: Optional[int]) -> int:
    return num_slots if num_slots is not None else \
        scaled_slots(TRAINING_SLOTS, minimum=300)


def get_predictor(config: PoolConfig, seed: int = 42,
                  num_slots: Optional[int] = None) -> ConcordiaPredictor:
    """Train (or fetch from cache) the offline predictor for a config.

    Keyed on :func:`repro.exec.spec.predictor_cache_key` — the pool,
    seed and training budget — in memory and on disk alike, so two
    pools or budgets never alias.  When a result cache is active
    (``REPRO_CACHE=1`` or a batch run), the trained model is pickled
    to disk so other worker processes and later sessions reload it
    instead of re-training.
    """
    slots = _training_slots(num_slots)
    key = predictor_cache_key(config, seed, slots, model_fingerprint())
    if key not in _PREDICTOR_CACHE:
        cache = active_cache()
        cache_path = cache.predictor_path(key) if cache is not None \
            else None
        _PREDICTOR_CACHE[key] = train_predictor(
            config, num_slots=slots, seed=seed, cache_path=cache_path)
    return _PREDICTOR_CACHE[key]


def private_predictor(config: PoolConfig, seed: int = 42,
                      num_slots: Optional[int] = None) -> ConcordiaPredictor:
    """A private copy of the trained predictor for one run.

    The only way a model from the process cache reaches a policy:
    online learning mutates the leaf ring buffers, so every run learns
    on its own copy and the cached model stays as training left it.
    Used by :func:`repro.exec.spec.run_spec` and by
    :func:`repro.scenario.build_policy` when no predictor is given.
    """
    return copy.deepcopy(get_predictor(config, seed=seed,
                                       num_slots=num_slots))


def make_spec(scenario: Scenario, num_slots: int) -> SimSpec:
    """Declarative :class:`SimSpec` for running ``scenario``.

    Raises :class:`SpecError` when the scenario cannot be expressed
    declaratively (e.g. a live object in ``policy_params``).  The
    predictor-training budget is resolved *now*, so the spec is
    hermetic with respect to ``REPRO_SCALE`` at submission time.
    """
    training_slots = None
    if scenario.policy == "concordia":
        training_slots = _training_slots(None)
    return SimSpec(scenario=scenario, num_slots=num_slots,
                   training_slots=training_slots)


def run_spec_batch(specs: Sequence[SimSpec], jobs: Optional[int] = None,
                   **batch_kwargs) -> list:
    """Execute a driver's spec grid; returns ``SimulationResult``s.

    The one way a driver runs its grid.  ``jobs=None`` honours
    ``REPRO_JOBS`` (default 1 = serial, in submission order); the
    active result cache, if any, serves and stores every spec unless
    ``use_cache=False``.  A result is the same plain data on every
    path.  Raises if any job failed — drivers want all their grid
    points.
    """
    from ..exec.batch import run_batch

    report = run_batch(specs, jobs=jobs, **batch_kwargs)
    return report.results(strict=True)


def format_table(headers: list, rows: list, title: str = "") -> str:
    """Render an aligned plain-text table."""
    columns = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in columns)
              for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in columns[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
