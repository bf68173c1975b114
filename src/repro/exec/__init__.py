"""Parallel experiment orchestration with a persistent result cache.

Every simulation an experiment driver wants to run is described by a
declarative, picklable :class:`~repro.exec.spec.SimSpec`: the run's
:class:`~repro.scenario.Scenario` plus its slot budget, predictor
training budget and knobs, serialized as the scenario's own JSON
(:func:`repro.experiments.common.make_spec` builds one).  Batches of specs
are executed by :func:`~repro.exec.batch.run_batch` through a worker
pool with deterministic per-spec seeding — a parallel run is
byte-identical to a serial one — backed by a content-addressed on-disk
result cache (:class:`~repro.exec.cache.ResultCache`) keyed by the
spec hash and a fingerprint of the calibrated model sources, so a
warm-cache sweep re-executes nothing and a calibration change
invalidates everything cleanly.

Entry points:

* ``python -m repro sweep --jobs N`` — CLI over a spec grid;
* :func:`repro.experiments.common.run_spec_batch` — the one way a
  figure driver runs its grid, returning
  :class:`~repro.sim.runner.SimulationResult`s that are the same plain
  data whether they ran in-process, in a forked worker or came from
  the cache;
* ``REPRO_JOBS`` / ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` — environment
  opt-ins honoured by the drivers and the benchmark harness.
"""

from .batch import BatchReport, JobOutcome, default_jobs, run_batch
from .cache import (
    ResultCache,
    activate_cache,
    activated_cache,
    active_cache,
    deactivate_cache,
    default_cache_dir,
)
from .fingerprint import model_fingerprint
from .spec import (
    SimSpec,
    SpecError,
    execute_spec,
    pool_config_from_dict,
    pool_config_to_dict,
    predictor_cache_key,
    spec_key,
)

__all__ = [
    "BatchReport",
    "JobOutcome",
    "ResultCache",
    "SimSpec",
    "SpecError",
    "activate_cache",
    "activated_cache",
    "active_cache",
    "deactivate_cache",
    "default_cache_dir",
    "default_jobs",
    "execute_spec",
    "model_fingerprint",
    "pool_config_from_dict",
    "pool_config_to_dict",
    "predictor_cache_key",
    "run_batch",
    "spec_key",
]
