"""Declarative simulation specs: the unit of work for the batch runner.

A :class:`SimSpec` is one run: a :class:`~repro.scenario.Scenario`
(pool, policy and its parameters, workload, load, traffic options,
seed), the slot budget, and the predictor-training budget.  Two
properties follow:

* **hermetic execution** — :func:`build_spec_simulation` builds
  everything it needs from the spec alone, including a private copy of
  the trained predictor, so a spec's result is a pure function of its
  payload and the model sources.  It is the only build path:
  :func:`run_spec` (behind :func:`execute_spec`, the batch runner's
  job) and the fleet planner's lockstep migration both call it, so
  serial, parallel, cached, uncached and migrated runs are
  byte-identical.  A driver runs a grid as one batch
  (:func:`repro.experiments.common.run_spec_batch`); only a run with a
  caller-owned predictor, which has no spec address, calls
  :func:`run_spec` directly.
* **content addressing** — :func:`spec_key` hashes the canonical JSON
  payload together with the model fingerprint, giving the on-disk
  cache key.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..ran.config import PoolConfig

# The pool converters now live in the scenario layer; re-exported here
# because spec payloads and downstream callers grew around these names.
from ..scenario.scenario import (
    Scenario,
    pool_config_from_dict,
    pool_config_to_dict,
)

if TYPE_CHECKING:
    from ..sim.runner import Simulation, SimulationResult

__all__ = [
    "SimSpec",
    "SpecError",
    "build_spec_simulation",
    "execute_spec",
    "pool_config_from_dict",
    "pool_config_to_dict",
    "predictor_cache_key",
    "run_spec",
    "spec_key",
]

#: Schema version embedded in every spec payload; bump on breaking
#: changes so stale cache entries can never be misread.  Schema 2
#: embeds the run's serialized :class:`~repro.scenario.Scenario`.
SPEC_SCHEMA = 2


class SpecError(ValueError):
    """A simulation call cannot be expressed as a declarative spec."""


# -- the spec ----------------------------------------------------------------------


@dataclass
class SimSpec:
    """One simulation, fully described by plain JSON-able values.

    The spec holds its scenario as the payload rebuilds it (a private
    copy, pool left as serialized), so a spec run in-process and one
    rebuilt from JSON in a worker are the same run.  The scenario's
    ``policy_params`` must hold JSON values only; a live object (e.g.
    a trained predictor) raises :class:`SpecError` at construction — a
    caller's predictor is :func:`run_spec`'s argument instead.
    ``knobs`` is a free-form dict that participates in the hash, for
    options that change what a run records rather than the scenario
    (``"demand"``: record a fleet shard's demand, see
    :func:`build_spec_simulation`).
    """

    scenario: Scenario
    num_slots: int
    training_slots: Optional[int] = None
    training_seed: int = 42
    knobs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_slots <= 0:
            raise SpecError("num_slots must be positive")
        try:
            canonical_json(self.to_dict())
        except TypeError as exc:
            raise SpecError(
                f"spec payload is not JSON-serializable: {exc}") from None
        self.scenario = Scenario.from_dict(self.scenario.to_dict())

    @property
    def config(self) -> dict:
        """The scenario's pool, inlined (:func:`pool_config_to_dict`).

        Read only by ``bench/workloads.py``; other code reads
        ``scenario.pool_config()``.
        """
        return pool_config_to_dict(self.scenario.pool_config())

    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "scenario": self.scenario.to_dict(),
            "num_slots": self.num_slots,
            "training_slots": self.training_slots,
            "training_seed": self.training_seed,
            "knobs": self.knobs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimSpec":
        if payload.get("schema") != SPEC_SCHEMA:
            raise SpecError(
                f"unsupported spec schema {payload.get('schema')!r}")
        fields = {k: v for k, v in payload.items() if k != "schema"}
        fields["scenario"] = Scenario.from_dict(fields["scenario"])
        return cls(**fields)

    def label(self) -> str:
        """Short human-readable job label for progress/telemetry."""
        scenario = self.scenario
        config = scenario.pool_config()
        label = (f"{scenario.policy}+{scenario.workload}"
                 f"@{scenario.load_fraction:.2f} "
                 f"{len(config.cells)}x{config.cells[0].bandwidth_mhz:g}MHz"
                 f"/{config.num_cores}c "
                 f"slots={self.num_slots} seed={scenario.seed}")
        if scenario.cell_id_base is not None:
            label += f" cells@{scenario.cell_id_base}"
        return label


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding used for all hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def spec_key(spec: SimSpec, fingerprint: str) -> str:
    """Content address of a spec under a model fingerprint."""
    blob = canonical_json({"fingerprint": fingerprint,
                           "spec": spec.to_dict()})
    return hashlib.sha256(blob.encode()).hexdigest()


def predictor_cache_key(config: PoolConfig, seed: int, num_slots: int,
                        fingerprint: str) -> str:
    """Content address of a trained default predictor.

    The one predictor key: the process cache, the on-disk cache and
    the batch runner's pre-warming all use it.  It holds every cell's
    full configuration and the rest of the pool except
    ``deadline_us``: offline profiling records the same samples under
    any deadline (a test pins this), so pools that differ only in
    their deadline share one model.
    """
    pool = pool_config_to_dict(config)
    del pool["deadline_us"]
    blob = canonical_json({
        "fingerprint": fingerprint,
        "pool": pool,
        "seed": seed,
        "training_slots": num_slots,
        "kind": "quantile-tree-default",
    })
    return hashlib.sha256(blob.encode()).hexdigest()


# -- execution ---------------------------------------------------------------------


def build_spec_simulation(spec: SimSpec, predictor=None,
                          event_bus=None) -> "Simulation":
    """Build, but do not run, the simulation a spec describes.

    The policy learns online on a private model: a caller-owned
    ``predictor`` is copied, and a ``concordia`` spec without one gets
    a copy of the trained model for exactly ``(pool, training_seed,
    training_slots)`` (:func:`repro.experiments.common.private_predictor`).
    Neither argument nor the process cache is changed by the run.
    ``knobs["demand"]`` attaches a
    :class:`~repro.fleet.demand.ShardDemandRecorder`, so the result
    carries the per-cell digests, the federated demand and the latency
    histogram a fleet shard reports.  ``event_bus`` (a
    ``repro.obs.events.EventBus``) records the run's structured events;
    it does not affect the result.
    """
    # Imported lazily: experiments.common imports this module, and the
    # scenario package's build_simulation is looked up per call.
    from ..experiments.common import private_predictor
    from ..scenario import build_simulation

    scenario = spec.scenario
    if predictor is not None:
        predictor = copy.deepcopy(predictor)
    elif scenario.policy == "concordia":
        predictor = private_predictor(scenario.pool_config(),
                                      seed=spec.training_seed,
                                      num_slots=spec.training_slots)
    simulation = build_simulation(scenario, predictor=predictor,
                                  policy_seed=spec.training_seed,
                                  event_bus=event_bus)
    if spec.knobs.get("demand"):
        from ..fleet.demand import ShardDemandRecorder

        config = simulation.pool_config
        simulation.demand_observer = ShardDemandRecorder(
            config.cells, config.deadline_us)
    return simulation


def run_spec(spec: SimSpec, predictor=None,
             event_bus=None) -> "SimulationResult":
    """Build and run the simulation a spec describes.

    The one run path: :func:`execute_spec` (the batch runner's job) and
    the fleet planner come through :func:`build_spec_simulation`, so
    equal specs give equal results on every path.  Called directly
    only with a caller-owned ``predictor`` (copied, never trained in
    place), which a spec cannot address and so never meets the cache.
    """
    return build_spec_simulation(spec, predictor, event_bus).run(
        spec.num_slots)


def execute_spec(spec: SimSpec, event_bus=None) -> dict:
    """Run one spec to completion; returns the JSON-able result payload.

    :func:`run_spec`'s result as ``to_dict()``, a pure function of the
    spec.  The registry *telemetry* snapshot always rides in the
    payload; ``event_bus`` leaves it unchanged, so cached and live
    results stay identical.
    """
    return run_spec(spec, event_bus=event_bus).to_dict()
