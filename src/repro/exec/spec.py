"""Declarative simulation specs: the unit of work for the batch runner.

A :class:`SimSpec` captures everything that determines a simulation's
outcome — the pool configuration (inlined, so arbitrary experiment
pools work, not just the named Table 1/2 deployments), the policy and
its kwargs, the workload, load fraction, slot budget, the simulation
seed and the predictor-training budget.  Two properties follow:

* **hermetic execution** — :func:`execute_spec` builds everything it
  needs from the spec alone, including a private copy of the trained
  predictor, so a spec's result is a pure function of its payload and
  the model sources.  Serial and parallel execution are byte-identical.
* **content addressing** — :func:`spec_key` hashes the canonical JSON
  payload together with the model fingerprint, giving the on-disk
  cache key.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..ran.config import PoolConfig

# The pool converters now live in the scenario layer; re-exported here
# because spec payloads and downstream callers grew around these names.
from ..scenario.scenario import pool_config_from_dict, pool_config_to_dict

__all__ = [
    "SimSpec",
    "SpecError",
    "execute_spec",
    "pool_config_from_dict",
    "pool_config_to_dict",
    "predictor_cache_key",
    "spec_key",
]

#: Schema version embedded in every spec payload; bump on breaking
#: changes so stale cache entries can never be misread.
SPEC_SCHEMA = 1


class SpecError(ValueError):
    """A simulation call cannot be expressed as a declarative spec."""


# -- the spec ----------------------------------------------------------------------


@dataclass
class SimSpec:
    """One simulation, fully described by plain JSON-able values.

    ``policy_kwargs``/``sim_kwargs`` must hold JSON scalars and
    containers only; passing live objects (e.g. a trained predictor)
    raises :class:`SpecError` at construction, and callers fall back
    to direct, uncached execution.  ``knobs`` is a free-form dict that
    participates in the hash — used for forward-compatible extensions
    and for the batch runner's fault-injection tests.
    """

    config: dict
    policy: str
    workload: str = "none"
    load_fraction: float = 0.5
    num_slots: int = 2000
    seed: int = 7
    policy_kwargs: dict = field(default_factory=dict)
    sim_kwargs: dict = field(default_factory=dict)
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

    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "config": self.config,
            "policy": self.policy,
            "workload": self.workload,
            "load_fraction": self.load_fraction,
            "num_slots": self.num_slots,
            "seed": self.seed,
            "policy_kwargs": self.policy_kwargs,
            "sim_kwargs": self.sim_kwargs,
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
        return cls(**fields)

    def label(self) -> str:
        """Short human-readable job label for progress/telemetry."""
        cells = self.config.get("cells", [])
        bw = cells[0]["bandwidth_mhz"] if cells else 0
        return (f"{self.policy}+{self.workload}"
                f"@{self.load_fraction:.2f} "
                f"{len(cells)}x{bw:g}MHz/{self.config.get('num_cores')}c "
                f"slots={self.num_slots} seed={self.seed}")


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
    """Content address of a trained default predictor."""
    blob = canonical_json({
        "fingerprint": fingerprint,
        "config": pool_config_to_dict(config),
        "seed": seed,
        "training_slots": num_slots,
        "kind": "quantile-tree-default",
    })
    return hashlib.sha256(blob.encode()).hexdigest()


# -- execution ---------------------------------------------------------------------


def _apply_test_hooks(spec: SimSpec, attempt: int) -> None:
    """Fault-injection knobs used by the batch runner's test suite."""
    hooks = spec.knobs
    if hooks.get("__test_crash__"):
        raise RuntimeError("injected crash (knobs.__test_crash__)")
    if attempt < hooks.get("__test_crash_until_attempt__", 0):
        raise RuntimeError(
            f"injected crash on attempt {attempt} "
            f"(knobs.__test_crash_until_attempt__)")
    sleep_s = hooks.get("__test_sleep_s__")
    if sleep_s:
        time.sleep(float(sleep_s))


def _scenario_kwargs(sim_kwargs: dict) -> dict:
    """Map legacy ``sim_kwargs`` spec names onto Scenario fields.

    Specs predate the scenario layer and carry ``Simulation``'s old
    keyword names; existing cache keys hash those payloads, so the
    spec schema keeps them and the translation happens here.
    """
    kwargs = dict(sim_kwargs)
    # Sweeps used to pin an engine choice; the array kernel now runs
    # wherever its static gates hold, so the key carries nothing.
    kwargs.pop("engine_mode", None)
    if "profiling_traffic" in kwargs:
        kwargs["traffic"] = ("profiling" if kwargs.pop("profiling_traffic")
                             else "model")
    if "allocation_mode" in kwargs:
        kwargs["allocation"] = kwargs.pop("allocation_mode")
    if "mix_interval_us" in kwargs:
        kwargs["mix_interval_us"] = tuple(kwargs["mix_interval_us"])
    return kwargs


def execute_spec(spec: SimSpec, attempt: int = 0,
                 event_bus=None) -> dict:
    """Run one spec to completion; returns the JSON-able result payload.

    Hermetic: the predictor (when the policy needs one) is trained —
    or reloaded from the active cache — for exactly
    ``(config, training_seed, training_slots)`` and then deep-copied,
    so this simulation's online learning never leaks into another
    run.  The result is therefore a pure function of the spec.

    ``event_bus`` (a ``repro.obs.events.EventBus``) records the run's
    structured events for tracing/post-mortems.  It does not affect
    the result payload, so cached and live results stay identical;
    the registry *telemetry* snapshot always rides in the payload.
    """
    # Imported lazily: experiments.common imports this module.
    from ..experiments.common import get_predictor
    from ..scenario import Scenario, build_simulation

    _apply_test_hooks(spec, attempt)
    config = pool_config_from_dict(spec.config)
    predictor = None
    policy_kwargs = dict(spec.policy_kwargs)
    if (spec.policy == "concordia" and "predictor" not in policy_kwargs
            and spec.training_slots is not None):
        base = get_predictor(config, seed=spec.training_seed,
                             num_slots=spec.training_slots)
        predictor = copy.deepcopy(base)
    scenario = Scenario(
        pool=config,
        policy=spec.policy,
        policy_params=policy_kwargs,
        workload=spec.workload,
        load_fraction=spec.load_fraction,
        seed=spec.seed,
        **_scenario_kwargs(spec.sim_kwargs),
    )
    simulation = build_simulation(scenario, predictor=predictor,
                                  policy_seed=spec.training_seed,
                                  event_bus=event_bus)
    result = simulation.run(spec.num_slots)
    return result.to_dict()
