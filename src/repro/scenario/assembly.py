"""Assembly: turn a :class:`~repro.scenario.Scenario` into live objects.

This is the single factory through which every entry point — the CLI,
:func:`repro.exec.spec.run_spec`, the experiment drivers and ad-hoc
scripts — builds a runnable :class:`~repro.sim.runner.Simulation`.
Anything that is *not* plain data (a trained predictor, a pre-built
policy instance, an observability event bus) enters here as an explicit
keyword argument instead of hiding inside the scenario.

A trained model from the process cache reaches a policy only as a
private copy (:func:`repro.experiments.common.private_predictor`), so
building and running a simulation that trains its own model never
changes another run.  A predictor the caller passes in is used as it
is: the caller owns it, and its online learning with it.
"""

from __future__ import annotations

from typing import Optional

from ..baselines.flexran import DedicatedScheduler, FlexRanScheduler
from ..baselines.shenango import ShenangoScheduler
from ..baselines.static import StaticPartitionScheduler
from ..baselines.utilization import UtilizationScheduler
from ..core.scheduler import ConcordiaScheduler
from ..ran.config import PoolConfig
from ..sim.policy import SchedulerPolicy
from ..sim.runner import Simulation
from .scenario import Scenario

__all__ = ["POLICY_NAMES", "build_policy", "build_simulation"]

#: Policy names accepted by :func:`build_policy`.
POLICY_NAMES = ("concordia", "concordia-noml", "flexran", "dedicated",
                "shenango", "utilization", "static")


def build_policy(name: str, config: PoolConfig, seed: int = 42,
                 predictor=None, **kwargs) -> SchedulerPolicy:
    """Instantiate a scheduling policy by name.

    ``predictor`` short-circuits the default offline training for the
    full ``concordia`` policy (callers that train or cache their own
    model pass it here, and the policy learns on it as it is); without
    one the policy gets a private copy of the model trained for
    ``(config, seed)``.  All other policies ignore it.
    """
    if name == "concordia":
        predictor = kwargs.pop("predictor", predictor)
        if predictor is None:
            # Lazy: experiments.common owns the training/cache plumbing
            # and itself imports this package.
            from ..experiments.common import private_predictor
            predictor = private_predictor(config, seed=seed)
        return ConcordiaScheduler(predictor, **kwargs)
    if name == "concordia-noml":
        return ConcordiaScheduler(predictor=None, **kwargs)
    if name == "flexran":
        return FlexRanScheduler()
    if name == "dedicated":
        return DedicatedScheduler()
    if name == "shenango":
        return ShenangoScheduler(**kwargs)
    if name == "static":
        kwargs.setdefault("reserved_cores", max(1, config.num_cores // 2))
        return StaticPartitionScheduler(**kwargs)
    if name == "utilization":
        kwargs.setdefault("slot_duration_us", config.slot_duration_us)
        return UtilizationScheduler(**kwargs)
    raise ValueError(f"unknown policy {name!r}")


def build_simulation(
    scenario: Scenario,
    *,
    policy: Optional[SchedulerPolicy] = None,
    predictor=None,
    policy_seed: int = 42,
    event_bus=None,
) -> Simulation:
    """Assemble a runnable :class:`Simulation` from a scenario.

    The pool payload is resolved (:func:`repro.scenario.resolve_pool`),
    the policy is built by name with ``scenario.policy_params`` — or
    taken verbatim when a live ``policy`` instance is supplied — and
    the simulation is wired exactly as ``Simulation``'s legacy keyword
    constructor would, from the scenario alone.
    """
    config = scenario.pool_config()
    if policy is None:
        policy = build_policy(scenario.policy, config, seed=policy_seed,
                              predictor=predictor,
                              **scenario.policy_params)
    return Simulation(config, policy, scenario=scenario,
                      event_bus=event_bus)
