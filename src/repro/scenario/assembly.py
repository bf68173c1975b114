"""Assembly: turn a :class:`~repro.scenario.Scenario` into live objects.

This is the single factory through which every entry point — the CLI,
:func:`repro.exec.spec.run_spec`, the experiment drivers, examples and
tests — builds a runnable :class:`~repro.sim.runner.Simulation`.  The
policy is named by the scenario, never passed in live, so every result
describes the run that produced it.  What is *not* plain data (a
trained predictor, an observability event bus) enters here as an
explicit keyword argument instead of hiding inside the scenario.

A trained model from the process cache reaches a policy only as a
private copy (:func:`repro.experiments.common.private_predictor`), so
building and running a simulation that trains its own model never
changes another run.  A predictor the caller passes in is used as it
is: the caller owns it, and its online learning with it.
"""

from __future__ import annotations

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
    predictor=None,
    policy_seed: int = 42,
    event_bus=None,
) -> Simulation:
    """Assemble a runnable :class:`Simulation` from a scenario.

    The one way to build a simulation.  The policy is always built by
    name with ``scenario.policy_params``, so the scenario the result
    embeds names the policy that ran and rebuilds the same run.
    ``predictor`` and ``policy_seed`` reach :func:`build_policy`;
    ``event_bus`` records the run's structured events.
    """
    policy = build_policy(scenario.policy, scenario.pool_config(),
                          seed=policy_seed, predictor=predictor,
                          **scenario.policy_params)
    return Simulation(scenario, policy, event_bus=event_bus)
