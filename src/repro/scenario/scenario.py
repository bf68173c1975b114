"""The serializable description of one simulation: :class:`Scenario`.

A scenario captures *what* to simulate — the pool deployment, the
scheduling policy (by name, with JSON-able parameters), the collocated
workload, the traffic/allocation/HARQ options and the seed — without
holding any live objects.  It is the single source of truth that the
CLI, the declarative exec specs and the experiment drivers all reduce
to before :func:`repro.scenario.build_simulation` assembles the actual
object graph, so the system can no longer be wired three subtly
different ways.

Pools are given either as a :class:`~repro.ran.config.PoolConfig`, as
an inlined cell-list dict (:func:`pool_config_to_dict`), or as a named
deployment reference like ``{"name": "20mhz", "num_cores": 12}``
resolving through :data:`NAMED_POOLS` (the paper's Table 1/2 setups).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Optional, Union

from ..ran.config import (
    CellConfig,
    Duplex,
    PoolConfig,
    SlotType,
    pool_100mhz_2cells,
    pool_20mhz_7cells,
)
from .reconfig import reconfig_from_payload

__all__ = [
    "SCENARIO_SCHEMA",
    "RECONFIG_SCHEMA",
    "NAMED_POOLS",
    "Scenario",
    "cell_config_from_dict",
    "cell_config_to_dict",
    "pool_config_from_dict",
    "pool_config_to_dict",
    "resolve_pool",
]

#: Schema version embedded in serialized scenarios; bump on breaking
#: changes so stale payloads can never be misread.
SCENARIO_SCHEMA = 1

#: Schema used when a scenario carries a reconfig timeline.  Scenarios
#: with an *empty* timeline serialize as plain ``SCENARIO_SCHEMA``
#: payloads, byte-identical to pre-reconfig ones (same rationale as the
#: ``cell_id_base`` omission below).  Schema 2 was never released for
#: scenarios; 3 aligns the scenario and result schema numbering.
RECONFIG_SCHEMA = 3

#: Named pool deployments (paper Table 1/2).  A ``{"name": ..., **kw}``
#: pool reference calls the factory with the remaining keys as
#: overrides (e.g. ``num_cores``, ``deadline_us``).
NAMED_POOLS = {
    "20mhz": pool_20mhz_7cells,
    "100mhz": pool_100mhz_2cells,
}

_ALLOCATION_MODES = ("iid", "mac")
_TRAFFIC_MODES = ("model", "profiling")
_ENGINE_MODES = ("event", "array")


# -- pool configuration (de)serialization -----------------------------------------


def cell_config_to_dict(cell: CellConfig) -> dict:
    """Inline one :class:`CellConfig` as a JSON-able dict.

    Also the cell half of a detached-cell snapshot
    (:meth:`repro.sim.runner.Simulation.detach_cell`): a cell's static
    configuration travels with its portable RNG/HARQ state.
    """
    return {
        "name": cell.name,
        "bandwidth_mhz": cell.bandwidth_mhz,
        "duplex": cell.duplex.value,
        "numerology": cell.numerology,
        "peak_dl_mbps": cell.peak_dl_mbps,
        "peak_ul_mbps": cell.peak_ul_mbps,
        "avg_dl_mbps": cell.avg_dl_mbps,
        "avg_ul_mbps": cell.avg_ul_mbps,
        "max_ues_per_slot": cell.max_ues_per_slot,
        "num_antennas": cell.num_antennas,
        "max_layers": cell.max_layers,
        "tdd_pattern": "".join(s.value for s in cell.tdd_pattern),
    }


def cell_config_from_dict(c: dict) -> CellConfig:
    """Rebuild a :class:`CellConfig` from :func:`cell_config_to_dict`."""
    return CellConfig(
        name=c["name"],
        bandwidth_mhz=c["bandwidth_mhz"],
        duplex=Duplex(c["duplex"]),
        numerology=c["numerology"],
        peak_dl_mbps=c["peak_dl_mbps"],
        peak_ul_mbps=c["peak_ul_mbps"],
        avg_dl_mbps=c["avg_dl_mbps"],
        avg_ul_mbps=c["avg_ul_mbps"],
        max_ues_per_slot=c["max_ues_per_slot"],
        num_antennas=c["num_antennas"],
        max_layers=c["max_layers"],
        tdd_pattern=tuple(SlotType(s) for s in c["tdd_pattern"]),
    )


def pool_config_to_dict(config: PoolConfig) -> dict:
    """Inline a :class:`PoolConfig` as a JSON-able dict."""
    return {
        "cells": [cell_config_to_dict(cell) for cell in config.cells],
        "num_cores": config.num_cores,
        "deadline_us": config.deadline_us,
        "scheduler_tick_us": config.scheduler_tick_us,
        "core_rotation_us": config.core_rotation_us,
    }


def pool_config_from_dict(payload: dict) -> PoolConfig:
    """Rebuild a :class:`PoolConfig` from :func:`pool_config_to_dict`."""
    cells = tuple(cell_config_from_dict(c) for c in payload["cells"])
    return PoolConfig(
        cells=cells,
        num_cores=payload["num_cores"],
        deadline_us=payload["deadline_us"],
        scheduler_tick_us=payload["scheduler_tick_us"],
        core_rotation_us=payload["core_rotation_us"],
    )


def resolve_pool(pool: Union[PoolConfig, dict]) -> PoolConfig:
    """Turn any scenario pool payload into a live :class:`PoolConfig`.

    Accepts a :class:`PoolConfig` (returned as-is), a named reference
    (``{"name": "20mhz", ...factory overrides}``) or an inlined
    cell-list dict (:func:`pool_config_to_dict` form).
    """
    if isinstance(pool, PoolConfig):
        return pool
    if not isinstance(pool, dict):
        raise TypeError(f"pool must be a PoolConfig or dict, got {pool!r}")
    if "name" in pool:
        overrides = {k: v for k, v in pool.items() if k != "name"}
        try:
            factory = NAMED_POOLS[pool["name"]]
        except KeyError:
            raise ValueError(
                f"unknown pool name {pool['name']!r}; "
                f"known: {sorted(NAMED_POOLS)}") from None
        return factory(**overrides)
    if "cells" in pool:
        return pool_config_from_dict(pool)
    raise ValueError("pool dict needs either a 'name' or inlined 'cells'")


# -- the scenario ------------------------------------------------------------------


@dataclass
class Scenario:
    """Everything that determines one simulation, as plain data.

    ``policy_params`` must hold JSON-able values only; live objects
    (a trained predictor, a policy instance) are assembly-time inputs
    of :func:`repro.scenario.build_simulation`, not scenario state.
    """

    pool: Union[PoolConfig, dict]
    policy: str = "concordia-noml"
    policy_params: dict = field(default_factory=dict)
    workload: str = "none"
    load_fraction: float = 0.5
    seed: int = 0
    #: "model" draws from the calibrated per-cell traffic generators;
    #: "profiling" sweeps the input space uniformly (offline phase,
    #: paper §4.2).
    traffic: str = "model"
    #: "iid" splits slot bytes into i.i.d. UE allocations; "mac" runs
    #: the buffer-driven proportional-fair MAC pipeline.
    allocation: str = "iid"
    harq: bool = False
    mix_interval_us: tuple = (0.5e6, 2.0e6)
    record_tasks: bool = False
    #: Fleet sharding: when not ``None``, this pool is one cell-shard
    #: of a metro deployment and its per-cell RNG streams are keyed by
    #: the *global* cell id (``cell_id_base + local index``) instead of
    #: the within-pool index, with per-cell UE-allocation streams —
    #: see :mod:`repro.fleet`.  Cell-level sampling then reproduces
    #: byte-identically no matter how the fleet is sharded.  ``None``
    #: keeps the legacy single-server keying (and digests) unchanged.
    cell_id_base: Optional[int] = None
    #: Declarative reconfiguration timeline: a tuple of
    #: :class:`~repro.scenario.reconfig.ReconfigEvent` (or their dict
    #: form) applied at slot boundaries — worker add/remove and cell
    #: detach/attach within this one simulation.  Empty (the default)
    #: keeps the legacy schema and digests byte-identical; non-empty
    #: scenarios serialize as :data:`RECONFIG_SCHEMA`.
    reconfig: tuple = ()
    #: Simulation engine: "event" runs every task completion and tick
    #: through the discrete-event heap; "array" additionally commits
    #: provably contention-free slots in closed form through the
    #: array-timeline kernel (:mod:`repro.sim.arraykernel`), bypassing
    #: the heap while reproducing the event engine's results
    #: byte-identically.  Slots
    #: (or whole runs) that cannot be certified fall back to the event
    #: path, so "array" is always safe to request.
    engine_mode: str = "event"

    def __post_init__(self) -> None:
        if self.allocation not in _ALLOCATION_MODES:
            raise ValueError(
                f"allocation must be one of {_ALLOCATION_MODES}, "
                f"got {self.allocation!r}")
        if self.engine_mode not in _ENGINE_MODES:
            raise ValueError(
                f"engine_mode must be one of {_ENGINE_MODES}, "
                f"got {self.engine_mode!r}")
        if self.traffic not in _TRAFFIC_MODES:
            raise ValueError(
                f"traffic must be one of {_TRAFFIC_MODES}, "
                f"got {self.traffic!r}")
        self.mix_interval_us = tuple(self.mix_interval_us)
        self.reconfig = reconfig_from_payload(self.reconfig)

    @property
    def profiling_traffic(self) -> bool:
        return self.traffic == "profiling"

    def pool_config(self) -> PoolConfig:
        """Resolve the pool payload to a live :class:`PoolConfig`."""
        return resolve_pool(self.pool)

    def to_dict(self) -> dict:
        """JSON-able payload (named pool references stay symbolic)."""
        payload = asdict(self)
        if isinstance(self.pool, PoolConfig):
            payload["pool"] = pool_config_to_dict(self.pool)
        payload["mix_interval_us"] = list(self.mix_interval_us)
        if payload["cell_id_base"] is None:
            # Non-fleet scenarios serialize exactly as they did before
            # the fleet layer existed, keeping cached results and the
            # golden result digests byte-identical.
            del payload["cell_id_base"]
        if payload["engine_mode"] == "event":
            # Same invariant again: event-mode scenarios serialize
            # exactly as they did before the array engine existed.
            del payload["engine_mode"]
        if self.reconfig:
            payload["reconfig"] = [e.to_dict() for e in self.reconfig]
            payload["schema"] = RECONFIG_SCHEMA
        else:
            # Same invariant as cell_id_base: an empty timeline
            # serializes exactly as a pre-reconfig scenario.
            del payload["reconfig"]
            payload["schema"] = SCENARIO_SCHEMA
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        if payload.get("schema") not in (SCENARIO_SCHEMA, RECONFIG_SCHEMA):
            raise ValueError(
                f"unsupported scenario schema {payload.get('schema')!r}")
        fields_ = {k: v for k, v in payload.items() if k != "schema"}
        return cls(**fields_)
