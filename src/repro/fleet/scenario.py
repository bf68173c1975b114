"""Metro-scale deployment specs: :class:`FleetScenario` and its shards.

A fleet scenario describes a *metro* deployment — N homogeneous cells
of one reference kind (the paper's Table 1/2 cell types) — and how to
partition it into per-server cell-shards.  ``derive_shards()`` turns
the spec into one :class:`~repro.scenario.Scenario` per server, in
shard order: contiguous, balanced groups of cells, each with its own
core bank provisioned at the reference cores-per-cell ratio.  A
shard's scenario is all of its identity — its list position is the
shard index, its pool names the cells, ``cell_id_base`` is its first
global cell id.

Two properties make sharding an *execution* choice rather than a
modelling one:

* **global cell identity** — cell ``g`` is named and RNG-keyed by its
  fleet-wide index (``Scenario.cell_id_base``), so its traffic,
  UE-allocation and per-DAG sampling streams are byte-identical no
  matter which shard it lands in or how many shards exist;
* **hermetic shards** — each shard's scenario is plain data, run as
  one :class:`~repro.exec.spec.SimSpec` (in-process or in a forked
  child, or served from the result cache), so the planner is free to
  place shards anywhere.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..ran.config import (
    CellConfig,
    PoolConfig,
    cell_100mhz_tdd,
    cell_20mhz_fdd,
)
from ..scenario import POLICY_NAMES, ReconfigEvent, Scenario, \
    reconfig_from_payload

__all__ = ["FLEET_SCHEMA", "FLEET_RECONFIG_SCHEMA", "CELL_KINDS",
           "FleetScenario"]

#: Schema version embedded in serialized fleet scenarios.
FLEET_SCHEMA = 1

#: Schema used when a fleet scenario carries a reconfig timeline; an
#: empty timeline serializes as plain :data:`FLEET_SCHEMA`, keeping
#: pre-reconfig payloads (and cached reports) byte-identical.
FLEET_RECONFIG_SCHEMA = 2


@dataclass(frozen=True)
class _CellKind:
    """One reference cell type and its per-server provisioning ratio."""

    factory: object  # CellConfig factory taking a name
    deadline_us: float
    cores_per_cell: float  # the paper's reference server ratio
    name_prefix: str


#: Reference cell kinds (Table 1/2): the provisioning ratio is the
#: paper's reference server (8 cores / 7 x 20 MHz, 12 cores / 2 x
#: 100 MHz) carried over to arbitrary shard sizes.
CELL_KINDS = {
    "20mhz": _CellKind(cell_20mhz_fdd, 2000.0, 8.0 / 7.0, "cell20"),
    "100mhz": _CellKind(cell_100mhz_tdd, 1500.0, 12.0 / 2.0, "cell100"),
}


@dataclass
class FleetScenario:
    """A metro deployment: N cells of one kind, sharded K ways.

    ``cores_per_cell`` defaults to the kind's reference ratio; each
    shard's core bank is ``ceil(cores_per_cell * shard cells)``.  All
    shards share the fleet ``seed`` — per-cell streams are keyed by
    global cell id, so identical seeds never alias across shards.
    """

    cells: int
    shards: int = 1
    cell_kind: str = "20mhz"
    cores_per_cell: Optional[float] = None
    policy: str = "concordia-noml"
    policy_params: dict = field(default_factory=dict)
    workload: str = "none"
    load_fraction: float = 0.5
    seed: int = 0
    num_slots: int = 400
    allocation: str = "iid"
    harq: bool = False
    #: Declarative fleet reconfiguration timeline
    #: (:class:`~repro.scenario.reconfig.ReconfigEvent` or dict form):
    #: ``migrate`` events are executed by the planner's lockstep path;
    #: worker and detach/attach events are routed (via ``shard``) into
    #: the target shard's own :class:`~repro.scenario.Scenario`
    #: timeline.  ``cell`` may be a global cell index or a cell name.
    reconfig: tuple = ()
    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ValueError("fleet needs at least one cell")
        if not 1 <= self.shards <= self.cells:
            raise ValueError(
                f"shards must be in [1, cells]; got {self.shards} "
                f"shards for {self.cells} cells")
        if self.cell_kind not in CELL_KINDS:
            raise ValueError(
                f"unknown cell kind {self.cell_kind!r}; "
                f"known: {sorted(CELL_KINDS)}")
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {self.policy!r}; known: {POLICY_NAMES}")
        if self.num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if self.cores_per_cell is not None and self.cores_per_cell <= 0:
            raise ValueError("cores_per_cell must be positive")
        self.reconfig = reconfig_from_payload(self.reconfig)
        for event in self.reconfig:
            self._validate_event(event)

    def _validate_event(self, event: ReconfigEvent) -> None:
        if isinstance(event.cell, int):
            if not 0 <= event.cell < self.cells:
                raise ValueError(
                    f"reconfig cell index {event.cell} outside "
                    f"[0, {self.cells})")
        if event.action == "migrate":
            for label, shard in (("src_shard", event.src_shard),
                                 ("dst_shard", event.dst_shard)):
                if not 0 <= shard < self.shards:
                    raise ValueError(
                        f"migrate {label} {shard} outside "
                        f"[0, {self.shards})")
            # Migration pauses every shard at the barrier slot; slot 0
            # would mean "before the run", which is just a different
            # initial sharding.
            if not 1 <= event.at_slot < self.num_slots:
                raise ValueError(
                    f"migrate at_slot {event.at_slot} outside "
                    f"[1, {self.num_slots})")
        else:
            if event.shard is None:
                raise ValueError(
                    f"fleet {event.action} event needs a shard to "
                    f"route to")
            if not 0 <= event.shard < self.shards:
                raise ValueError(
                    f"reconfig shard {event.shard} outside "
                    f"[0, {self.shards})")
            if not 0 <= event.at_slot < self.num_slots:
                raise ValueError(
                    f"reconfig at_slot {event.at_slot} outside "
                    f"[0, {self.num_slots})")

    def resolve_cell(self, cell) -> str:
        """Resolve an event's ``cell`` (index or name) to a cell name."""
        if isinstance(cell, int):
            return self.cell_name(cell)
        return cell

    def migrations(self) -> tuple:
        """The planner's migrate events, in ``at_slot`` order."""
        return tuple(sorted(
            (e for e in self.reconfig if e.action == "migrate"),
            key=lambda e: e.at_slot))

    @property
    def kind(self) -> _CellKind:
        return CELL_KINDS[self.cell_kind]

    @property
    def deadline_us(self) -> float:
        return self.kind.deadline_us

    def _cores_per_cell(self) -> float:
        return (self.cores_per_cell if self.cores_per_cell is not None
                else self.kind.cores_per_cell)

    def cell_name(self, global_index: int) -> str:
        """Fleet-wide stable name of cell ``global_index``."""
        return f"{self.kind.name_prefix}-c{global_index:04d}"

    def shard_sizes(self) -> list:
        """Balanced contiguous partition of ``cells`` into ``shards``."""
        quotient, remainder = divmod(self.cells, self.shards)
        return [quotient + (1 if i < remainder else 0)
                for i in range(self.shards)]

    def _shard_cells(self, base: int, count: int) -> tuple:
        factory = self.kind.factory
        return tuple(factory(name=self.cell_name(base + i))
                     for i in range(count))

    def derive_shards(self) -> list:
        """One :class:`~repro.scenario.Scenario` per server, in shard
        order."""
        shards = []
        base = 0
        ratio = self._cores_per_cell()
        for shard_index, count in enumerate(self.shard_sizes()):
            cells: tuple[CellConfig, ...] = self._shard_cells(base, count)
            pool = PoolConfig(
                cells=cells,
                num_cores=max(1, math.ceil(ratio * count - 1e-9)),
                deadline_us=self.kind.deadline_us,
            )
            # Route this shard's non-migrate events into its own
            # scenario timeline (migrate stays a planner verb); cell
            # indices resolve to fleet-wide names, and the shard field
            # drops — it has done its routing job.
            routed = tuple(
                dataclasses.replace(
                    event, shard=None,
                    cell=(None if event.cell is None
                          else self.resolve_cell(event.cell)))
                for event in self.reconfig
                if event.action != "migrate"
                and event.shard == shard_index)
            shards.append(Scenario(
                pool=pool,
                policy=self.policy,
                policy_params=dict(self.policy_params),
                workload=self.workload,
                load_fraction=self.load_fraction,
                seed=self.seed,
                allocation=self.allocation,
                harq=self.harq,
                cell_id_base=base,
                reconfig=routed,
            ))
            base += count
        return shards

    @property
    def provisioned_cores(self) -> int:
        """Total cores across all servers of the fleet."""
        ratio = self._cores_per_cell()
        return sum(max(1, math.ceil(ratio * count - 1e-9))
                   for count in self.shard_sizes())

    def to_dict(self) -> dict:
        payload = asdict(self)
        if self.reconfig:
            payload["reconfig"] = [e.to_dict() for e in self.reconfig]
            payload["schema"] = FLEET_RECONFIG_SCHEMA
        else:
            # An empty timeline serializes exactly as a pre-reconfig
            # fleet scenario (same invariant as Scenario.reconfig).
            del payload["reconfig"]
            payload["schema"] = FLEET_SCHEMA
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetScenario":
        if payload.get("schema") not in (FLEET_SCHEMA,
                                         FLEET_RECONFIG_SCHEMA):
            raise ValueError(
                f"unsupported fleet schema {payload.get('schema')!r}")
        fields_ = {k: v for k, v in payload.items() if k != "schema"}
        # The removed per-shard engine choice (see Scenario.from_dict).
        fields_.pop("engine_mode", None)
        return cls(**fields_)
