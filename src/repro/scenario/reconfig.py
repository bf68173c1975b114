"""Declarative reconfiguration events: the ``ReconfigEvent`` timeline.

Elastic reconfiguration — growing/shrinking a pool's worker set,
detaching/attaching a cell, migrating a cell between fleet shards — is
scripted as plain data so reconfig scenarios serialize, cache and
replay exactly like static ones.  A timeline is a tuple of
:class:`ReconfigEvent`, ordered by ``at_slot``; every event is applied
*at* that slot boundary, before the slot's DAGs are built.

Actions
-------
``add_worker`` / ``remove_worker``
    Grow/shrink the physical core set of one simulation's
    :class:`~repro.sim.pool.VranPool` by ``count`` workers.  In a
    fleet script, ``shard`` routes the event to one server.
``detach_cell`` / ``attach_cell``
    Quiesce the named cell at the slot boundary and set its live
    record (traffic, allocation, MAC and HARQ state) aside (outage
    scripting within one simulation); a later ``attach_cell`` of the
    same name resumes it where it stopped.
``migrate``
    Fleet-planner verb: move ``cell`` from ``src_shard`` to
    ``dst_shard`` at ``at_slot``, modelling migration cost —
    ``transfer_slots`` of state-transfer delay (the cell's DAGs are
    buffered, released late with their original deadlines → a bounded
    deadline-miss transient) followed by ``warmup_slots`` of predictor
    warm-up (WCET over-estimation by ``warmup_factor``).  ``cell`` may
    be a global cell index (resolved against the fleet's naming) or a
    cell name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["RECONFIG_ACTIONS", "ReconfigEvent", "load_reconfig_script",
           "reconfig_from_payload"]

#: Every action a timeline may contain.
RECONFIG_ACTIONS = ("add_worker", "remove_worker", "detach_cell",
                    "attach_cell", "migrate")

_CELL_ACTIONS = ("detach_cell", "attach_cell", "migrate")
_WORKER_ACTIONS = ("add_worker", "remove_worker")


@dataclass(frozen=True)
class ReconfigEvent:
    """One declarative reconfiguration step, applied at a slot boundary."""

    at_slot: int
    action: str
    #: Cell name (or, in fleet scripts, global cell index) for the
    #: cell-level actions; unused by worker actions.
    cell: Optional[Union[str, int]] = None
    #: Worker count for add_worker/remove_worker.
    count: int = 1
    #: Fleet routing for worker/detach/attach actions: which shard the
    #: event applies to (``None`` at simulation level).
    shard: Optional[int] = None
    #: Migration endpoints (migrate only).
    src_shard: Optional[int] = None
    dst_shard: Optional[int] = None
    #: Migration-cost model: slots of state-transfer delay during which
    #: the migrated cell's DAGs are buffered and released late...
    transfer_slots: int = 2
    #: ...then slots of predictor warm-up, during which the destination
    #: over-estimates the cell's WCETs by ``warmup_factor``.
    warmup_slots: int = 8
    warmup_factor: float = 1.5

    def __post_init__(self) -> None:
        if self.action not in RECONFIG_ACTIONS:
            raise ValueError(
                f"unknown reconfig action {self.action!r}; "
                f"known: {RECONFIG_ACTIONS}")
        if int(self.at_slot) != self.at_slot or self.at_slot < 0:
            raise ValueError(
                f"at_slot must be a non-negative integer, got "
                f"{self.at_slot!r}")
        object.__setattr__(self, "at_slot", int(self.at_slot))
        if self.action in _CELL_ACTIONS and self.cell is None:
            raise ValueError(f"{self.action} requires a cell")
        if self.action in _WORKER_ACTIONS and self.count < 1:
            raise ValueError(f"{self.action} count must be >= 1")
        if self.action == "migrate":
            if self.src_shard is None or self.dst_shard is None:
                raise ValueError("migrate requires src_shard and dst_shard")
            if self.src_shard == self.dst_shard:
                raise ValueError("migrate src_shard == dst_shard")
        if self.transfer_slots < 0 or self.warmup_slots < 0:
            raise ValueError("transfer_slots/warmup_slots must be >= 0")
        if self.warmup_factor < 1.0:
            raise ValueError("warmup_factor must be >= 1.0")

    def to_dict(self) -> dict:
        """JSON-able payload; only the fields the action uses."""
        payload: dict = {"action": self.action, "at_slot": self.at_slot}
        if self.action in _WORKER_ACTIONS:
            payload["count"] = self.count
        if self.action in _CELL_ACTIONS:
            payload["cell"] = self.cell
        if self.shard is not None:
            payload["shard"] = self.shard
        if self.action == "migrate":
            payload["src_shard"] = self.src_shard
            payload["dst_shard"] = self.dst_shard
        if self.action in ("migrate", "attach_cell"):
            payload["transfer_slots"] = self.transfer_slots
            payload["warmup_slots"] = self.warmup_slots
            payload["warmup_factor"] = self.warmup_factor
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ReconfigEvent":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown reconfig event fields: {sorted(unknown)}")
        return cls(**payload)


def reconfig_from_payload(events) -> tuple:
    """Normalize a serialized timeline into ``ReconfigEvent`` tuples."""
    out = []
    for event in events:
        if isinstance(event, ReconfigEvent):
            out.append(event)
        elif isinstance(event, dict):
            out.append(ReconfigEvent.from_dict(event))
        else:
            raise TypeError(
                f"reconfig events must be ReconfigEvent or dict, "
                f"got {event!r}")
    return tuple(out)


def load_reconfig_script(path) -> tuple:
    """Load a reconfig timeline from a JSON script file.

    Accepts either ``{"events": [...]}`` or a bare JSON list of event
    dicts; returns a tuple of :class:`ReconfigEvent`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload.get("events", [])
    if not isinstance(payload, list):
        raise ValueError(
            f"reconfig script must be a JSON list or {{'events': [...]}}: "
            f"{path}")
    return reconfig_from_payload(payload)
