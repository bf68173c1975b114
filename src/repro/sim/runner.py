"""End-to-end simulation harness.

``Simulation`` assembles the full system for one experiment: cells with
traffic generators, the DAG builder and cost model, the vRAN pool with
a scheduling policy, the OS and cache models, and the collocated
best-effort workloads.  ``run(num_slots)`` drives slot boundaries and
returns a :class:`SimulationResult` with everything the paper's figures
report.

What to build is described by a :class:`repro.scenario.Scenario`; the
legacy keyword constructor normalizes its arguments into one, so a
spec, a CLI invocation and a driver all assemble the system the same
way (prefer :func:`repro.scenario.build_simulation` for new code).

RNG-stream map — every stream is a ``SeedSequence`` child of the
scenario seed with a fixed ``spawn_key``, so streams are collision-safe
and independent of construction order:

=====================  ==========================================
spawn_key              purpose
=====================  ==========================================
(0,)                   cost-model scalar fallback draws
(1,)                   profiling-traffic byte draws
(2,)                   i.i.d. UE allocation splitting
(3,)                   OS wakeup-latency model
(4,)                   cache-interference model
(5,)                   workload mix controller
(6, cell, slot, dir)   per-DAG batched sampling (DagBuilder)
(7, cell)              per-cell traffic generators
(8, cell)              per-cell HARQ processes
(9, cell, dir)         per-cell/direction MAC pipelines
=====================  ==========================================

Fleet keying — when ``scenario.cell_id_base`` is set (the pool is one
cell-shard of a :mod:`repro.fleet` metro deployment), ``cell`` above
means the *global* cell id (``cell_id_base + local index``) and the
shared i.i.d. allocation stream ``(2,)`` becomes one counter-keyed
stream ``(2, cell)`` per cell.  Every per-cell stream then depends
only on ``(fleet seed, global cell id)``, never on which shard the
cell landed in, which is what makes per-cell sampling byte-identical
across arbitrary shardings.  The pool-level streams (0, 1, 3, 4, 5)
are keyed ``(k, cell_id_base)`` so distinct shards draw distinct
scheduling-side randomness.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..ran.config import PoolConfig, SlotType
from ..ran.dag import (DagBuilder, dag_kind_key, plan_task_rows,
                       topology_for_key)
from ..ran.harq import HarqConfig, HarqManager, _PendingRetransmission
from ..ran.mac import MacCell
from ..ran.tasks import CostModel
from ..ran.traffic import CellTraffic
from ..ran.ue import MCS_TABLE, SlotLoad, UeAllocation, bytes_to_allocations
from ..workloads.base import WorkloadHost
from ..workloads.catalog import MixController, make_workload
from .arraykernel import ArraySlotKernel
from .cache import CacheInterferenceModel
from .engine import Engine
from .metrics import LatencySummary, Metrics
from .osmodel import WakeupLatencyModel
from .policy import SchedulerPolicy
from .pool import VranPool

__all__ = ["RESULT_SCHEMAS", "Simulation", "SimulationResult"]

#: Result-payload schemas :meth:`SimulationResult.from_dict` can load.
#: Schema 1 predates the scenario layer (no ``scenario`` key); schema 2
#: embeds the serialized scenario that produced the result.
RESULT_SCHEMAS = (1, 2)

#: Fraction of a direction's traffic carried in a TDD special slot.
SPECIAL_SLOT_DL_SCALE = 0.5
SPECIAL_SLOT_UL_SCALE = 0.3

#: Target DAG-job count per window ``build_many`` batch.  The default
#: window width is this divided by the pool's jobs-per-slot (cells x
#: directions): wide enough to amortize the numpy fixed cost of a
#: batch, small enough that a window's prebuilt SlotLoads and task
#: instances stay cache-resident.  Measured on the bench workloads, a
#: ~64-job batch is the sweet spot at both ends — a 7-cell pool at
#: load 0.5 prefers short (4-slot) windows, a single idle cell prefers
#: long (32-slot) ones.
DEFAULT_WINDOW_JOBS = 64

#: Floor for the default window width in slots.
MIN_SLOT_WINDOW = 4


def _slot_directions(cell, slot_index: int) -> tuple:
    """(uplink, traffic-scale) pairs fired by ``cell`` in this slot.

    The window fill draws one load per pair, in this order, and counts
    the pairs to size each per-(cell, direction) generator's batched
    traffic draw.
    """
    slot_type = cell.slot_type(slot_index)
    if slot_type is SlotType.FULL_DUPLEX:
        return ((True, 1.0), (False, 1.0))
    if slot_type is SlotType.UPLINK:
        return ((True, 1.0),)
    if slot_type is SlotType.DOWNLINK:
        return ((False, 1.0),)
    if slot_type is SlotType.SPECIAL:
        return ((True, SPECIAL_SLOT_UL_SCALE),
                (False, SPECIAL_SLOT_DL_SCALE))
    return ()


@dataclass
class SimulationResult:
    """Everything measured in one simulation run."""

    policy_name: str
    workload_name: str
    load_fraction: float
    num_slots: int
    duration_us: float
    latency: LatencySummary
    reclaimed_fraction: float
    idle_upper_bound: float
    vran_utilization: float
    scheduling_events: int
    wakeup_histogram: dict
    workload_ops: dict
    workload_rates_per_s: dict
    preemptions_per_core_ms: float
    mean_stall_increase: float
    metrics: Metrics = field(repr=False)
    pool: VranPool = field(repr=False)
    #: HARQ statistics (only when the simulation ran with harq=True).
    harq: Optional[dict] = None
    #: JSON-able registry snapshot (repro.obs): event counters, the
    #: wakeup-latency histogram, core-time gauges and scheduler
    #: overhead counters.  Unlike ``metrics``/``pool`` this survives
    #: the repro.exec result cache.
    telemetry: dict = field(default_factory=dict, repr=False)
    #: Serialized :class:`repro.scenario.Scenario` that produced this
    #: result (schema-2 payloads; None when loaded from schema 1).
    scenario: Optional[dict] = None

    @property
    def meets_five_nines(self) -> bool:
        return self.latency.meets_five_nines

    def to_dict(self) -> dict:
        """JSON-able payload for the on-disk result cache.

        Captures every scalar series the figure drivers consume; the
        live ``metrics``/``pool`` objects are deliberately dropped —
        a result rebuilt by :meth:`from_dict` carries None for both,
        and callers that need them must bypass the cache
        (``run_simulation(..., use_cache=False)``).
        """
        latency = self.latency
        return {
            "schema": 2,
            "policy_name": self.policy_name,
            "workload_name": self.workload_name,
            "load_fraction": self.load_fraction,
            "num_slots": self.num_slots,
            "duration_us": self.duration_us,
            "latency": {
                "count": latency.count,
                "mean_us": latency.mean_us,
                "p50_us": latency.p50_us,
                "p99_us": latency.p99_us,
                "p9999_us": latency.p9999_us,
                "p99999_us": latency.p99999_us,
                "max_us": latency.max_us,
                "deadline_us": latency.deadline_us,
                "miss_fraction": latency.miss_fraction,
            },
            "reclaimed_fraction": self.reclaimed_fraction,
            "idle_upper_bound": self.idle_upper_bound,
            "vran_utilization": self.vran_utilization,
            "scheduling_events": self.scheduling_events,
            "wakeup_histogram": dict(self.wakeup_histogram),
            "workload_ops": dict(self.workload_ops),
            "workload_rates_per_s": dict(self.workload_rates_per_s),
            "preemptions_per_core_ms": self.preemptions_per_core_ms,
            "mean_stall_increase": self.mean_stall_increase,
            "harq": self.harq,
            "telemetry": self.telemetry,
            "scenario": self.scenario,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` (metrics/pool = None).

        Accepts every schema in :data:`RESULT_SCHEMAS`; anything else
        (including newer schemas written by a later version) raises
        ``ValueError`` so callers such as the exec result cache can
        treat the payload as a miss instead of misreading it.
        """
        if payload.get("schema") not in RESULT_SCHEMAS:
            raise ValueError(
                f"unsupported result schema {payload.get('schema')!r}")
        return cls(
            policy_name=payload["policy_name"],
            workload_name=payload["workload_name"],
            load_fraction=payload["load_fraction"],
            num_slots=payload["num_slots"],
            duration_us=payload["duration_us"],
            latency=LatencySummary(**payload["latency"]),
            reclaimed_fraction=payload["reclaimed_fraction"],
            idle_upper_bound=payload["idle_upper_bound"],
            vran_utilization=payload["vran_utilization"],
            scheduling_events=payload["scheduling_events"],
            wakeup_histogram=dict(payload["wakeup_histogram"]),
            workload_ops=dict(payload["workload_ops"]),
            workload_rates_per_s=dict(payload["workload_rates_per_s"]),
            preemptions_per_core_ms=payload["preemptions_per_core_ms"],
            mean_stall_increase=payload["mean_stall_increase"],
            metrics=None,
            pool=None,
            harq=payload["harq"],
            telemetry=dict(payload.get("telemetry", {})),
            scenario=payload.get("scenario"),
        )


def _stream_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Independent generator for one RNG stream of a simulation.

    Streams are ``SeedSequence`` children of the scenario seed with an
    explicit ``spawn_key`` (see the module docstring for the map), so
    every stream is collision-safe, reproducible, and independent of
    how many other streams exist or the order they are created in —
    adding a cell or an optional subsystem never shifts another
    stream's draws.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


class Simulation:
    """One configured experiment: pool + policy + traffic + workloads.

    Prefer :func:`repro.scenario.build_simulation`; the keyword
    constructor is kept for existing call sites and normalizes its
    arguments into a :class:`~repro.scenario.Scenario` so both paths
    assemble the identical object graph.
    """

    def __init__(
        self,
        pool_config: PoolConfig,
        policy: SchedulerPolicy,
        workload: str = "none",
        load_fraction: float = 0.5,
        seed: int = 0,
        profiling_traffic: bool = False,
        mix_interval_us: tuple[float, float] = (0.5e6, 2.0e6),
        allocation_mode: str = "iid",
        harq: bool = False,
        event_bus=None,
        scenario=None,
    ) -> None:
        # Lazy: repro.scenario imports this module for build_simulation.
        from ..scenario.scenario import Scenario

        if scenario is None:
            if allocation_mode not in ("iid", "mac"):
                raise ValueError("allocation_mode must be 'iid' or 'mac'")
            scenario = Scenario(
                pool=pool_config,
                policy=getattr(policy, "name", "custom"),
                workload=workload,
                load_fraction=load_fraction,
                seed=seed,
                traffic="profiling" if profiling_traffic else "model",
                allocation=allocation_mode,
                harq=harq,
                mix_interval_us=mix_interval_us,
            )
        self.scenario = scenario
        self.allocation_mode = scenario.allocation
        self.pool_config = pool_config
        self.policy = policy
        self.workload_name = scenario.workload
        self.load_fraction = scenario.load_fraction
        self.profiling_traffic = scenario.profiling_traffic
        seed = scenario.seed
        workload = scenario.workload
        load_fraction = scenario.load_fraction
        allocation_mode = scenario.allocation
        mix_interval_us = scenario.mix_interval_us
        harq = scenario.harq
        # Fleet keying (see module docstring): a cell-shard keys every
        # per-cell stream by the global cell id and pool-level streams
        # by the shard's base, so cell-level sampling is independent of
        # how the metro deployment was sharded.
        base = scenario.cell_id_base
        self._cell_id_base = 0 if base is None else base
        fleet = base is not None
        pool_key = (base,) if fleet else ()
        self._rng_cost = _stream_rng(seed, 0, *pool_key)
        self._rng_traffic = _stream_rng(seed, 1, *pool_key)
        self._rng_os = _stream_rng(seed, 3, *pool_key)
        self._rng_cache = _stream_rng(seed, 4, *pool_key)
        self._rng_mix = _stream_rng(seed, 5, *pool_key)
        if fleet:
            # One counter-keyed allocation stream per cell: within a
            # cell the draw order (slot, then direction) is fixed, so
            # the stream never observes other cells' draws.
            self._rng_alloc = None
            self._rng_alloc_cells = [
                _stream_rng(seed, 2, base + index)
                for index in range(len(pool_config.cells))
            ]
        else:
            self._rng_alloc = _stream_rng(seed, 2)
            self._rng_alloc_cells = None

        self.engine = Engine()
        self.cost_model = CostModel(rng=self._rng_cost)
        self.builder = DagBuilder(
            self.cost_model, rng=self._rng_alloc,
            seed_seq=np.random.SeedSequence(entropy=seed, spawn_key=(6,)))
        self.metrics = Metrics(pool_config.num_cores)
        cache_model = CacheInterferenceModel(rng=self._rng_cache)
        self.event_bus = event_bus
        self.pool = VranPool(
            engine=self.engine,
            config=pool_config,
            policy=policy,
            cost_model=self.cost_model,
            os_model=WakeupLatencyModel(rng=self._rng_os),
            cache_model=cache_model,
            metrics=self.metrics,
            event_bus=event_bus,
        )
        # Completed DAGs hand their task instances back to the
        # builder's pool (lazily scavenged at the next slot boundary;
        # the pool disables recycling while task_observers hold
        # references past DAG completion).
        self.pool.dag_recycler = self.builder.recycle_dag
        self.host = WorkloadHost(make_workload(workload),
                                 cache_model=cache_model)
        self.pool.set_available_listener(self.host.on_available_change)
        self.pool.set_best_effort_occupancy(self.host.has_active_occupant)
        if workload == "mix":
            MixController(
                self.engine, self.host,
                min_interval_us=mix_interval_us[0],
                max_interval_us=mix_interval_us[1],
                rng=self._rng_mix,
            )
        cell_base = self._cell_id_base
        self.traffic = [
            CellTraffic.for_cell(
                cell, load_fraction,
                rng=_stream_rng(seed, 7, cell_base + index),
            )
            for index, cell in enumerate(pool_config.cells)
        ]
        # Optional HARQ loop: failed uplink transport blocks come back
        # as retransmissions a few slots later.
        self._harq: dict = {}
        if harq:
            for index in range(len(pool_config.cells)):
                self._harq[index] = HarqManager(
                    rng=_stream_rng(seed, 8, cell_base + index))
        # Optional MAC-layer allocation pipeline (buffer-driven PF
        # scheduling instead of i.i.d. byte splitting).
        self._mac: dict = {}
        if allocation_mode == "mac":
            for index, cell in enumerate(pool_config.cells):
                for uplink in (True, False):
                    rate = (cell.avg_ul_mbps if uplink
                            else cell.avg_dl_mbps) * 1e6 * load_fraction
                    if cell.duplex.value == "tdd":
                        share = cell.direction_share(uplink)
                        if share > 0:
                            rate /= share
                    self._mac[(index, uplink)] = MacCell(
                        cell,
                        num_ues=cell.max_ues_per_slot,
                        total_rate_bps=rate,
                        rng=_stream_rng(seed, 9, cell_base + index,
                                        int(uplink)),
                    )
        #: Optional hook called once per slot at window-fill time with
        #: ``(jobs, costed, span)``: the window's build jobs, its
        #: ``DagBuilder.costed_rows`` columns and the slot's span of
        #: them.  It reads rows, so it forces no DAG build.  The fleet
        #: layer attaches a demand recorder here to compute per-cell
        #: sampling digests and federated core-demand rollups.
        self.demand_observer = None
        # Mutable cell membership (elastic reconfiguration).  These
        # parallel lists are the slot pipeline's source of truth —
        # ``pool_config`` stays the frozen as-built description.
        # Index i of _cell_list/_cell_gids/traffic/_rng_alloc_cells/
        # _harq all refer to the same attached cell.
        self._cell_list = list(pool_config.cells)
        self._cell_gids = list(
            range(cell_base, cell_base + len(pool_config.cells)))
        #: Snapshots stashed by a timeline ``detach_cell``, keyed by
        #: cell name, for a later ``attach_cell`` (outage scripting).
        self.detached_cells: dict = {}
        # Migration-cost model state: cells whose freshly built DAGs
        # are buffered until a hold slot (state-transfer delay), and
        # cells whose WCET predictions are inflated while the
        # destination's predictor warms up.
        self._held_cells: dict = {}
        self._backlog: list = []
        self._warm_cells: dict = {}
        #: Slot indices the window kernel must not pre-draw across
        #: (reconfiguration barriers).
        self._window_barriers: set = set()
        self._reconfig_queue: list = []
        self._started = False
        self._run_start = 0.0
        self._end_time = 0.0
        self._num_slots = 0
        self._slot_index = 0
        self._slots_remaining = 0
        self._slot_event = None
        self._slot_us = pool_config.slot_duration_us
        #: Slot window (ROADMAP item 1): number of future slots (at
        #: least 1) whose traffic, allocations and HARQ state are drawn
        #: and whose DAGs are built or planned in one pass.  Every
        #: traffic and allocation mode is sourced this way; the width
        #: never changes a result (see :meth:`_fill_window`).
        self.slot_window = max(
            MIN_SLOT_WINDOW,
            DEFAULT_WINDOW_JOBS // max(1, 2 * len(pool_config.cells)))
        #: One ``(dags, plan, source, idle)`` entry per drawn slot.
        #: A slot either has built ``dags`` or a
        #: :class:`repro.sim.arraykernel.SlotPlan`, built at fill time
        #: so the boundary hot path only checks dynamic gates.  A
        #: planned slot keeps its ``source`` (the window's jobs and
        #: costed columns, and the slot's span of them): the boundary
        #: either commits it in closed form without ever building its
        #: DAGs, or builds them from those columns
        #: (:meth:`_build_source`).
        self._window: deque = deque()
        # kind_key -> (topology template, memory-bound flags): the task
        # *type* sequence is fully determined by the kind key, so this
        # per-row metadata is shared by every DAG of a kind.
        self._plan_kind_meta: dict = {}
        self.kernel_stats = {
            "slots": 0,          # slot boundaries fired
            "idle_slots": 0,     # of those, slots with zero bytes
            "windows": 0,        # window fills
            "array_slots": 0,    # slots taken by the array kernel
            "vector_slots": 0,   # of those, closed-form vector commits
        }
        #: Wall-clock phase accounting (window fill, end-of-run latency
        #: fold), read by the per-layer split of ``bench/run.py --trace``.
        self.fill_wall_s = 0.0
        self.summary_wall_s = 0.0
        #: Array-timeline kernel: commits certified slots in closed
        #: form inside the boundary callback, bypassing the event heap,
        #: wherever the static gates of :meth:`start` hold.  Slots it
        #: cannot certify take the event path mid-run, so results are
        #: byte-identical to an all-event run (see
        #: repro.sim.arraykernel).
        self._array_kernel = ArraySlotKernel(self)
        self._use_array = False

    # -- slot driving --------------------------------------------------------------

    def _fill_window(self) -> None:
        """Draw the coming window's slots and plan or build each one.

        One pass: draw every slot's loads; compute the window's cost
        rows, one base-cost batch and one draw of every DAG's
        randomness (:meth:`DagBuilder.costed_rows`); hand each slot's
        rows to the demand observer; when the array kernel is on, plan
        the slots that pass its base-cost gate (:meth:`_plan_slots`);
        then build, in one ``build_many`` from the same columns, the
        DAGs of every slot without a plan.

        Byte-identity invariants (what makes this a kernel and not a
        model change):

        * every load is drawn in the loop below, slot-major,
          cell-major, direction-minor: the per-slot total order, so the
          shared i.i.d. allocation and profiling-traffic streams see
          the same sequence at any width (fleet shards use per-cell
          allocation streams, which only need the per-cell slot order);
        * each per-(cell, direction) model-traffic generator owns a
          private stream consumed in slot order, so one batched
          ``next_slots(n)`` call replays exactly the per-slot draws;
        * MAC pipelines and HARQ draw from per-cell streams and read
          only the allocations, never an execution outcome, so they
          can run ahead of the timeline;
        * release timestamps replay the engine's recurring-timer float
          accumulation (``t += slot_us``), so deadlines are bit-equal;
        * per-DAG sampling streams are counter-keyed by
          (cell, slot, direction), so drawing a whole window at once
          cannot reorder any draw.

        Profiling traffic and MAC allocation draw inline rather than
        in a batch: profiling draws from one shared stream whose draw
        count per load is data-dependent (an idle draw skips the byte
        draw), and a MAC pipeline's buffer state advances one
        ``step()`` at a time.
        """
        wall_start = time.perf_counter()
        count = self._slots_remaining
        if count > self.slot_window:
            count = self.slot_window
        start_slot = self._slot_index
        # Never pre-draw across a reconfiguration barrier: cell
        # membership (and hence the draw plan) may change there.  The
        # clamp only narrows window widths — each generator still
        # consumes its draws in exact slot order — so digests are
        # unaffected; with an empty timeline there are no barriers and
        # the widths are exactly the legacy ones.
        for barrier in self._window_barriers:
            if start_slot < barrier < start_slot + count:
                count = barrier - start_slot
        cells = self._cell_list
        mac = self._mac
        profiling = self.profiling_traffic
        # Directions per cell and slot, then (model traffic) one
        # batched draw per (cell, direction) generator covering the
        # window.
        cell_dirs = []
        draws = []
        for cell_index, cell in enumerate(cells):
            dirs_by_slot = [_slot_directions(cell, start_slot + rel)
                            for rel in range(count)]
            cell_dirs.append(dirs_by_slot)
            per_dir = {}
            if not (mac or profiling):
                generator = self.traffic[cell_index]
                for uplink in (True, False):
                    needed = sum(1 for dirs in dirs_by_slot
                                 for u, _ in dirs if u == uplink)
                    if needed:
                        source = (generator.uplink if uplink
                                  else generator.downlink)
                        per_dir[uplink] = iter(
                            source.next_slots(needed).tolist())
            draws.append(per_dir)
        jobs = []
        job_counts = []
        idle_flags = []
        gids = self._cell_gids
        harq = self._harq
        alloc_cells = self._rng_alloc_cells
        shared_alloc = self._rng_alloc
        rng_traffic = self._rng_traffic
        deadline_us = self.pool_config.deadline_us
        slot_us = self._slot_us
        release = self.engine.now
        slot_meta = []
        for rel in range(count):
            slot_index = start_slot + rel
            deadline = release + deadline_us
            slot_meta.append((release, deadline))
            n_jobs = 0
            idle = True
            for cell_index, cell in enumerate(cells):
                per_dir = draws[cell_index]
                alloc_rng = (shared_alloc if alloc_cells is None
                             else alloc_cells[cell_index])
                for uplink, scale in cell_dirs[cell_index][rel]:
                    if mac:
                        allocations = mac[(cell_index, uplink)].step()
                    else:
                        if not profiling:
                            total = int(next(per_dir[uplink]) * scale)
                        elif rng_traffic.random() < 0.1:
                            # Offline profiling sweeps the input space
                            # uniformly (paper §4.2: parameters varied
                            # every TTI), idle one TTI in ten.
                            total = 0
                        else:
                            total = int(rng_traffic.uniform(
                                0, cell.peak_bytes_per_slot(uplink))
                                * scale)
                        allocations = bytes_to_allocations(
                            total, alloc_rng,
                            max_ues=cell.max_ues_per_slot,
                            max_layers=cell.max_layers,
                        )
                    if uplink and cell_index in harq:
                        allocations = harq[cell_index].process_slot(
                            slot_index, allocations)
                    if allocations:
                        idle = False
                    jobs.append((SlotLoad(cell_name=cell.name,
                                          slot_index=slot_index,
                                          uplink=uplink,
                                          allocations=allocations),
                                 cell, release, deadline,
                                 gids[cell_index]))
                    n_jobs += 1
            job_counts.append(n_jobs)
            idle_flags.append(idle)
            release += slot_us
        # Every per-task number, once per window: one base-cost batch
        # and one draw of every DAG's randomness.
        builder = self.builder
        job_rows = [plan_task_rows(job[0], job[1]) for job in jobs]
        costed = builder.costed_rows(jobs, job_rows)
        # Per slot: (first job, end job, first row, end row).
        row_ends = list(itertools.accumulate(map(len, job_rows)))
        spans = []
        first = row = 0
        for n_jobs in job_counts:
            end = first + n_jobs
            row_end = row_ends[end - 1] if n_jobs else row
            spans.append((first, end, row, row_end))
            first = end
            row = row_end
        observer = self.demand_observer
        if observer is not None:
            for span in spans:
                observer(jobs, costed, span)
        if self._use_array and self._array_kernel.lazy_ok():
            plans = self._plan_slots(jobs, job_rows, costed, spans,
                                     slot_meta)
        else:
            plans = [None] * count
        # One batched build, from the same columns, for every slot
        # without a plan.
        mat_jobs = []
        mat_costed = tuple([] for _ in costed)
        for (first, end, row, row_end), plan in zip(spans, plans):
            if plan is None:
                mat_jobs.extend(jobs[first:end])
                for mat, column in zip(mat_costed, costed):
                    mat.extend(column[row:row_end])
        built = builder.build_many(mat_jobs, mat_costed) if mat_jobs else []
        window = self._window
        pos = 0
        for span, plan, idle in zip(spans, plans, idle_flags):
            if plan is None:
                n_jobs = span[1] - span[0]
                window.append((built[pos:pos + n_jobs], None, None, idle))
                pos += n_jobs
            else:
                window.append((None, plan, (jobs, costed, span), idle))
        self.kernel_stats["windows"] += 1
        self.fill_wall_s += time.perf_counter() - wall_start

    def _plan_slots(self, jobs: list, job_rows: list, costed: tuple,
                    spans: list, slot_meta: list) -> list:
        """One :class:`repro.sim.arraykernel.SlotPlan` (or None) per slot.

        ``costed`` holds the window's :meth:`DagBuilder.costed_rows`
        columns and ``spans`` each slot's (first job, end job, first
        row, end row).  A slot that fails the base-cost gate gets no
        topology lookup and no plan; the others are planned from their
        rows, base costs and multipliers — exactly the values a build
        of the same jobs assigns.
        """
        kernel = self._array_kernel
        base_gate = kernel.base_gate
        build_plan = kernel.build_plan
        slot_us = self._slot_us
        costs, mults = costed[0], costed[5]
        kind_meta = self._plan_kind_meta
        plans = []
        for (first, end, row, row_end), (release, deadline) in zip(
                spans, slot_meta):
            bases = costs[row:row_end]
            if not base_gate(bases, release, deadline, slot_us):
                plans.append(None)
                continue
            kinds = []
            topos = []
            membound = []
            for jj in range(first, end):
                kind = dag_kind_key(jobs[jj][0])
                meta = kind_meta.get(kind)
                if meta is None:
                    meta = kind_meta[kind] = (
                        topology_for_key(kind),
                        [task_row[0].is_memory_bound
                         for task_row in job_rows[jj]])
                kinds.append(kind)
                topos.append(meta[0])
                membound.extend(meta[1])
            plans.append(build_plan(tuple(kinds), topos, bases,
                                    mults[row:row_end], membound, release,
                                    deadline, slot_us))
        return plans

    def _build_source(self, source: tuple) -> list:
        """Build one planned slot's DAGs from its window ``source``."""
        jobs, costed, (first, end, row, row_end) = source
        return self.builder.build_many(
            jobs[first:end], tuple(column[row:row_end] for column in costed))

    def _on_slot_boundary(self) -> None:
        if self._reconfig_queue:
            queue = self._reconfig_queue
            if queue[0].at_slot <= self._slot_index:
                self._apply_due_reconfig()
        stats = self.kernel_stats
        stats["slots"] += 1
        window = self._window
        if not window:
            self._fill_window()
        dags, plan, source, idle = window.popleft()
        if idle:
            stats["idle_slots"] += 1
        holds = self._held_cells or self._backlog
        if dags is None and (holds or self._warm_cells):
            # A hold changes the slot's DAG list and inflated WCETs
            # invalidate a plan's fold: build, and take the event path.
            dags = self._build_source(source)
        if holds:
            dags = self._apply_migration_holds(dags)
        if self._warm_cells:
            self._apply_predictor_warmup(dags)
        self._slot_index += 1
        self._slots_remaining -= 1
        pool = self.pool
        if self._slots_remaining == 0:
            if self._slot_event is not None:
                # Last requested slot: stop the periodic source so the
                # drain window does not release extra TTIs.
                self._slot_event.cancel()
                self._slot_event = None
            pool._quiet_until = math.inf
        else:
            # The pool is guaranteed no new work until the next
            # boundary — the tick-batching fast path keys off this.
            pool._quiet_until = self.engine.now + self._slot_us
        if self._use_array:
            kernel = self._array_kernel
            if dags is None:
                if kernel.try_vector(plan):
                    stats["array_slots"] += 1
                    return
                # Dynamic rejection of a planned slot: build its DAGs
                # now from the window's columns for the event path.
                dags = self._build_source(source)
            else:
                kernel.replay(dags)
            pool.release_slot(dags)
            # A boundary-coincident tick parked by a previous commit
            # fires right after the boundary on the event path.
            kernel.after_fallback_release()
            return
        pool.release_slot(dags)

    # -- reconfiguration (elastic runtime) ---------------------------------------

    def _apply_due_reconfig(self) -> None:
        """Apply every timeline event due at the current slot boundary."""
        queue = self._reconfig_queue
        while queue and queue[0].at_slot <= self._slot_index:
            event = queue.pop(0)
            action = event.action
            if action == "add_worker":
                for _ in range(event.count):
                    self.pool.add_worker()
            elif action == "remove_worker":
                for _ in range(event.count):
                    self.pool.remove_worker()
            elif action == "detach_cell":
                self.detached_cells[event.cell] = self.detach_cell(event.cell)
            elif action == "attach_cell":
                try:
                    snapshot = self.detached_cells.pop(event.cell)
                except KeyError:
                    raise ValueError(
                        f"attach_cell {event.cell!r}: no detached "
                        f"snapshot of that name") from None
                self.attach_cell(
                    snapshot,
                    transfer_slots=event.transfer_slots,
                    warmup_slots=event.warmup_slots,
                    warmup_factor=event.warmup_factor,
                )
            else:  # pragma: no cover - migrate rejected in start()
                raise ValueError(f"unexpected timeline action {action!r}")

    def _apply_migration_holds(self, dags: list) -> list:
        """State-transfer delay: buffer held cells' DAGs, release late.

        A freshly attached cell's DAGs are drawn and demand-observed on
        schedule (so per-cell sampling digests are unchanged by the
        migration) but withheld from the pool for ``transfer_slots``
        boundaries, then released with their *original* deadlines — the
        bounded deadline-miss transient of the migration-cost model.
        """
        slot = self._slot_index
        held = self._held_cells
        for name in [n for n, until in held.items() if until <= slot]:
            del held[name]
        if self._backlog:
            still = []
            released = []
            for name, dag in self._backlog:
                if name in held:
                    still.append((name, dag))
                else:
                    released.append(dag)
            self._backlog = still
            if released:
                dags = released + dags
        if held:
            keep = []
            backlog = self._backlog
            for dag in dags:
                if dag.cell_name in held:
                    backlog.append((dag.cell_name, dag))
                else:
                    keep.append(dag)
            dags = keep
        return dags

    def _apply_predictor_warmup(self, dags: list) -> None:
        """Predictor warm-up: inflate a migrated cell's WCET predictions.

        For ``warmup_slots`` after the transfer the destination's
        predictor has no history for the cell, modelled as conservative
        over-estimation: the scheduling policy multiplies its per-task
        WCET predictions by ``dag.wcet_inflation``.  Sampling streams
        and ground-truth runtimes are untouched, so demand digests are
        unaffected.
        """
        slot = self._slot_index
        warm = self._warm_cells
        for name in [n for n, (until, _) in warm.items() if until <= slot]:
            del warm[name]
        if not warm:
            return
        for dag in dags:
            entry = warm.get(dag.cell_name)
            if entry is not None:
                dag.wcet_inflation = entry[1]

    def detach_cell(self, name: str) -> dict:
        """Quiesce cell ``name`` at a slot boundary; return its snapshot.

        The snapshot is plain data (JSON-able apart from the numpy
        BitGenerator state dicts) carrying everything another
        :class:`Simulation` needs to resume the cell mid-run with
        byte-identical sampling: the cell config, global cell id, the
        exact traffic/allocation/HARQ generator states and the pending
        HARQ retransmissions.  Must be called at a slot boundary the
        window kernel was told about (a timeline event's slot, or
        :meth:`add_window_barrier` before the run) so no draws for the
        cell have been made beyond the current slot.
        """
        if self.profiling_traffic:
            raise ValueError(
                "detach_cell requires model traffic (profiling mode "
                "draws from one shared stream)")
        if self.allocation_mode == "mac":
            raise ValueError(
                "detach_cell requires i.i.d. allocation (MAC pipelines "
                "hold non-portable buffer state)")
        if self._window:
            raise ValueError(
                "detach_cell mid-window: the detach slot must be a "
                "window barrier (timeline events register theirs; "
                "planners call add_window_barrier before the run)")
        # The snapshot boundary must see fully applied metrics.
        self._array_kernel.flush_pending()
        for index, cell in enumerate(self._cell_list):
            if cell.name == name:
                break
        else:
            raise ValueError(f"no attached cell named {name!r}")
        # Lazy: repro.scenario imports this module for build_simulation.
        from ..scenario.scenario import cell_config_to_dict

        del self._cell_list[index]
        gid = self._cell_gids.pop(index)
        traffic = self.traffic.pop(index)
        alloc_state = None
        if self._rng_alloc_cells is not None:
            alloc_state = self._rng_alloc_cells.pop(index).bit_generator.state
        harq = self._harq.pop(index, None)
        # Re-index the HARQ dict: entries above the removed cell shift
        # down with their cells.
        self._harq = {(i if i < index else i - 1): manager
                      for i, manager in self._harq.items()}
        self._held_cells.pop(name, None)
        self._warm_cells.pop(name, None)
        if self._backlog:
            self._backlog = [(n, d) for n, d in self._backlog if n != name]
        snapshot = {
            "schema": 1,
            "cell": cell_config_to_dict(cell),
            "global_id": gid,
            "seed": self.scenario.seed,
            "load_fraction": self.load_fraction,
            "slot_index": self._slot_index,
            "harq_enabled": harq is not None,
            "traffic": {
                "uplink": {
                    "rng_state": traffic.uplink.rng.bit_generator.state,
                    "active": bool(traffic.uplink._active),
                },
                "downlink": {
                    "rng_state": traffic.downlink.rng.bit_generator.state,
                    "active": bool(traffic.downlink._active),
                },
            },
        }
        if alloc_state is not None:
            snapshot["alloc_rng_state"] = alloc_state
        if harq is not None:
            snapshot["harq"] = {
                "rng_state": harq.rng.bit_generator.state,
                "config": {
                    "rtt_slots": harq.config.rtt_slots,
                    "max_attempts": harq.config.max_attempts,
                    "combining_gain_db": harq.config.combining_gain_db,
                },
                "pending": [
                    {
                        "due_slot": p.due_slot,
                        "attempt": p.attempt,
                        "ue_id": p.allocation.ue_id,
                        "tbs_bytes": p.allocation.tbs_bytes,
                        "mcs_index": p.allocation.mcs.index,
                        "layers": p.allocation.layers,
                        "snr_db": p.allocation.snr_db,
                    }
                    for p in harq._pending
                ],
                "transport_blocks": harq.transport_blocks,
                "retransmissions": harq.retransmissions,
                "failures": harq.failures,
                "residual_losses": harq.residual_losses,
            }
        return snapshot

    def attach_cell(self, snapshot: dict, *, transfer_slots: int = 0,
                    warmup_slots: int = 0,
                    warmup_factor: float = 1.5) -> None:
        """Resume a detached cell from its snapshot, in this simulation.

        The cell's generators are rebuilt from the (seed, global id)
        stream map and then overwritten with the snapshot's exact
        states, so its sampling continues byte-identically no matter
        which simulation it lands in — the portability invariant behind
        fleet migration.  ``transfer_slots``/``warmup_slots`` apply the
        migration-cost model (state-transfer hold, then predictor
        warm-up by ``warmup_factor``); zero (the default) attaches with
        no transient.
        """
        if snapshot.get("schema") != 1:
            raise ValueError(
                f"unsupported cell snapshot schema "
                f"{snapshot.get('schema')!r}")
        if snapshot["seed"] != self.scenario.seed:
            raise ValueError(
                f"cell snapshot seed {snapshot['seed']} != scenario "
                f"seed {self.scenario.seed}; portable state requires "
                f"the same stream map")
        if snapshot["slot_index"] > self._slot_index:
            raise ValueError(
                f"cell snapshot from slot {snapshot['slot_index']} is "
                f"ahead of this simulation (slot {self._slot_index})")
        if self._window:
            raise ValueError(
                "attach_cell mid-window: the attach slot must be a "
                "window barrier (timeline events register theirs; "
                "planners call add_window_barrier before the run)")
        self._array_kernel.flush_pending()
        # Lazy: repro.scenario imports this module for build_simulation.
        from ..scenario.scenario import cell_config_from_dict

        cell = cell_config_from_dict(snapshot["cell"])
        if any(c.name == cell.name for c in self._cell_list):
            raise ValueError(f"cell {cell.name!r} is already attached")
        gid = snapshot["global_id"]
        seed = snapshot["seed"]
        traffic = CellTraffic.for_cell(
            cell, snapshot["load_fraction"], rng=_stream_rng(seed, 7, gid))
        for direction, source in (("uplink", traffic.uplink),
                                  ("downlink", traffic.downlink)):
            state = snapshot["traffic"][direction]
            source.rng.bit_generator.state = state["rng_state"]
            source._active = state["active"]
        if self._rng_alloc_cells is not None:
            if "alloc_rng_state" not in snapshot:
                raise ValueError(
                    "cell snapshot lacks a per-cell allocation stream; "
                    "it was detached from a non-fleet simulation")
            alloc_rng = _stream_rng(seed, 2, gid)
            alloc_rng.bit_generator.state = snapshot["alloc_rng_state"]
            self._rng_alloc_cells.append(alloc_rng)
        index = len(self._cell_list)
        self._cell_list.append(cell)
        self._cell_gids.append(gid)
        self.traffic.append(traffic)
        if snapshot["harq_enabled"]:
            payload = snapshot["harq"]
            manager = HarqManager(
                config=HarqConfig(**payload["config"]),
                rng=_stream_rng(seed, 8, gid))
            manager.rng.bit_generator.state = payload["rng_state"]
            manager._pending = [
                _PendingRetransmission(
                    due_slot=p["due_slot"],
                    allocation=UeAllocation(
                        ue_id=p["ue_id"],
                        tbs_bytes=p["tbs_bytes"],
                        mcs=MCS_TABLE[p["mcs_index"]],
                        layers=p["layers"],
                        snr_db=p["snr_db"],
                    ),
                    attempt=p["attempt"],
                )
                for p in payload["pending"]
            ]
            manager.transport_blocks = payload["transport_blocks"]
            manager.retransmissions = payload["retransmissions"]
            manager.failures = payload["failures"]
            manager.residual_losses = payload["residual_losses"]
            self._harq[index] = manager
        if transfer_slots > 0:
            self._held_cells[cell.name] = self._slot_index + transfer_slots
        if warmup_slots > 0:
            self._warm_cells[cell.name] = (
                self._slot_index + transfer_slots + warmup_slots,
                float(warmup_factor),
            )

    # -- the run loop ------------------------------------------------------------

    def start(self, num_slots: int) -> None:
        """Begin a segmented run of ``num_slots`` TTIs.

        ``start`` / :meth:`run_to_barrier` / :meth:`run_to_end` /
        :meth:`finish` decompose :meth:`run` so an external driver (the
        fleet planner's lockstep migration) can pause every simulation
        at the same slot boundary, move cells between them, and resume
        — with the composition byte-identical to one ``run`` call.
        """
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if self._started:
            raise ValueError("simulation already started")
        self._started = True
        timeline = sorted(self.scenario.reconfig, key=lambda e: e.at_slot)
        for event in timeline:
            if event.action == "migrate":
                raise ValueError(
                    "migrate is a fleet-planner verb; a single "
                    "simulation's timeline uses detach_cell/attach_cell")
            if not 0 <= event.at_slot < num_slots:
                raise ValueError(
                    f"reconfig at_slot {event.at_slot} outside "
                    f"[0, {num_slots})")
            if event.action in ("detach_cell", "attach_cell"):
                self._window_barriers.add(event.at_slot)
        self._reconfig_queue = timeline
        start = self.engine.now
        self._run_start = start
        self._num_slots = num_slots
        self._slots_remaining = num_slots
        # The array kernel's static gates: it stays off for
        # configurations whose slot interiors are observable (a
        # best-effort workload) or whose pool structure changes mid-run
        # (reconfig: worker add/remove and cell detach/attach), and for
        # policies without the closed-form commit, which is the only
        # way the kernel can take a slot.
        # Everything event-dependent — observers, bus, pressure,
        # quiescence — is re-checked live per slot.
        self._use_array = (
            self.workload_name == "none"
            and not self.scenario.reconfig
            and self.policy.vector_params() is not None
        )
        self._slot_event = self.engine.schedule_every(
            self._slot_us, self._on_slot_boundary, start=start)
        self._end_time = start + num_slots * self._slot_us

    def add_window_barrier(self, slot: int) -> None:
        """Forbid the window kernel from pre-drawing across ``slot``.

        External drivers (the fleet planner) must register every slot
        they will pause at *before* running, so cell membership can
        change there without any generator having drawn past it.
        Narrowing window widths never changes draw *order*, so digests
        are unaffected.
        """
        self._window_barriers.add(int(slot))

    def run_to_barrier(self, slot: int) -> None:
        """Run until slots ``0..slot-1`` are built, poised at ``slot``.

        The target time replays the engine's recurring-timer float
        accumulation (``t += slot_us``) so it is bit-equal to the
        boundary's firing time regardless of the slot duration's binary
        representation.
        """
        if not self._started:
            raise ValueError("start() the simulation first")
        if not 1 <= slot <= self._num_slots:
            raise ValueError(
                f"barrier slot {slot} outside [1, {self._num_slots}]")
        target = self._run_start
        for _ in range(slot - 1):
            target += self._slot_us
        self.engine.run_until(target)

    def run_to_end(self) -> None:
        """Run the remaining slots of a started simulation."""
        if not self._started:
            raise ValueError("start() the simulation first")
        self.engine.run_until(self._end_time)

    def finish(self) -> SimulationResult:
        """Drain in-flight DAGs, finalize metrics, build the result."""
        # Deferred vector-slot metrics precede any finalization.
        self._array_kernel.flush_pending()
        # Drain: let in-flight DAGs finish (bounded by 4 deadlines).
        drain_limit = self._end_time + 4 * self.pool_config.deadline_us
        while self.pool.active_dags and self.engine.now < drain_limit:
            if not self.engine.step():
                break
        self.metrics.finalize(self.engine.now)
        self.host.finalize(self.engine.now)
        return self._build_result(self._num_slots)

    def run(self, num_slots: int) -> SimulationResult:
        """Simulate ``num_slots`` TTIs plus a drain period."""
        self.start(num_slots)
        self.run_to_end()
        return self.finish()

    def _build_result(self, num_slots: int) -> SimulationResult:
        duration_us = self.metrics.duration_us
        duration_ms = duration_us / 1000.0
        preempt_rate = (
            self.metrics.best_effort_preemptions
            / max(duration_ms, 1e-9)
            / self.pool_config.num_cores
        )
        ops = self.host.results(preemptions_per_core_ms=preempt_rate)
        rates = {name: value / (duration_us / 1e6)
                 for name, value in ops.items()}
        wall_start = time.perf_counter()
        latency = self.metrics.latency_summary(self.pool_config.deadline_us)
        self.summary_wall_s += time.perf_counter() - wall_start
        return SimulationResult(
            policy_name=self.policy.name,
            workload_name=self.workload_name,
            load_fraction=self.load_fraction,
            num_slots=num_slots,
            duration_us=duration_us,
            latency=latency,
            reclaimed_fraction=self.metrics.reclaimed_fraction,
            idle_upper_bound=self.metrics.idle_fraction_upper_bound,
            vran_utilization=self.metrics.vran_utilization,
            scheduling_events=self.metrics.scheduling_events,
            wakeup_histogram=self.metrics.wakeup_histogram(),
            workload_ops=ops,
            workload_rates_per_s=rates,
            preemptions_per_core_ms=preempt_rate,
            mean_stall_increase=self.pool.cache_model.mean_stall_increase,
            metrics=self.metrics,
            pool=self.pool,
            harq=self._harq_stats(),
            telemetry=self._telemetry(),
            scenario=self.scenario.to_dict(),
        )

    def _telemetry(self) -> dict:
        """Merge the Metrics registry with the policy's own registry.

        Policies without an ``obs_registry`` (the baselines) contribute
        nothing; name spaces are disjoint ("scheduler/" vs "sched/",
        "slots/", "coretime/") so a plain dict merge suffices.
        """
        telemetry = self.metrics.snapshot()
        policy_registry = getattr(self.policy, "obs_registry", None)
        if policy_registry is not None:
            extra = policy_registry.as_dict()
            for section in ("counters", "gauges", "histograms"):
                telemetry.setdefault(section, {}).update(
                    extra.get(section, {}))
        return telemetry

    def _harq_stats(self) -> Optional[dict]:
        if not self._harq:
            return None
        managers = self._harq.values()
        blocks = sum(m.transport_blocks for m in managers)
        return {
            "transport_blocks": blocks,
            "retransmissions": sum(m.retransmissions for m in managers),
            "block_error_rate": sum(m.failures for m in managers)
            / max(1, blocks),
            "residual_loss_rate": sum(m.residual_losses for m in managers)
            / max(1, blocks),
        }
