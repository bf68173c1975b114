"""End-to-end simulation harness.

``Simulation`` assembles the full system for one experiment: cells with
traffic generators, the DAG builder and cost model, the vRAN pool with
a scheduling policy, the OS and cache models, and the collocated
best-effort workloads.  ``run(num_slots)`` drives slot boundaries and
returns a :class:`SimulationResult` with everything the paper's figures
report.

What to build is described by a :class:`repro.scenario.Scenario`, and
:func:`repro.scenario.build_simulation` is the one way to build it: a
spec, a CLI invocation, a driver and a test all assemble the system
the same way, and every result names the policy that ran.

RNG-stream map — every stream is a ``SeedSequence`` child of the
scenario seed with a fixed ``spawn_key``, so streams are collision-safe
and independent of construction order:

=====================  ==========================================
spawn_key              purpose
=====================  ==========================================
(0,)                   retired (cost-model scalar fallback draws)
(1,)                   profiling-traffic byte draws
(2,)                   i.i.d. UE allocation splitting
(3,)                   OS wakeup-latency model
(4,)                   retired (cache-interference draws)
(5,)                   workload mix controller
(6, cell, slot, dir)   per-DAG batched sampling (DagBuilder)
(7, cell)              per-cell traffic generators
(8, cell)              per-cell HARQ processes
(9, cell, dir)         per-cell/direction MAC pipelines
=====================  ==========================================

Retired keys are never reused.  Every per-task draw comes from the
per-DAG stream ``(6, ...)``; keys are spawn keys, so retiring one
shifts no other stream.

Fleet keying — when ``scenario.cell_id_base`` is set (the pool is one
cell-shard of a :mod:`repro.fleet` metro deployment), ``cell`` above
means the *global* cell id (``cell_id_base + local index``) and the
shared i.i.d. allocation stream ``(2,)`` becomes one counter-keyed
stream ``(2, cell)`` per cell.  Every per-cell stream then depends
only on ``(fleet seed, global cell id)``, never on which shard the
cell landed in, which is what makes per-cell sampling byte-identical
across arbitrary shardings.  The pool-level streams (1, 3, 5)
are keyed ``(k, cell_id_base)`` so distinct shards draw distinct
scheduling-side randomness.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..ran.config import SlotType
from ..ran.dag import (DagBuilder, dag_kind_key, plan_task_rows,
                       topology_for_key)
from ..ran.harq import HarqManager
from ..ran.mac import MacCell
from ..ran.tasks import CostModel
from ..ran.traffic import CellTraffic
from ..ran.ue import SlotLoad, bytes_to_allocations
from ..workloads.base import WorkloadHost
from ..workloads.catalog import MixController, make_workload
from .arraykernel import ArraySlotKernel
from .cache import CacheInterferenceModel
from .engine import Engine
from .metrics import LatencySummary, Metrics
from .osmodel import WakeupLatencyModel
from .policy import SchedulerPolicy
from .pool import VranPool

if TYPE_CHECKING:
    from ..scenario.scenario import Scenario

__all__ = ["RESULT_SCHEMA", "Simulation", "SimulationResult"]

#: The result-payload schema :meth:`SimulationResult.to_dict` writes
#: and :meth:`SimulationResult.from_dict` loads.  Schema 2 embeds the
#: serialized scenario that produced the result.
RESULT_SCHEMA = 2

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
    #: HARQ statistics (only when the simulation ran with harq=True).
    harq: Optional[dict] = None
    #: JSON-able registry snapshot (repro.obs): event counters, the
    #: wakeup-latency histogram, core-time gauges and scheduler
    #: overhead counters.
    telemetry: dict = field(default_factory=dict, repr=False)
    #: Serialized :class:`repro.scenario.Scenario` that produced this
    #: result.
    scenario: Optional[dict] = None
    #: A fleet shard's per-cell digests, federated demand and latency
    #: histogram (:meth:`repro.fleet.demand.ShardDemandRecorder.summary`);
    #: None unless a demand observer was attached.
    demand: Optional[dict] = None

    @property
    def meets_five_nines(self) -> bool:
        return self.latency.meets_five_nines

    def to_dict(self) -> dict:
        """JSON-able payload for the on-disk result cache.

        A result is plain data: the payload holds every field, so a
        result run in-process, in a forked batch child or rebuilt from
        the cache by :meth:`from_dict` is the same value.  A caller
        that wants the live pool or metrics reads them off its
        :class:`Simulation`.  ``demand`` is emitted only when set, so a
        non-fleet payload keeps its shape.
        """
        latency = self.latency
        payload = {
            "schema": RESULT_SCHEMA,
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
        if self.demand is not None:
            payload["demand"] = self.demand
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict`.

        Accepts :data:`RESULT_SCHEMA` only; any other schema raises
        ``ValueError`` so callers such as the exec result cache can
        treat the payload as a miss instead of misreading it.
        """
        if payload.get("schema") != RESULT_SCHEMA:
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
            harq=payload["harq"],
            telemetry=dict(payload["telemetry"]),
            scenario=payload["scenario"],
            demand=payload.get("demand"),
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


class _CellSource:
    """One attached cell and the live objects its slots are drawn from.

    The cell config, its global id, and its traffic generator,
    allocation stream, MAC pipelines (``{uplink: MacCell}``, MAC
    allocation only) and HARQ manager (HARQ runs only).
    :meth:`Simulation.detach_cell` hands the record itself over,
    stamped with the ``seed`` and ``slot`` it left at and the
    simulation-wide allocation stream it shared (``shared_alloc``,
    None for a fleet-keyed cell), so the cell resumes elsewhere from
    exactly the state it quiesced in.
    """

    __slots__ = ("cell", "gid", "traffic", "alloc_rng", "mac", "harq",
                 "seed", "slot", "shared_alloc")

    def __init__(self, cell, gid: int, traffic: CellTraffic, alloc_rng,
                 mac: Optional[dict], harq: Optional[HarqManager]) -> None:
        self.cell = cell
        self.gid = gid
        self.traffic = traffic
        self.alloc_rng = alloc_rng
        self.mac = mac
        self.harq = harq
        self.seed = self.slot = self.shared_alloc = None


class Simulation:
    """One configured experiment: pool + policy + traffic + workloads.

    Built by :func:`repro.scenario.build_simulation`, which resolves the
    policy from the scenario; ``scenario`` is the only description of
    what runs, and the result embeds it.
    """

    def __init__(self, scenario: "Scenario", policy: SchedulerPolicy,
                 event_bus=None) -> None:
        self.scenario = scenario
        self.pool_config = pool_config = scenario.pool_config()
        self.policy = policy
        seed = scenario.seed
        workload = scenario.workload
        mix_interval_us = scenario.mix_interval_us
        # Fleet keying (see module docstring): a cell-shard keys every
        # per-cell stream by the global cell id and pool-level streams
        # by the shard's base, so cell-level sampling is independent of
        # how the metro deployment was sharded.
        base = scenario.cell_id_base
        fleet = base is not None
        pool_key = (base,) if fleet else ()
        self._rng_traffic = _stream_rng(seed, 1, *pool_key)
        self._rng_os = _stream_rng(seed, 3, *pool_key)
        self._rng_mix = _stream_rng(seed, 5, *pool_key)
        # Fleet shards draw allocations from one counter-keyed stream
        # per cell (made with the cell's record below); elsewhere every
        # cell shares this one.
        self._rng_alloc = None if fleet else _stream_rng(seed, 2)

        self.engine = Engine()
        self.cost_model = CostModel()
        # The policy's predictor routes each built task to its leaf
        # once per build batch, through the policy's timed
        # ConcordiaScheduler.route.
        predictor = getattr(policy, "predictor", None)
        self.builder = DagBuilder(
            self.cost_model,
            seed_seq=np.random.SeedSequence(entropy=seed, spawn_key=(6,)),
            router=None if predictor is None else policy.route)
        self.metrics = Metrics(pool_config.num_cores)
        cache_model = CacheInterferenceModel()
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
        #: One record per attached cell, in build order: the slot
        #: pipeline's source of truth for cell membership
        #: (``pool_config`` stays the frozen as-built description).
        self._cells = [
            self._cell_source(cell, (base or 0) + index)
            for index, cell in enumerate(pool_config.cells)
        ]
        #: Optional hook called once per slot at window-fill time with
        #: ``(jobs, costed, span)``: the window's build jobs, its
        #: ``DagBuilder.costed_rows`` columns and the slot's span of
        #: them.  It reads rows, so it forces no DAG build.  The fleet
        #: layer attaches a demand recorder here to compute per-cell
        #: sampling digests and federated core-demand rollups; the
        #: result's ``demand`` is its ``summary(slot latencies)``.
        self.demand_observer = None
        #: Records stashed by a timeline ``detach_cell``, keyed by cell
        #: name, for a later ``attach_cell`` (outage scripting).
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

    def _cell_source(self, cell, gid: int) -> _CellSource:
        """The record of ``cell``, its streams keyed by global id ``gid``."""
        scenario = self.scenario
        seed = scenario.seed
        load_fraction = scenario.load_fraction
        alloc_rng = self._rng_alloc
        if alloc_rng is None:
            # Fleet keying: within a cell the draw order (slot, then
            # direction) is fixed, so the stream never observes other
            # cells' draws.
            alloc_rng = _stream_rng(seed, 2, gid)
        # Optional MAC-layer allocation pipeline (buffer-driven PF
        # scheduling instead of i.i.d. byte splitting).
        mac = None
        if scenario.allocation == "mac":
            mac = {}
            for uplink in (True, False):
                rate = (cell.avg_ul_mbps if uplink
                        else cell.avg_dl_mbps) * 1e6 * load_fraction
                if cell.duplex.value == "tdd":
                    share = cell.direction_share(uplink)
                    if share > 0:
                        rate /= share
                mac[uplink] = MacCell(
                    cell,
                    num_ues=cell.max_ues_per_slot,
                    total_rate_bps=rate,
                    rng=_stream_rng(seed, 9, gid, int(uplink)),
                )
        # Optional HARQ loop: failed uplink transport blocks come back
        # as retransmissions a few slots later.
        harq = (HarqManager(rng=_stream_rng(seed, 8, gid))
                if scenario.harq else None)
        return _CellSource(
            cell, gid,
            CellTraffic.for_cell(cell, load_fraction,
                                 rng=_stream_rng(seed, 7, gid)),
            alloc_rng, mac, harq)

    @property
    def traffic(self) -> list:
        """Each attached cell's traffic generator, in build order."""
        return [source.traffic for source in self._cells]

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
        sources = self._cells
        mac = self.scenario.allocation == "mac"
        profiling = self.scenario.profiling_traffic
        # Directions per cell and slot, then (model traffic) one
        # batched draw per (cell, direction) generator covering the
        # window.
        cell_dirs = []
        draws = []
        for source in sources:
            cell = source.cell
            dirs_by_slot = [_slot_directions(cell, start_slot + rel)
                            for rel in range(count)]
            cell_dirs.append(dirs_by_slot)
            per_dir = {}
            if not (mac or profiling):
                generator = source.traffic
                for uplink in (True, False):
                    needed = sum(1 for dirs in dirs_by_slot
                                 for u, _ in dirs if u == uplink)
                    if needed:
                        stream = (generator.uplink if uplink
                                  else generator.downlink)
                        per_dir[uplink] = iter(
                            stream.next_slots(needed).tolist())
            draws.append(per_dir)
        jobs = []
        job_counts = []
        idle_flags = []
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
            for source, per_dir, dirs_by_slot in zip(sources, draws,
                                                     cell_dirs):
                cell = source.cell
                harq = source.harq
                for uplink, scale in dirs_by_slot[rel]:
                    if mac:
                        allocations = source.mac[uplink].step()
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
                            total, source.alloc_rng,
                            max_ues=cell.max_ues_per_slot,
                            max_layers=cell.max_layers,
                        )
                    if uplink and harq is not None:
                        allocations = harq.process_slot(slot_index,
                                                        allocations)
                    if allocations:
                        idle = False
                    jobs.append((SlotLoad(cell_name=cell.name,
                                          slot_index=slot_index,
                                          uplink=uplink,
                                          allocations=allocations),
                                 cell, release, deadline,
                                 source.gid))
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
                    source = self.detached_cells.pop(event.cell)
                except KeyError:
                    raise ValueError(
                        f"attach_cell {event.cell!r}: no detached "
                        f"snapshot of that name") from None
                self.attach_cell(
                    source,
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

    def _at_cell_barrier(self, verb: str) -> None:
        """Check that a cell may move here now; flush deferred metrics.

        A cell moves only under model traffic (profiling draws from
        one shared stream) and at a slot boundary the window kernel
        was told about (a timeline event's slot, or
        :meth:`add_window_barrier` before the run), so no generator has
        drawn past the current slot.
        """
        if self.scenario.profiling_traffic:
            raise ValueError(
                f"{verb} requires model traffic (profiling mode draws "
                f"from one shared stream)")
        if self._window:
            raise ValueError(
                f"{verb} mid-window: the {verb.split('_')[0]} slot must "
                f"be a window barrier (timeline events register theirs; "
                f"planners call add_window_barrier before the run)")
        # The hand-over boundary must see fully applied metrics.
        self._array_kernel.flush_pending()

    def detach_cell(self, name: str) -> _CellSource:
        """Quiesce cell ``name`` at a slot boundary; return its record.

        The record keeps the cell's live traffic, allocation, MAC and
        HARQ objects and is stamped with this simulation's seed, the
        current slot and its shared allocation stream, for
        :meth:`attach_cell`.
        """
        self._at_cell_barrier("detach_cell")
        for index, source in enumerate(self._cells):
            if source.cell.name == name:
                break
        else:
            raise ValueError(f"no attached cell named {name!r}")
        del self._cells[index]
        self._held_cells.pop(name, None)
        self._warm_cells.pop(name, None)
        if self._backlog:
            self._backlog = [(n, d) for n, d in self._backlog if n != name]
        source.seed = self.scenario.seed
        source.slot = self._slot_index
        source.shared_alloc = self._rng_alloc
        return source

    def attach_cell(self, source: _CellSource, *, transfer_slots: int = 0,
                    warmup_slots: int = 0,
                    warmup_factor: float = 1.5) -> None:
        """Resume a cell :meth:`detach_cell` returned, in this simulation.

        The record's objects draw on from where they stopped, so the
        cell's sampling continues byte-identically wherever its streams
        stay the same: the same seed (the per-DAG streams come from
        this simulation's builder), and the allocation stream the cell
        was keyed with — a fleet-keyed cell moves between fleet shards
        of one allocation mode, a cell that shared a simulation's
        stream only back into that simulation.
        ``transfer_slots``/``warmup_slots`` apply the migration-cost
        model (state-transfer hold, then predictor warm-up by
        ``warmup_factor``); zero (the default) attaches with no
        transient.
        """
        name = source.cell.name
        if source.seed != self.scenario.seed:
            raise ValueError(
                f"cell {name!r} was detached at seed {source.seed}, "
                f"this scenario's seed is {self.scenario.seed}: its "
                f"per-DAG streams would change")
        if source.slot > self._slot_index:
            raise ValueError(
                f"cell {name!r} detached at slot {source.slot} is ahead "
                f"of this simulation (slot {self._slot_index})")
        if (source.shared_alloc is not self._rng_alloc
                or (source.mac is None)
                == (self.scenario.allocation == "mac")):
            raise ValueError(
                f"cell {name!r} was keyed with another allocation "
                f"stream: a cell moves only between fleet shards of one "
                f"allocation mode, or back into the simulation it left")
        self._at_cell_barrier("attach_cell")
        if any(other.cell.name == name for other in self._cells):
            raise ValueError(f"cell {name!r} is already attached")
        self._cells.append(source)
        if transfer_slots > 0:
            self._held_cells[name] = self._slot_index + transfer_slots
        if warmup_slots > 0:
            self._warm_cells[name] = (
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
            self.scenario.workload == "none"
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
            workload_name=self.scenario.workload,
            load_fraction=self.scenario.load_fraction,
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
            harq=self._harq_stats(),
            telemetry=self._telemetry(),
            scenario=self.scenario.to_dict(),
            demand=(None if self.demand_observer is None
                    else self.demand_observer.summary(
                        self.metrics.slot_latencies)),
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
        managers = [source.harq for source in self._cells
                    if source.harq is not None]
        if not managers:
            return None
        blocks = sum(m.transport_blocks for m in managers)
        return {
            "transport_blocks": blocks,
            "retransmissions": sum(m.retransmissions for m in managers),
            "block_error_rate": sum(m.failures for m in managers)
            / max(1, blocks),
            "residual_loss_rate": sum(m.residual_losses for m in managers)
            / max(1, blocks),
        }
