"""Construction of per-slot signal-processing DAGs (paper Fig. 1 / Fig. 16).

Every slot, each cell contributes one DAG per active direction.  The
uplink chain is::

    FFT -> ChanEst -> Equalize -> Demod -> Descramble -> RateDematch
        -> {LDPC decode groups, parallel} -> CRC check

and the downlink chain is::

    CRC attach -> {LDPC encode groups, parallel} -> RateMatch
        -> Scramble -> Modulate -> Precode -> iFFT

Codeblocks are split into groups of at most :data:`MAX_CBS_PER_TASK`
per encode/decode task so that heavy coding work parallelizes across
worker cores, exactly like FlexRAN fans codeblocks out to its pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import CellConfig
from .tasks import (
    FEATURE_INDEX,
    CostModel,
    TaskInstance,
    TaskType,
    prbs_for_bandwidth,
    slot_base_features,
)
from .ue import SlotLoad, UeAllocation

__all__ = ["DagInstance", "DagBuilder", "DagTopology", "MAX_CBS_PER_TASK",
           "dag_kind_key", "topology_from_dag",
           "topology_for_key", "plan_task_rows"]

#: Maximum codeblocks bundled into one encode/decode task instance.
MAX_CBS_PER_TASK = 4

_RAND_IDX = FEATURE_INDEX["rand_probe"]
_TASK_CB_IDX = FEATURE_INDEX["task_codeblocks"]
_TASK_BYTES_IDX = FEATURE_INDEX["task_bytes"]
_DECODE_CODE = TaskType.LDPC_DECODE.type_code


@dataclass(slots=True, eq=False)
class DagInstance:
    """One slot's worth of dependent signal-processing tasks for a cell.

    Compares by identity (``eq=False``): the pool drops a finished DAG
    from ``active_dags`` with ``list.remove``, and a generated
    field-wise ``__eq__`` would run on every DAG ahead of it.
    """

    dag_id: int
    cell_name: str
    slot_index: int
    uplink: bool
    release_us: float
    deadline_us: float
    tasks: list = field(default_factory=list)  # topological order
    tasks_remaining: int = 0
    completion_us: Optional[float] = None
    #: Slot for the scheduling policy's per-DAG state (owned by the
    #: policy; e.g. ConcordiaScheduler's incremental work/critical-path
    #: record).  An attribute load here replaces a dict lookup in the
    #: three per-task policy hooks.  Cleared by the policy when the DAG
    #: completes and on builder-pool reuse.
    policy_state: Optional[object] = None
    #: Predictor warm-up (elastic reconfiguration): the scheduling
    #: policy multiplies its per-task WCET predictions by this factor.
    #: A freshly migrated cell's DAGs carry >1.0 while the destination
    #: predictor has no history for the cell; sampling and ground-truth
    #: runtimes are never scaled, so demand digests are unaffected.
    wcet_inflation: float = 1.0
    #: Structural fingerprint ``(uplink, idle, per-alloc decode/encode
    #: group counts)``.  Two DAGs with equal kind keys are wired
    #: identically (same task count, same dependency edges, same
    #: ``dag.tasks`` order), which is what lets the array kernel look
    #: their topology up in :func:`topology_for_key` instead of
    #: re-deriving it per slot.
    kind_key: Optional[tuple] = None

    @property
    def finished(self) -> bool:
        return self.tasks_remaining == 0

    @property
    def latency_us(self) -> Optional[float]:
        """Slot processing latency: completion relative to release."""
        if self.completion_us is None:
            return None
        return self.completion_us - self.release_us

    def entry_tasks(self) -> list:
        return [t for t in self.tasks if t.predecessors_remaining == 0
                and t.start_time is None]


def _link(parent: TaskInstance, child: TaskInstance) -> None:
    parent.successors.append(child)
    child.predecessors_remaining += 1


def dag_kind_key(load: SlotLoad) -> tuple:
    """Structural fingerprint of the DAG a :class:`SlotLoad` builds.

    The builder wires a DAG from this tuple alone: the direction,
    whether the slot is idle, and how many codeblock groups each
    allocation splits into (``_codeblock_groups`` emits
    ``ceil(num_codeblocks / MAX_CBS_PER_TASK)`` groups, zero for
    zero-codeblock allocations).  Everything else — byte counts, SNR,
    MCS — only changes task *costs* (:func:`plan_task_rows`), never
    edges or ``dag.tasks`` order, so this tuple indexes the
    topology-template registry.
    """
    if load.idle:
        return (load.uplink, True, ())
    groups = tuple((alloc.num_codeblocks + MAX_CBS_PER_TASK - 1)
                   // MAX_CBS_PER_TASK
                   for alloc in load.allocations)
    return (load.uplink, False, groups)


@dataclass(frozen=True)
class DagTopology:
    """Immutable index-space view of one DAG kind's wiring.

    All fields refer to positions in ``dag.tasks`` (topological
    order), so batch kernels can reason about the shape without
    touching task objects.
    """

    kind_key: tuple
    num_tasks: int
    entry_indices: tuple
    pred_counts: tuple
    successors: tuple  # tuple of per-task successor index tuples


def topology_from_dag(dag: DagInstance) -> DagTopology:
    """Derive a :class:`DagTopology` from a freshly built DAG."""
    return _topology(dag.kind_key, dag.tasks)


def _topology(kind_key: tuple, tasks: list) -> DagTopology:
    n = len(tasks)
    index = {id(task): i for i, task in enumerate(tasks)}
    successors = tuple(
        tuple(index[id(s)] for s in task.successors) for task in tasks)
    pred_counts = [0] * n
    for succ in successors:
        for j in succ:
            pred_counts[j] += 1
    return DagTopology(
        kind_key=kind_key,
        num_tasks=n,
        entry_indices=tuple(i for i in range(n) if pred_counts[i] == 0),
        pred_counts=tuple(pred_counts),
        successors=successors,
    )


#: kind_key -> DagTopology, filled on first lookup of each kind.
#: Process-wide: topology is a pure function of the kind key.
_TOPOLOGY_REGISTRY: dict = {}


def _template_task(task_type: TaskType, cell_name: str) -> TaskInstance:
    return TaskInstance(task_id=-1, task_type=task_type,
                        cell_name=cell_name, features=None,
                        base_cost_us=0.0)


def topology_for_key(kind_key: tuple) -> DagTopology:
    """Topology template of the DAG kind ``kind_key`` (lazy insert).

    A miss wires a throwaway task list with the builder's own wiring
    functions (:func:`_wire_uplink`/:func:`_wire_downlink`), so a
    template can never drift from what :meth:`DagBuilder.build_many`
    builds, and it consumes none of a builder's task or DAG ids.
    """
    topology = _TOPOLOGY_REGISTRY.get(kind_key)
    if topology is None:
        wire = _wire_uplink if kind_key[0] else _wire_downlink
        topology = _topology(kind_key, wire(_template_task, "", kind_key))
        _TOPOLOGY_REGISTRY[kind_key] = topology
    return topology


#: Seed of a builder constructed without ``seed_seq``; the entropy is
#: the first ``integers(2 ** 63)`` draw of ``default_rng(1)``, which
#: keeps the seed-less default's draws where they have always been.
_DEFAULT_SEED_SEQ = np.random.SeedSequence(4720721261117928063)


class DagBuilder:
    """Factory turning :class:`SlotLoad` objects into task DAGs.

    Stochastic sampling is *batched per DAG*: every DAG owns a private
    RNG stream keyed by ``(cell_index, slot_index, direction)``, and
    :meth:`draw_window` draws all of its randomness (rand_probe
    features plus the runtime presamples) from it in two calls.
    Keying by DAG identity rather than by draw order makes the streams
    independent of execution interleaving: a DAG's runtimes are
    identical whether it is built before or after its neighbours,
    which is what keeps serial and parallel experiment drivers
    byte-identical.

    Stream derivation is counter-based: ``seed_seq`` (a SeedSequence
    child of the simulation seed) generates a 128-bit Philox key once,
    and each DAG's stream sets the Philox counter to its identity
    ``(0, cell_index, slot_index, direction)``.  Distinct counters are
    distinct, never-overlapping streams by construction — the same
    independence guarantee as ``SeedSequence.spawn`` children, but
    resetting a counter costs ~2 µs where hashing a fresh SeedSequence
    plus constructing a bit generator costs ~20 µs, which matters at
    one stream per DAG on the hot path.

    ``router`` (the simulation's
    :meth:`~repro.core.scheduler.ConcordiaScheduler.route`, a timed
    :meth:`~repro.core.predictor.ConcordiaPredictor.route`) maps a
    batch's type codes and feature matrix to global leaf ids of the
    predictor's forest, in one descent for every task type; every build
    stores them on ``TaskInstance.leaf``.  Without one, every task's
    leaf is -1.
    """

    def __init__(self, cost_model: CostModel,
                 seed_seq: Optional[np.random.SeedSequence] = None,
                 router: Optional[Callable] = None) -> None:
        self.cost_model = cost_model
        if seed_seq is None:
            seed_seq = _DEFAULT_SEED_SEQ
        self.router = router
        # One reusable Philox generator; _dag_rng re-keys its counter.
        self._philox = np.random.Philox(
            key=seed_seq.generate_state(2, np.uint64))
        self._dag_gen = np.random.Generator(self._philox)
        self._philox_template = self._philox.state
        self._task_ids = itertools.count()
        self._dag_ids = itertools.count()
        # Instance pools: completed DAGs come back via recycle_dag()
        # and are scavenged at the next build, so no hook that runs at
        # completion time can observe a reset task.  Reset happens
        # lazily at re-acquisition.
        self._task_pool: list[TaskInstance] = []
        self._dag_pool: list[DagInstance] = []
        self._retired: list[DagInstance] = []

    # -- helpers -----------------------------------------------------------

    def _dag_rng(self, cell_index: int, slot_index: int,
                 uplink: bool) -> np.random.Generator:
        """Generator positioned on one (cell, slot, direction) stream.

        Returns the builder's single reusable generator with its Philox
        counter reset to the DAG's identity — equivalent to a fresh
        ``Generator(Philox(key=key, counter=(0, cell, slot, dir)))``
        without the per-DAG construction cost.  The caller must finish
        drawing before the next ``_dag_rng`` call.
        """
        template = self._philox_template
        template["state"]["counter"][:] = (0, cell_index, slot_index,
                                           1 if uplink else 0)
        template["buffer_pos"] = 4
        template["has_uint32"] = 0
        self._philox.state = template
        return self._dag_gen

    def _new_task(self, task_type: TaskType, cell_name: str) -> TaskInstance:
        """Structural task construction: identity now, numbers later.

        ``base_cost_us``, ``features`` and ``snr_margin_db`` are filled
        from :func:`plan_task_rows` by the vectorized pass at the end of
        :meth:`build_many`.
        """
        pool = self._task_pool
        if pool:
            task = pool.pop()
            task.predecessors_remaining = 0
            task.successors.clear()
            task.dag = None
            task.enqueue_time = None
            task.start_time = None
            task.finish_time = None
            task.runtime_us = None
            task.predicted_wcet_us = None
            task.path_us = 0.0
            task.task_id = next(self._task_ids)
            task.task_type = task_type
            task.memory_bound = task_type.is_memory_bound
            task.cell_name = cell_name
            return task
        return TaskInstance(
            task_id=next(self._task_ids),
            task_type=task_type,
            cell_name=cell_name,
            features=None,
            base_cost_us=0.0,
        )

    def recycle_dag(self, dag: DagInstance) -> None:
        """Mark a *completed* DAG's instances for reuse.

        Scavenging is deferred to the next build (a later slot
        boundary): completion-time hooks — the policy's finish hook,
        the final ``task_done`` record — still read intact fields.
        Callers must guarantee nothing retains the DAG's tasks past
        the slot boundary (the pool skips recycling entirely while its
        ``task_observers`` list is non-empty).
        """
        self._retired.append(dag)

    def _drain_retired(self) -> None:
        task_pool = self._task_pool
        dag_pool = self._dag_pool
        for dag in self._retired:
            task_pool.extend(dag.tasks)
            dag.tasks = []
            dag_pool.append(dag)
        self._retired.clear()

    # -- public API ---------------------------------------------------------

    def build(self, load: SlotLoad, cell: CellConfig,
              release_us: float, deadline_us: float,
              cell_index: int = 0) -> DagInstance:
        """Build the DAG for one (cell, direction, slot).

        ``cell_index`` keys this DAG's private RNG stream together with
        the slot index and direction; callers building DAGs for several
        cells must pass distinct indices so the streams stay distinct.
        """
        return self.build_many(
            [(load, cell, release_us, deadline_us, cell_index)])[0]

    def costed_rows(self, jobs: list, job_rows: list) -> tuple:
        """Every per-task number of many DAGs, flat in row order.

        ``jobs`` are :meth:`build_many` jobs and ``job_rows`` their
        :func:`plan_task_rows`.  One base-cost batch, then one
        :meth:`draw_window`; returns the eight columns :meth:`build_many`
        assigns: ``(costs, codeblocks, bytes, margins, probes, mults,
        cache_u, cache_tail)``.  The cost ops are elementwise and every
        draw comes from its DAG's own stream, so batch composition
        cannot perturb any value.
        """
        flat = []
        consts = []  # per-DAG (prbs, antennas, slot_bytes)
        counts = []
        cell_consts = {}
        for job, rows in zip(jobs, job_rows):
            flat.extend(rows)
            counts.append(len(rows))
            cell = job[1]
            per_cell = cell_consts.get(id(cell))
            if per_cell is None:
                per_cell = cell_consts[id(cell)] = (
                    prbs_for_bandwidth(cell.bandwidth_mhz, cell.numerology),
                    cell.num_antennas)
            consts.append(per_cell + (job[0].total_bytes,))
        if not flat:
            return ((),) * 8
        types, cbs, tbytes, margins, rates, shares, layers = zip(*flat)
        codes = np.array([t.type_code for t in types])
        const_arr = np.repeat(np.array(consts, dtype=np.float64), counts,
                              axis=0)
        costs = self.cost_model.base_costs_batch(
            codes,
            prbs=const_arr[:, 0],
            antennas=const_arr[:, 1],
            slot_bytes=const_arr[:, 2],
            task_codeblocks=np.array(cbs, dtype=np.float64),
            task_bytes=np.array(tbytes, dtype=np.float64),
            snr_margin_db=np.array(margins, dtype=np.float64),
            code_rate=np.array(rates, dtype=np.float64),
            prb_share=np.array(shares, dtype=np.float64),
            layers=np.array(layers, dtype=np.float64),
        ).tolist()
        return (costs, cbs, tbytes, margins) + self.draw_window(
            jobs, counts, codes)

    def draw_window(self, jobs: list, counts: list,
                    type_codes: np.ndarray) -> tuple:
        """All randomness of many DAGs, each drawn once from its stream.

        ``counts`` holds each job's task count and ``type_codes`` the
        rows' :data:`~repro.ran.tasks.TYPE_CODE` column.  Per DAG, in job
        order, ``random(5n)`` then ``standard_normal(n)`` from its
        counter-keyed stream; the uniform block's five n-wide bands are
        the rand_probe features, the isolated-tail trigger, the LDPC
        decode-iteration jitter (§A.1; inverse-CDF exponential), the
        cache-interference trigger and tail magnitude.  The transform
        runs once over the whole window and is elementwise, so it
        equals any per-DAG split.  Returns four flat lists in row
        order: ``(probes, mults, cache_u, cache_tail)``.

        ``stoch_mult`` folds everything state-independent
        (:meth:`~repro.ran.tasks.CostModel.stoch_multipliers`: lognormal
        noise, the rare isolated tail, then the decode jitter).  The
        cache tail needs execution-time state (churn, pressure), so
        only its randomness is presampled; the pool compares
        ``cache_u`` against the state-dependent tail probability at
        dispatch, which is equivalent in distribution to drawing there.
        """
        blocks = []
        normals = []
        for job, n in zip(jobs, counts):
            load = job[0]
            rng = self._dag_rng(job[4], load.slot_index, load.uplink)
            blocks.append(rng.random(5 * n).reshape(5, n))
            normals.append(rng.standard_normal(n))
        u = np.concatenate(blocks, axis=1)
        mult = self.cost_model.stoch_multipliers(
            np.concatenate(normals), u[1], u[2], type_codes == _DECODE_CODE)
        return (u[0].tolist(), mult.tolist(), u[3].tolist(),
                (1.5 + u[4]).tolist())

    def build_many(self, jobs: list,
                   costed: Optional[tuple] = None) -> list:
        """Build all DAGs of one slot (or window) in one vectorized batch.

        ``jobs`` is a list of ``(load, cell, release_us, deadline_us,
        cell_index)`` tuples.  Structural construction (task wiring)
        runs per DAG from its :func:`dag_kind_key`; every number a task
        carries comes from :meth:`costed_rows`, so the window planner
        and the builder share one definition of a task's costs and
        draws.  ``costed`` passes in the jobs' :meth:`costed_rows`
        columns when the caller already has them (the window fill
        computes them once per window); a build then only assigns.
        """
        if not jobs:
            return []
        self._drain_retired()
        if costed is None:
            costed = self.costed_rows(
                jobs, [plan_task_rows(job[0], job[1]) for job in jobs])
        (costs, cbs, tbytes, margins, probes, mults, cache_us,
         cache_tails) = costed
        new_task = self._new_task
        kinds = []
        dag_tasks = []
        bases = []
        for load, cell, _release, _deadline, _index in jobs:
            kind = dag_kind_key(load)
            kinds.append(kind)
            wire = _wire_uplink if load.uplink else _wire_downlink
            dag_tasks.append(wire(new_task, cell.name, kind))
            bases.append(slot_base_features(load, cell, load.slot_index))
        # One (total_tasks, NUM_FEATURES) matrix; each task's feature
        # vector is a row view, in dag.tasks order like the rows.
        feats = np.repeat(np.stack(bases),
                          [len(tasks) for tasks in dag_tasks], axis=0)
        feats[:, _TASK_CB_IDX] = cbs
        feats[:, _TASK_BYTES_IDX] = tbytes
        feats[:, _RAND_IDX] = probes
        all_tasks = list(itertools.chain.from_iterable(dag_tasks))
        # Every feature is final here, so each task is routed to its
        # predictor leaf once, for the whole batch.  Assigned on every
        # build, so a recycled task never keeps a stale leaf.
        if self.router is None:
            leaves = itertools.repeat(-1)
        else:
            codes = np.fromiter(
                (task.task_type.type_code for task in all_tasks),
                dtype=np.int64, count=len(all_tasks))
            leaves = self.router(codes, feats).tolist()
        # list(feats) splits the matrix into row views in one C call;
        # per-row feats[i] indexing costs a Python-level __getitem__
        # per task.
        for task, row, cost, margin, mult, cache_u, cache_tail, leaf in zip(
                all_tasks, list(feats), costs, margins, mults, cache_us,
                cache_tails, leaves):
            task.features = row
            task.base_cost_us = cost
            task.snr_margin_db = margin
            task.stoch_mult = mult
            task.cache_u = cache_u
            task.cache_tail = cache_tail
            task.leaf = leaf
        dag_pool = self._dag_pool
        dags = []
        for job, tasks, kind in zip(jobs, dag_tasks, kinds):
            load, cell, release_us, deadline_us, _index = job
            n = len(tasks)
            if dag_pool:
                dag = dag_pool.pop()
                dag.dag_id = next(self._dag_ids)
                dag.cell_name = cell.name
                dag.slot_index = load.slot_index
                dag.uplink = load.uplink
                dag.release_us = release_us
                dag.deadline_us = deadline_us
                dag.tasks = tasks
                dag.tasks_remaining = n
                dag.completion_us = None
                dag.policy_state = None
                dag.wcet_inflation = 1.0
                dag.kind_key = kind
            else:
                dag = DagInstance(
                    dag_id=next(self._dag_ids),
                    cell_name=cell.name,
                    slot_index=load.slot_index,
                    uplink=load.uplink,
                    release_us=release_us,
                    deadline_us=deadline_us,
                    tasks=tasks,
                    tasks_remaining=n,
                    kind_key=kind,
                )
            for task in tasks:
                task.dag = dag
            dags.append(dag)
        return dags


#: Cost-row tail of parameter-less tasks (front end, CRC, precoding):
#: (codeblocks, bytes, snr_margin_db, code_rate, prb_share, layers).
_PLAN_DEFAULT_ROW = (0, 0.0, 10.0, 0.6, 1.0, 1)

_UL_CHAIN_TYPES = (TaskType.CHANNEL_ESTIMATION, TaskType.EQUALIZATION,
                   TaskType.DEMODULATION, TaskType.DESCRAMBLING,
                   TaskType.RATE_DEMATCH)
_DL_TAIL_TYPES = (TaskType.SCRAMBLING, TaskType.MODULATION)

#: Idle-slot rows are load-independent; shared read-only lists.
_IDLE_UL_ROWS = [(TaskType.FFT,) + _PLAN_DEFAULT_ROW]
_IDLE_DL_ROWS = [(TaskType.MODULATION,) + _PLAN_DEFAULT_ROW,
                 (TaskType.IFFT,) + _PLAN_DEFAULT_ROW]


def _wire_uplink(new_task: Callable, name: str, kind: tuple) -> list:
    """FFT -> per-UE (ChanEst..RateDematch -> decode groups) -> CRC.

    FlexRAN processes scheduled UEs in parallel branches; the slot's
    critical path is the front-end FFT plus one UE's chain plus one
    decode group, not the sum over UEs.  ``kind`` is the load's
    :func:`dag_kind_key`: its per-allocation group counts are all the
    wiring reads.  ``new_task(task_type, name)`` makes each task, so
    :meth:`DagBuilder.build_many` and :func:`topology_for_key` share
    this one definition of the wiring.
    """
    fft = new_task(TaskType.FFT, name)
    tasks = [fft]
    if kind[1]:
        # Front-end processing runs even on empty slots (no PUSCH).
        return tasks
    crc = new_task(TaskType.CRC_CHECK, name)
    decode_type = TaskType.LDPC_DECODE
    for groups in kind[2]:
        prev = fft
        for task_type in _UL_CHAIN_TYPES:
            task = new_task(task_type, name)
            _link(prev, task)
            tasks.append(task)
            prev = task
        for _ in range(groups):
            decode = new_task(decode_type, name)
            _link(prev, decode)
            _link(decode, crc)
            tasks.append(decode)
    tasks.append(crc)
    return tasks


def _wire_downlink(new_task: Callable, name: str, kind: tuple) -> list:
    """CRC -> per-UE (encode groups -> RateMatch..Modulate) -> Precode -> iFFT.

    Same contract as :func:`_wire_uplink`.
    """
    if kind[1]:
        # Broadcast/control symbols still get modulated and precoded.
        mod = new_task(TaskType.MODULATION, name)
        ifft = new_task(TaskType.IFFT, name)
        _link(mod, ifft)
        return [mod, ifft]
    crc = new_task(TaskType.CRC_ATTACH, name)
    tasks = [crc]
    precode = new_task(TaskType.PRECODING, name)
    encode_type = TaskType.LDPC_ENCODE
    for groups in kind[2]:
        rate_match = new_task(TaskType.RATE_MATCH, name)
        for _ in range(groups):
            encode = new_task(encode_type, name)
            _link(crc, encode)
            _link(encode, rate_match)
            tasks.append(encode)
        tasks.append(rate_match)
        prev = rate_match
        for task_type in _DL_TAIL_TYPES:
            task = new_task(task_type, name)
            _link(prev, task)
            tasks.append(task)
            prev = task
        _link(prev, precode)
    tasks.append(precode)
    ifft = new_task(TaskType.IFFT, name)
    _link(precode, ifft)
    tasks.append(ifft)
    return tasks


def _codeblock_groups(alloc: UeAllocation) -> list:
    """Split one UE's codeblocks into (#cbs, bytes) coding-task groups.

    ``ceil(num_codeblocks / MAX_CBS_PER_TASK)`` groups, none for a
    zero-codeblock allocation — the count :func:`dag_kind_key` records.
    """
    groups = []
    cbs = alloc.num_codeblocks
    if cbs == 0:
        return groups
    bytes_per_cb = alloc.tbs_bytes / cbs
    while cbs > 0:
        group = min(cbs, MAX_CBS_PER_TASK)
        groups.append((group, group * bytes_per_cb))
        cbs -= group
    return groups


def plan_task_rows(load: SlotLoad, cell: CellConfig) -> list:
    """Cost-model inputs of one DAG's tasks, without building tasks.

    Returns one ``(task_type, codeblocks, bytes, margin, rate, share,
    layers)`` tuple per task in ``dag.tasks`` (topological) order.  It
    is the builders' only source of task costs and cost features:
    :meth:`DagBuilder.build_many` fills every ``base_cost_us``,
    ``features`` and ``snr_margin_db`` from these rows, and the window
    fill certifies and plans a slot from the same rows before deciding
    whether to materialize its DAG objects at all.
    """
    if load.uplink:
        if load.idle:
            return _IDLE_UL_ROWS
        rows = [(TaskType.FFT,) + _PLAN_DEFAULT_ROW]
        slot_bytes = max(load.total_bytes, 1)
        for alloc in load.allocations:
            share = alloc.tbs_bytes / slot_bytes
            margin = alloc.snr_db - alloc.mcs.min_snr_db
            tbs = alloc.tbs_bytes
            rate = alloc.mcs.code_rate
            layers = alloc.layers
            for task_type in _UL_CHAIN_TYPES:
                rows.append((task_type, 0, tbs, margin, rate, share,
                             layers))
            for cbs, grp_bytes in _codeblock_groups(alloc):
                rows.append((TaskType.LDPC_DECODE, cbs, grp_bytes,
                             margin, rate, share, layers))
        rows.append((TaskType.CRC_CHECK,) + _PLAN_DEFAULT_ROW)
        return rows
    if load.idle:
        return _IDLE_DL_ROWS
    rows = [(TaskType.CRC_ATTACH,) + _PLAN_DEFAULT_ROW]
    slot_bytes = max(load.total_bytes, 1)
    for alloc in load.allocations:
        share = alloc.tbs_bytes / slot_bytes
        margin = alloc.snr_db - alloc.mcs.min_snr_db
        tbs = alloc.tbs_bytes
        rate = alloc.mcs.code_rate
        layers = alloc.layers
        for cbs, grp_bytes in _codeblock_groups(alloc):
            rows.append((TaskType.LDPC_ENCODE, cbs, grp_bytes,
                         margin, rate, share, layers))
        rows.append((TaskType.RATE_MATCH, 0, tbs, margin, rate, share,
                     layers))
        for task_type in _DL_TAIL_TYPES:
            rows.append((task_type, 0, tbs, margin, rate, share,
                         layers))
    rows.append((TaskType.PRECODING,) + _PLAN_DEFAULT_ROW)
    rows.append((TaskType.IFFT,) + _PLAN_DEFAULT_ROW)
    return rows
