"""Signal-processing task taxonomy and runtime cost models.

This module is the stand-in for the FlexRAN PHY pipeline: it defines the
task types of the 5G NR uplink and downlink chains (paper Fig. 1,
Fig. 16 and Appendix A.1) and a parameterized stochastic runtime model
calibrated to the paper's measurements:

* LDPC decoding of 3..15 codeblocks on one core costs ~100..500 µs and
  dominates uplink processing (>60 %, Table 5 / Fig. 6a);
* spreading codeblocks over multiple cores adds up to ~25 % memory-stall
  penalty (Fig. 6b);
* low SNR margin increases decoding iterations non-linearly (§4.1);
* per-task runtimes carry multiplicative noise, and collocated
  workloads inflate them with heavier tails (Fig. 7b).

The prediction feature vector X exposed per task intentionally includes
both the parameters the ground-truth cost depends on and irrelevant
ones, so that Algorithm 1's feature selection has real work to do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import CellConfig
from .ue import SlotLoad

__all__ = [
    "TaskType",
    "TYPE_CODE",
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "TaskInstance",
    "CostModel",
    "UL_TASK_TYPES",
    "DL_TASK_TYPES",
    "prbs_for_bandwidth",
]


class TaskType(enum.Enum):
    """Signal-processing task kinds (Appendix A.1)."""

    # Uplink chain
    FFT = "fft"
    CHANNEL_ESTIMATION = "channel_estimation"
    EQUALIZATION = "equalization"
    DEMODULATION = "demodulation"
    DESCRAMBLING = "descrambling"
    RATE_DEMATCH = "rate_dematch"
    LDPC_DECODE = "ldpc_decode"
    CRC_CHECK = "crc_check"
    # Downlink chain
    CRC_ATTACH = "crc_attach"
    LDPC_ENCODE = "ldpc_encode"
    RATE_MATCH = "rate_match"
    SCRAMBLING = "scrambling"
    MODULATION = "modulation"
    PRECODING = "precoding"
    IFFT = "ifft"


#: Stable small-int codes for the vectorized cost path
#: (:meth:`CostModel.base_costs_batch`); order follows declaration.
_TYPE_LIST = tuple(TaskType)
TYPE_CODE = {t: i for i, t in enumerate(_TYPE_LIST)}

UL_TASK_TYPES = (
    TaskType.FFT,
    TaskType.CHANNEL_ESTIMATION,
    TaskType.EQUALIZATION,
    TaskType.DEMODULATION,
    TaskType.DESCRAMBLING,
    TaskType.RATE_DEMATCH,
    TaskType.LDPC_DECODE,
    TaskType.CRC_CHECK,
)

DL_TASK_TYPES = (
    TaskType.CRC_ATTACH,
    TaskType.LDPC_ENCODE,
    TaskType.RATE_MATCH,
    TaskType.SCRAMBLING,
    TaskType.MODULATION,
    TaskType.PRECODING,
    TaskType.IFFT,
)

#: Prediction features (the vRAN state X of §4.2).  The last few are
#: deliberately irrelevant to runtimes so that feature selection matters.
FEATURE_NAMES = (
    "num_ues",
    "slot_bytes",
    "slot_codeblocks",
    "total_layers",
    "mean_mcs_index",
    "min_snr_margin_db",
    "mean_mod_order",
    "mean_code_rate",
    "num_prbs",
    "num_antennas",
    "task_codeblocks",
    "task_bytes",
    "is_uplink",
    "slot_in_frame",
    "frame_number_mod",
    "rand_probe",
)
NUM_FEATURES = len(FEATURE_NAMES)
FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


def prbs_for_bandwidth(bandwidth_mhz: float, numerology: int) -> int:
    """Approximate PRB count per 38.101 (106 for 20 MHz µ0, 273 for 100 MHz µ1)."""
    scs_khz = 15 * (2 ** numerology)
    usable_khz = bandwidth_mhz * 1000.0 * 0.97  # guard bands
    return max(11, int(usable_khz / (12 * scs_khz)))


@dataclass(slots=True, eq=False)
class TaskInstance:
    """One runnable signal-processing task within a slot DAG.

    ``base_cost_us`` is the deterministic part of the ground-truth
    runtime, fixed at DAG construction.  All of a task's randomness
    comes from its DAG's stream: :meth:`repro.ran.dag.DagBuilder.draw_window`
    draws it into ``stoch_mult``/``cache_u``/``cache_tail`` when the DAG
    is built, and :meth:`CostModel.sample_runtime` combines those with
    the execution-time state (active cores, cache interference) when the
    task starts.  Tasks compare by identity (``eq=False``), like their
    :class:`~repro.ran.dag.DagInstance`.
    """

    task_id: int
    task_type: TaskType
    cell_name: str
    features: np.ndarray
    base_cost_us: float
    snr_margin_db: float = 10.0
    # DAG wiring, filled by repro.ran.dag
    predecessors_remaining: int = 0
    successors: list = field(default_factory=list)
    dag: Optional[object] = None
    # Execution bookkeeping, filled by the simulator
    enqueue_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    runtime_us: Optional[float] = None
    predicted_wcet_us: Optional[float] = None
    #: Longest predicted path from this task to a DAG sink (µs), filled
    #: by the Concordia scheduler at slot start for O(1) critical-path
    #: maintenance.
    path_us: float = 0.0
    #: Presampled state-independent runtime multiplier
    #: (:meth:`CostModel.stoch_multipliers`: lognormal noise, isolated
    #: tail, decode-iteration jitter); None until the builder assigns it,
    #: and :meth:`CostModel.sample_runtime` requires it.
    stoch_mult: Optional[float] = None
    #: Presampled uniform for the cache-interference tail trigger; the
    #: pool compares it against the state-dependent tail probability at
    #: dispatch time (equivalent in distribution to drawing there).
    #: None until the builder assigns it.
    cache_u: Optional[float] = None
    #: Presampled cache-interference tail magnitude, applied iff
    #: ``cache_u`` lands under the tail probability.
    cache_tail: float = 1.0
    #: Global leaf id this task routes to in the forest of the
    #: predictor whose ``route`` the builder holds
    #: (:meth:`repro.core.predictor.ConcordiaPredictor.route`): its row
    #: in that forest's leaf bank.  Set on every build, and read by that
    #: predictor alone instead of a tree walk per call.  -1 when the
    #: task was never routed.
    leaf: int = -1
    #: Whether this task type suffers multi-core memory stalls
    #: (precomputed: the frozenset membership test costs an enum hash
    #: on every :meth:`CostModel.sample_runtime` call otherwise).
    memory_bound: bool = False

    def __post_init__(self) -> None:
        self.memory_bound = self.task_type.is_memory_bound

    def feature(self, name: str) -> float:
        return float(self.features[FEATURE_INDEX[name]])

    @property
    def ready(self) -> bool:
        return self.predecessors_remaining == 0

    @property
    def deadline_us(self) -> float:
        """Absolute deadline inherited from the owning DAG."""
        if self.dag is None:
            raise ValueError("task is not attached to a DAG")
        return self.dag.deadline_us


# ---------------------------------------------------------------------------
# Cost-model constants, calibrated per DESIGN.md §4.
# ---------------------------------------------------------------------------

#: Per-codeblock LDPC decode base cost (µs); ~30 µs average with the
#: iteration factor applied, matching Fig. 6a (3 CB ≈ 100 µs, 15 ≈ 470 µs).
_DECODE_US_PER_CB = 21.0
_ENCODE_US_PER_CB = 4.0

#: Memory-stall penalty cap when codeblocks spread across cores (Fig. 6).
_MAX_CORE_PENALTY = 0.25

#: Task types whose runtimes suffer multi-core memory stalls.
_MEMORY_BOUND_TYPES = frozenset(
    {TaskType.LDPC_DECODE, TaskType.LDPC_ENCODE, TaskType.RATE_DEMATCH,
     TaskType.RATE_MATCH}
)

# Cache the two per-type lookups as plain member attributes: enum
# hashing is a Python-level call, and DAG construction reads both once
# per task.
for _t in _TYPE_LIST:
    _t.type_code = TYPE_CODE[_t]
    _t.is_memory_bound = _t in _MEMORY_BOUND_TYPES
del _t


def _iteration_factor(snr_margin_db: float) -> float:
    """Non-linear decoding-iteration inflation for low link margin (§4.1).

    A UE scheduled right at its MCS threshold needs more LDPC
    iterations, so decode cost rises as its SNR margin above that
    threshold shrinks.  With more than 5 dB of margin decoding converges
    in the minimum number of iterations and the cost is flat.  Below
    5 dB the factor grows linearly, 0.12 per dB, up to 1.72x at -1 dB
    and no further.  These values are hand-set and calibrated to the
    magnitudes of Fig. 6a's measured FlexRAN decode runtimes, not
    measured from a decoder; ``tests/test_tasks.py`` pins the shape.
    """
    shortfall = max(0.0, 5.0 - snr_margin_db)
    return 1.0 + 0.12 * min(shortfall, 6.0)


class CostModel:
    """Ground-truth runtime generator for signal-processing tasks.

    Deterministic base costs are functions of the slot/task features.
    The model draws nothing itself: :meth:`stoch_multipliers` turns raw
    variates (drawn per DAG by
    :meth:`repro.ran.dag.DagBuilder.draw_window`) into the
    state-independent runtime multiplier, and :meth:`sample_runtime`
    layers the multi-core memory-stall penalty and the caller-supplied
    cache-interference multipliers on top.
    """

    def __init__(
        self,
        noise_sigma: float = 0.04,
        isolated_tail_prob: float = 0.001,
        isolated_tail_scale: float = 1.35,
        decode_iteration_jitter: float = 0.06,
    ) -> None:
        self.noise_sigma = noise_sigma
        self.isolated_tail_prob = isolated_tail_prob
        self.isolated_tail_scale = isolated_tail_scale
        self.decode_iteration_jitter = decode_iteration_jitter

    # -- deterministic base costs -----------------------------------------

    def base_cost_us(
        self,
        task_type: TaskType,
        *,
        prbs: int,
        antennas: int,
        total_layers: int,
        slot_bytes: float,
        slot_codeblocks: int,
        task_codeblocks: int = 0,
        task_bytes: float = 0.0,
        snr_margin_db: float = 10.0,
        code_rate: float = 0.6,
        prb_share: float = 1.0,
        layers: int = 1,
    ) -> float:
        """Deterministic runtime (µs) of one task instance.

        Slot-scoped tasks (FFT/iFFT, precoding, CRC) depend on the whole
        slot; UE-scoped tasks (channel estimation through rate
        (de)matching) depend on that UE's PRB share, byte volume and
        layer count — FlexRAN fans these out per UE, which is what keeps
        the DAG's critical path short.
        """
        t = task_type
        if t is TaskType.FFT or t is TaskType.IFFT:
            return 2.0 + 0.04 * prbs * antennas
        if t is TaskType.CHANNEL_ESTIMATION:
            return 4.0 + 0.08 * prbs * prb_share * antennas
        if t is TaskType.EQUALIZATION:
            return 3.0 + 0.05 * prbs * prb_share * max(1, layers)
        if t is TaskType.DEMODULATION:
            return 2.0 + 0.0025 * task_bytes
        if t is TaskType.DESCRAMBLING:
            return 1.0 + 0.0003 * task_bytes
        if t is TaskType.RATE_DEMATCH:
            return 1.0 + 0.0010 * task_bytes
        if t is TaskType.LDPC_DECODE:
            per_cb = _DECODE_US_PER_CB * _iteration_factor(snr_margin_db)
            per_cb *= 1.0 + 0.35 * max(0.0, 0.8 - code_rate)
            return 2.0 + per_cb * task_codeblocks
        if t is TaskType.CRC_CHECK:
            return 1.0 + 0.0004 * slot_bytes
        if t is TaskType.CRC_ATTACH:
            return 1.0 + 0.0002 * slot_bytes
        if t is TaskType.LDPC_ENCODE:
            per_cb = _ENCODE_US_PER_CB * (1.0 + 0.3 * max(0.0, 0.8 - code_rate))
            return 1.0 + per_cb * task_codeblocks
        if t is TaskType.RATE_MATCH:
            return 1.0 + 0.0004 * task_bytes
        if t is TaskType.SCRAMBLING:
            return 1.0 + 0.0003 * task_bytes
        if t is TaskType.MODULATION:
            return 2.0 + 0.0009 * task_bytes
        if t is TaskType.PRECODING:
            return 2.0 + 0.08 * prbs * antennas
        raise ValueError(f"unknown task type {t}")

    def base_costs_batch(
        self,
        type_codes: np.ndarray,
        *,
        prbs: np.ndarray,
        antennas: np.ndarray,
        slot_bytes: np.ndarray,
        task_codeblocks: np.ndarray,
        task_bytes: np.ndarray,
        snr_margin_db: np.ndarray,
        code_rate: np.ndarray,
        prb_share: np.ndarray,
        layers: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`base_cost_us` over parallel task arrays.

        ``type_codes`` holds :data:`TYPE_CODE` values; all other inputs
        are float64 arrays of the same length (per-DAG constants like
        ``prbs`` pre-expanded by the caller).  Each element is computed
        with the *same operation order* as the scalar method, so the
        results are bit-identical — numpy's elementwise float64 ops are
        the identical IEEE-754 operations, just dispatched once per
        task-type group instead of once per task.
        """
        out = np.empty(type_codes.shape[0], dtype=np.float64)
        for code in np.unique(type_codes):
            idx = np.nonzero(type_codes == code)[0]
            t = _TYPE_LIST[code]
            if t is TaskType.FFT or t is TaskType.IFFT:
                out[idx] = 2.0 + 0.04 * prbs[idx] * antennas[idx]
            elif t is TaskType.CHANNEL_ESTIMATION:
                out[idx] = 4.0 + 0.08 * prbs[idx] * prb_share[idx] \
                    * antennas[idx]
            elif t is TaskType.EQUALIZATION:
                out[idx] = 3.0 + 0.05 * prbs[idx] * prb_share[idx] \
                    * np.maximum(1, layers[idx])
            elif t is TaskType.DEMODULATION:
                out[idx] = 2.0 + 0.0025 * task_bytes[idx]
            elif t is TaskType.DESCRAMBLING or t is TaskType.SCRAMBLING:
                out[idx] = 1.0 + 0.0003 * task_bytes[idx]
            elif t is TaskType.RATE_DEMATCH:
                out[idx] = 1.0 + 0.0010 * task_bytes[idx]
            elif t is TaskType.LDPC_DECODE:
                shortfall = np.minimum(
                    np.maximum(0.0, 5.0 - snr_margin_db[idx]), 6.0)
                per_cb = _DECODE_US_PER_CB * (1.0 + 0.12 * shortfall)
                per_cb = per_cb * (
                    1.0 + 0.35 * np.maximum(0.0, 0.8 - code_rate[idx]))
                out[idx] = 2.0 + per_cb * task_codeblocks[idx]
            elif t is TaskType.CRC_CHECK:
                out[idx] = 1.0 + 0.0004 * slot_bytes[idx]
            elif t is TaskType.CRC_ATTACH:
                out[idx] = 1.0 + 0.0002 * slot_bytes[idx]
            elif t is TaskType.LDPC_ENCODE:
                per_cb = _ENCODE_US_PER_CB * (
                    1.0 + 0.3 * np.maximum(0.0, 0.8 - code_rate[idx]))
                out[idx] = 1.0 + per_cb * task_codeblocks[idx]
            elif t is TaskType.RATE_MATCH:
                out[idx] = 1.0 + 0.0004 * task_bytes[idx]
            elif t is TaskType.MODULATION:
                out[idx] = 2.0 + 0.0009 * task_bytes[idx]
            elif t is TaskType.PRECODING:
                out[idx] = 2.0 + 0.08 * prbs[idx] * antennas[idx]
            else:
                raise ValueError(f"unknown task type code {code}")
        return out

    # -- stochastic sampling ----------------------------------------------

    def core_penalty(self, task_type: TaskType, active_cores: int) -> float:
        """Multiplicative memory-stall penalty for memory-bound tasks.

        Grows with the number of cores concurrently working on the pool
        (cross-core codeblock fetches, Fig. 6b), saturating at +25 %.
        """
        if task_type not in _MEMORY_BOUND_TYPES or active_cores <= 1:
            return 0.0
        return _MAX_CORE_PENALTY * min(1.0, (active_cores - 1) / 5.0)

    def memory_stalls_per_cycle(
        self, task_codeblocks: int, active_cores: int
    ) -> float:
        """Proxy for Fig. 6b's stalls-per-cycle perf counter."""
        base = 0.02 + 0.004 * task_codeblocks
        spread = 0.0 if active_cores <= 1 else min(1.0, (active_cores - 1) / 5.0)
        return base * (1.0 + 6.0 * spread)

    def stoch_multipliers(self, normal: np.ndarray, tail_u: np.ndarray,
                          jitter_u: np.ndarray,
                          decode: np.ndarray) -> np.ndarray:
        """State-independent runtime multipliers from raw variates.

        ``normal`` holds standard normals, ``tail_u``/``jitter_u``
        uniforms in [0, 1), and ``decode`` marks the LDPC-decode rows.
        Lognormal noise, then the rare isolated tail, then the decode
        jitter: the realized iteration count is data-dependent, so two
        decodes with identical parameters can need very different
        numbers of iterations (§A.1).  The exponential tail (inverse
        CDF of ``jitter_u``) is what makes Gaussian prediction
        intervals under-cover decode runtimes while the quantile tree's
        distribution-free leaf maximum absorbs it (Fig. 14).  Every op
        is elementwise, so any split of the rows gives the same values.
        """
        mult = np.exp(normal * self.noise_sigma)
        mult[tail_u < self.isolated_tail_prob] *= self.isolated_tail_scale
        mult[decode] *= 1.0 + self.decode_iteration_jitter * (
            -np.log1p(-jitter_u[decode]))
        return mult

    def sample_runtime(
        self,
        task: TaskInstance,
        active_cores: int = 1,
        interference_multiplier: float = 1.0,
        tail_multiplier: float = 1.0,
    ) -> float:
        """The actual execution time of ``task`` (µs).

        Applies the task's presampled ``stoch_mult`` and the multi-core
        memory-stall penalty; ``interference_multiplier``/
        ``tail_multiplier`` come from the cache-interference model, and
        1.0 means the vRAN runs in isolation.
        """
        base = task.base_cost_us
        # Inline of core_penalty(): one method call per task execution
        # is measurable on the hot path.
        if active_cores > 1 and task.memory_bound:
            spread = (active_cores - 1) * 0.2
            base *= 1.0 + _MAX_CORE_PENALTY * (
                1.0 if spread >= 1.0 else spread)
        runtime = base * task.stoch_mult * interference_multiplier * tail_multiplier
        return runtime if runtime > 0.3 else 0.3


def slot_base_features(
    load: SlotLoad,
    cell: CellConfig,
    slot_index: int,
) -> np.ndarray:
    """Slot-level part of the feature vector X, shared by all tasks.

    Per-task fields (task_codeblocks, task_bytes, rand_probe) are filled
    in per task by :meth:`repro.ran.dag.DagBuilder.build_many`;
    computing the slot aggregates once per DAG keeps task construction
    off the profile.
    """
    allocations = load.allocations
    if allocations:
        n = len(allocations)
        mean_mcs = sum(a.mcs.index for a in allocations) / n
        min_margin = min(a.snr_db - a.mcs.min_snr_db for a in allocations)
        mean_mod = sum(a.mcs.modulation_order for a in allocations) / n
        mean_rate = sum(a.mcs.code_rate for a in allocations) / n
    else:
        mean_mcs, min_margin, mean_mod, mean_rate = 0.0, 10.0, 0.0, 0.0
    prbs = prbs_for_bandwidth(cell.bandwidth_mhz, cell.numerology)
    return np.array(
        [
            load.num_ues,
            load.total_bytes,
            load.total_codeblocks,
            load.total_layers,
            mean_mcs,
            min_margin,
            mean_mod,
            mean_rate,
            prbs,
            cell.num_antennas,
            0.0,  # task_codeblocks, per task
            0.0,  # task_bytes, per task
            1.0 if load.uplink else 0.0,
            slot_index % 10,
            (slot_index // 10) % 7,
            0.0,  # rand_probe, per task
        ],
        dtype=np.float64,
    )
