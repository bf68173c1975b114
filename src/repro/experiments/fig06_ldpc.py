"""Figure 6: LDPC decoding runtime characteristics.

Fig. 6a — violin plots of decode runtime vs number of codeblocks for
1, 4 and 6 CPU cores: linear in codeblocks, with up to ~25 % extra cost
when the work spreads across cores (memory stalls).
Fig. 6b — memory stalls per cycle vs codeblocks and core count.
"""

from __future__ import annotations

import numpy as np

from ..analysis.stats import violin_summary
from ..ran.tasks import CostModel, TaskInstance, TaskType
from .common import format_table, scaled_slots

__all__ = ["run", "main"]


def _decode_task(model: CostModel, codeblocks: int,
                 snr_margin: float = 3.0) -> TaskInstance:
    base = model.base_cost_us(
        TaskType.LDPC_DECODE, prbs=273, antennas=4, total_layers=4,
        slot_bytes=codeblocks * 1056.0, slot_codeblocks=codeblocks,
        task_codeblocks=codeblocks, snr_margin_db=snr_margin,
        code_rate=0.7,
    )
    return TaskInstance(task_id=0, task_type=TaskType.LDPC_DECODE,
                        cell_name="c", features=np.zeros(16),
                        base_cost_us=base, snr_margin_db=snr_margin)


def run(samples_per_point: int = None, seed: int = 0) -> dict:
    """Sample decode runtimes for the Fig. 6 grid.

    Each grid point draws its raw variates from one seeded generator
    and turns them into runtime multipliers with the simulator's own
    :meth:`CostModel.stoch_multipliers`, so the figure shows exactly
    the noise model the pool executes.
    """
    if samples_per_point is None:
        samples_per_point = scaled_slots(4000, minimum=500)
    model = CostModel()
    rng = np.random.default_rng(seed)
    decode = np.ones(samples_per_point, dtype=bool)
    codeblock_counts = (3, 6, 9, 12, 15)
    core_counts = (1, 4, 6)
    runtimes = {}
    stalls = {}
    for cores in core_counts:
        for cbs in codeblock_counts:
            task = _decode_task(model, cbs)
            tail_u, jitter_u = rng.random((2, samples_per_point))
            mults = model.stoch_multipliers(
                rng.standard_normal(samples_per_point), tail_u, jitter_u,
                decode)
            samples = []
            for mult in mults.tolist():
                task.stoch_mult = mult
                samples.append(model.sample_runtime(task, active_cores=cores))
            runtimes[(cores, cbs)] = violin_summary(samples)
            stalls[(cores, cbs)] = model.memory_stalls_per_cycle(cbs, cores)
    return {
        "codeblock_counts": codeblock_counts,
        "core_counts": core_counts,
        "runtimes": runtimes,
        "stalls": stalls,
    }


def main(samples_per_point: int = None) -> str:
    results = run(samples_per_point)
    rows = []
    for cbs in results["codeblock_counts"]:
        row = [str(cbs)]
        for cores in results["core_counts"]:
            summary = results["runtimes"][(cores, cbs)]
            row.append(f"{summary.q50:.0f} ({summary.q05:.0f}-"
                       f"{summary.q95:.0f})")
        rows.append(row)
    out = format_table(
        ["#codeblocks", "1 core (us)", "4 cores (us)", "6 cores (us)"],
        rows, title="Figure 6a - LDPC decode runtime median (p5-p95)")
    stall_rows = []
    for cbs in results["codeblock_counts"]:
        stall_rows.append([str(cbs)] + [
            f"{results['stalls'][(cores, cbs)]:.3f}"
            for cores in results["core_counts"]
        ])
    out += "\n\n" + format_table(
        ["#codeblocks", "1 core", "4 cores", "6 cores"], stall_rows,
        title="Figure 6b - memory stalls per cycle (model proxy)")
    return out


if __name__ == "__main__":
    print(main())
