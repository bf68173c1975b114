"""Figure 7: quantile-tree leaf stability under interference.

Fig. 7a — runtime samples routed to each leaf of the offline-trained
decode tree have low within-leaf variance, and the *grouping* stays
similar when the same workload runs next to a collocated workload.
Fig. 7b — the most distorted leaves (largest Wasserstein distance
between isolated and collocated CDFs) show heavier tails but runtimes
in the same region, which is what justifies updating leaf buffers
online without re-growing the tree (§4.2).

Also reproduces the §4.1 KS-test evidence: isolated vs collocated
runtimes are statistically different distributions (p << 0.001).
"""

from __future__ import annotations

import numpy as np

from ..analysis.stats import ks_two_sample, wasserstein_distance
from ..core.quantile_tree import QuantileDecisionTree, TreeConfig
from ..core.training import collect_offline_dataset
from ..ran.config import PoolConfig, cell_20mhz_fdd
from ..ran.tasks import TaskType
from ..scenario import Scenario, build_simulation
from .common import scaled_slots, format_table

__all__ = ["run", "main"]


def _collect_collocated(config, workload: str, num_slots: int, seed: int):
    """Decode samples with a collocated workload running."""
    simulation = build_simulation(Scenario(
        pool=config, policy="flexran", workload=workload,
        load_fraction=0.8, seed=seed, traffic="profiling"))
    xs, ys = [], []

    def observe(task):
        if task.task_type is TaskType.LDPC_DECODE:
            xs.append(task.features)
            ys.append(task.runtime_us)

    simulation.pool.task_observers.append(observe)
    simulation.run(num_slots)
    return np.vstack(xs), np.asarray(ys)


def run(num_slots: int = None, workload: str = "tpcc",
        seed: int = 21) -> dict:
    if num_slots is None:
        num_slots = scaled_slots(1200, minimum=300)
    config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                        deadline_us=2000.0)
    # Offline (isolated) decode samples and tree.
    dataset = collect_offline_dataset(config, num_slots=num_slots,
                                      seed=seed)
    x_iso, y_iso = dataset.arrays(TaskType.LDPC_DECODE)
    tree = QuantileDecisionTree(TreeConfig(max_depth=6,
                                           min_samples_leaf=40))
    tree.fit(x_iso, y_iso)
    leaves_iso = tree.leaf_indices(x_iso)
    # Online samples with collocation, routed through the same tree.
    x_col, y_col = _collect_collocated(config, workload, num_slots, seed)
    leaves_col = tree.leaf_indices(x_col)

    overall_var = float(y_iso.var())
    per_leaf = []
    for leaf in range(tree.num_leaves):
        iso = y_iso[leaves_iso == leaf]
        col = y_col[leaves_col == leaf]
        if len(iso) < 20 or len(col) < 20:
            continue
        per_leaf.append({
            "leaf": leaf,
            "iso_mean": float(iso.mean()),
            "iso_var_ratio": float(iso.var() / overall_var),
            "col_mean": float(col.mean()),
            "wasserstein": wasserstein_distance(iso, col),
            "col_p99_over_iso_p99": float(np.percentile(col, 99)
                                          / np.percentile(iso, 99)),
        })
    ks_stat, ks_p = ks_two_sample(y_iso, y_col)
    per_leaf.sort(key=lambda r: r["wasserstein"], reverse=True)
    return {
        "num_leaves": tree.num_leaves,
        "mean_within_leaf_var_ratio": float(
            np.mean([r["iso_var_ratio"] for r in per_leaf])),
        "per_leaf": per_leaf,
        "ks_stat": ks_stat,
        "ks_p_value": ks_p,
        "workload": workload,
    }


def main(num_slots: int = None) -> str:
    results = run(num_slots)
    header = (
        f"Figure 7 - leaf stability under {results['workload']} "
        f"interference\n"
        f"leaves: {results['num_leaves']}; mean within-leaf variance / "
        f"overall variance: {results['mean_within_leaf_var_ratio']:.3f} "
        f"(small => Fig. 7a grouping)\n"
        f"KS test isolated vs collocated: D={results['ks_stat']:.3f}, "
        f"p={results['ks_p_value']:.2e} (paper: p << 0.001)"
    )
    rows = [
        [r["leaf"], f"{r['iso_mean']:.0f}", f"{r['col_mean']:.0f}",
         f"{r['wasserstein']:.1f}", f"{r['col_p99_over_iso_p99']:.2f}"]
        for r in results["per_leaf"][:8]
    ]
    table = format_table(
        ["leaf", "iso mean (us)", "colloc mean (us)", "wasserstein",
         "colloc p99 / iso p99"],
        rows, title="Fig. 7b - most distorted leaves")
    return header + "\n\n" + table


if __name__ == "__main__":
    print(main())
