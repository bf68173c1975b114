"""Figure 14 (and appendix Figs. 17-18): prediction-model accuracy.

Compares linear regression, gradient boosting and the quantile decision
tree as per-task WCET predictors, per the paper's two metrics:

* **deadlines missed %** — the fraction of task executions whose actual
  runtime exceeded the predicted WCET (log scale in the paper);
* **average WCET prediction error** — mean (predicted − actual) over
  executions where the prediction held; smaller means fewer wasted
  cores.

Scenarios: 1 or 2 × 20 MHz FDD cells on 4 cores, isolated (FD) or with
Redis / TPCC collocated.  The paper's finding: gradient boosting ties
the quantile tree on miss rate (except channel estimation), linear
regression is far worse, and the quantile tree has the smallest error
(~43 µs for LDPC decoding) — plus the full-DAG deadline-miss rate under
the Concordia scheduler sits well below any per-task miss rate thanks
to the 20 µs compensation.
"""

from __future__ import annotations

import numpy as np

from ..core.models import (
    GradientBoostingWCET,
    LinearRegressionWCET,
    QuantileTreeWCET,
)
from ..core.quantile_tree import TreeConfig
from ..core.predictor import ConcordiaPredictor
from ..core.training import collect_offline_dataset
from ..ran.config import PoolConfig, cell_20mhz_fdd
from ..ran.tasks import TaskType
from ..scenario import Scenario, build_simulation
from .common import format_table, make_spec, run_spec_batch, scaled_slots

__all__ = ["run", "run_full_dag", "main", "MODEL_FACTORIES", "TASKS"]

#: Mid-granularity tree for the accuracy study: with hundreds (not the
#: paper's 500K) of offline profiling samples, very deep trees leave
#: each leaf's ring buffer too thin for a stable maximum (a fresh
#: sample beats the max of N with ~1/N odds), while very coarse trees
#: surrender the per-input precision that drives Fig. 14b's error win.
_ACCURACY_TREE = TreeConfig(max_depth=7, min_samples_leaf=60)

MODEL_FACTORIES = {
    "linear_regression": LinearRegressionWCET,
    "gradient_boosting": GradientBoostingWCET,
    "quantile_tree": lambda: QuantileTreeWCET(_ACCURACY_TREE),
}

#: Tasks evaluated: Fig. 14 uses LDPC decoding; appendix A.2 adds these.
TASKS = (
    TaskType.LDPC_DECODE,
    TaskType.LDPC_ENCODE,
    TaskType.PRECODING,
    TaskType.CHANNEL_ESTIMATION,
    TaskType.EQUALIZATION,
)


def _pool(num_cells: int) -> PoolConfig:
    cells = tuple(cell_20mhz_fdd(f"cell-{i}") for i in range(num_cells))
    return PoolConfig(cells=cells, num_cores=4, deadline_us=2000.0)


def _collect_online(config, workload, num_slots, seed, predictors,
                    warmup_fraction: float = 0.3):
    """Run the pool and score every prediction against actual runtimes.

    The first ``warmup_fraction`` of the run trains the online buffers
    without scoring: the paper's measurements are steady-state (its
    online phase runs continuously), so the cold-start transient —
    per-leaf buffers that have not yet seen collocation-inflated
    samples — is excluded from the accuracy metrics.
    """
    simulation = build_simulation(Scenario(
        pool=config, policy="flexran", workload=workload,
        load_fraction=0.6, seed=seed))
    scores = {
        name: {task: {"miss": 0, "total": 0, "error_sum": 0.0}
               for task in TASKS}
        for name in predictors
    }
    warmup_until = warmup_fraction * num_slots *         config.slot_duration_us

    def observe(task):
        if task.task_type not in TASKS:
            return
        scoring = simulation.engine.now >= warmup_until
        for name, predictor in predictors.items():
            predicted = predictor.predict_task(task)
            if predicted is None:
                continue
            if scoring:
                bucket = scores[name][task.task_type]
                bucket["total"] += 1
                if task.runtime_us > predicted:
                    bucket["miss"] += 1
                else:
                    bucket["error_sum"] += predicted - task.runtime_us
            predictor.observe_task(task)

    simulation.pool.task_observers.append(observe)
    simulation.run(num_slots)
    return scores


def run(num_slots: int = None, seed: int = 31,
        scenarios=((1, "none"), (2, "none"), (1, "redis"), (2, "redis"),
                   (1, "tpcc"), (2, "tpcc"))) -> dict:
    """Score the three model families across the Fig. 14 scenarios."""
    if num_slots is None:
        num_slots = scaled_slots(2500)
    training_slots = scaled_slots(700, minimum=300)
    results = {}
    for num_cells, workload in scenarios:
        config = _pool(num_cells)
        dataset = collect_offline_dataset(config, num_slots=training_slots,
                                          seed=seed)
        predictors = {}
        for name, factory in MODEL_FACTORIES.items():
            predictor = ConcordiaPredictor(model_factory=factory,
                                           rng=np.random.default_rng(seed))
            predictor.fit_offline(dataset, task_types=TASKS)
            predictors[name] = predictor
        scores = _collect_online(config, workload, num_slots, seed,
                                 predictors)
        for name, per_task in scores.items():
            for task, bucket in per_task.items():
                if bucket["total"] == 0:
                    continue
                held = bucket["total"] - bucket["miss"]
                results[(num_cells, workload, name, task)] = {
                    "miss_pct": 100.0 * bucket["miss"] / bucket["total"],
                    "avg_error_us": bucket["error_sum"] / max(held, 1),
                    "samples": bucket["total"],
                }
    return results


def run_full_dag(num_slots: int = None, seed: int = 31,
                 scenarios=((1, "none"), (2, "redis")),
                 jobs: int = None) -> dict:
    """The 'Full DAG Quantile DT' bars: slot-deadline misses under the
    Concordia scheduler, which compensates per-task mispredictions."""
    if num_slots is None:
        num_slots = scaled_slots(6000)
    specs = [
        make_spec(Scenario(pool=_pool(num_cells), policy="concordia",
                           workload=workload, load_fraction=0.6, seed=seed),
                  num_slots)
        for num_cells, workload in scenarios
    ]
    results = {}
    for (num_cells, workload), result in zip(
            scenarios, run_spec_batch(specs, jobs=jobs)):
        results[(num_cells, workload)] = {
            "miss_pct": 100.0 * result.latency.miss_fraction,
            "p99999_us": result.latency.p99999_us,
        }
    return results


def main(num_slots: int = None) -> str:
    results = run(num_slots)
    out = []
    for task in TASKS:
        rows = []
        for (cells, workload, model, task_key), entry in sorted(
                results.items(), key=lambda kv: (kv[0][2], kv[0][0],
                                                 kv[0][1])):
            if task_key is not task:
                continue
            rows.append([
                model, f"{cells} cell(s)", workload,
                f"{entry['miss_pct']:.3f}%",
                f"{entry['avg_error_us']:.0f}",
            ])
        out.append(format_table(
            ["model", "cells", "workload", "deadlines missed",
             "avg WCET error (us)"],
            rows, title=f"Figure 14 / A.2 - prediction accuracy for "
                        f"{task.value}"))
    dag = run_full_dag(num_slots)
    rows = [
        [f"{cells} cell(s)", workload, f"{entry['miss_pct']:.4f}%",
         f"{entry['p99999_us']:.0f}"]
        for (cells, workload), entry in dag.items()
    ]
    out.append(format_table(
        ["cells", "workload", "slot deadlines missed", "p99.999 (us)"],
        rows, title="Figure 14a - Full DAG under the Concordia scheduler"))
    return "\n\n".join(out)


if __name__ == "__main__":
    print(main())
