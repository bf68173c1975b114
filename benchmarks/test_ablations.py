"""Ablation benchmarks for Concordia's design choices (DESIGN.md §5).

Not figures from the paper, but quantifications of the design decisions
the paper motivates qualitatively:

* the 20 µs tick — coarser scheduling reacts too slowly to wakeup
  stalls and mispredictions;
* the release-hold window — releasing cores the instant demand dips
  thrashes caches like vanilla FlexRAN;
* the ML predictor itself — scheduling on a naive inflated-mean
  estimate instead of the quantile tree.
"""

import time

from repro.core.leaf_evt import LeafEvtQuantileTree
from repro.core.training import train_predictor
from repro.exec.spec import run_spec
from repro.experiments.common import make_spec, run_spec_batch, scaled_slots
from repro.ran.config import pool_20mhz_7cells
from repro.scenario import Scenario


def _spec(policy_params, num_slots=None, policy="concordia", **fields):
    slots = num_slots if num_slots is not None else scaled_slots(5000)
    return make_spec(
        Scenario(pool=pool_20mhz_7cells(), policy=policy,
                 policy_params=policy_params, workload="redis",
                 load_fraction=0.5, seed=7, **fields), slots)


def _run_grid(specs: dict) -> dict:
    """Run ``{name: spec}`` as one batch; returns ``{name: result}``."""
    return dict(zip(specs, run_spec_batch(list(specs.values()))))


def test_ablation_tick_interval(benchmark, write_report):
    def sweep():
        return _run_grid({tick: _spec({"tick_interval_us": tick})
                          for tick in (20.0, 100.0, 500.0)})

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        f"tick={tick:5.0f}us p99.99={r.latency.p9999_us:7.0f} "
        f"miss={r.latency.miss_fraction:.2e} "
        f"reclaimed={r.reclaimed_fraction * 100:5.1f}%"
        for tick, r in results.items()
    ]
    write_report("ablation_tick", "\n".join(lines))
    # The 20us tick is at least as reliable as coarser ones.
    assert results[20.0].latency.p99999_us <= \
        results[500.0].latency.p99999_us * 1.05
    assert results[20.0].latency.miss_fraction <= \
        results[500.0].latency.miss_fraction + 1e-5


def test_ablation_release_hold(benchmark, write_report):
    def sweep():
        return _run_grid({hold: _spec({"release_hold_us": hold})
                          for hold in (0.0, 300.0, 1500.0)})

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        f"hold={hold:6.0f}us events={r.scheduling_events:7d} "
        f"stall+={r.mean_stall_increase * 100:5.2f}% "
        f"reclaimed={r.reclaimed_fraction * 100:5.1f}% "
        f"miss={r.latency.miss_fraction:.2e}"
        for hold, r in results.items()
    ]
    write_report("ablation_release_hold", "\n".join(lines))
    # No hold -> more scheduling events and markedly more cache churn.
    assert results[0.0].scheduling_events > \
        1.2 * results[300.0].scheduling_events
    assert results[0.0].mean_stall_increase > \
        1.5 * results[300.0].mean_stall_increase
    # A very long hold wastes reclaimable CPU.
    assert results[1500.0].reclaimed_fraction < \
        results[0.0].reclaimed_fraction


def test_ablation_predictor(benchmark, write_report):
    def sweep():
        return _run_grid({
            "quantile-tree": _spec({}),
            "no-ml-fallback": _spec({}, policy="concordia-noml"),
        })

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        f"{name:15s} p99.99={r.latency.p9999_us:7.0f} "
        f"miss={r.latency.miss_fraction:.2e} "
        f"reclaimed={r.reclaimed_fraction * 100:5.1f}%"
        for name, r in results.items()
    ]
    write_report("ablation_predictor", "\n".join(lines))
    ml = results["quantile-tree"]
    naive = results["no-ml-fallback"]
    # Both meet deadlines at this load, but the trained predictor's
    # tail-aware estimates come at little or no reclaim cost; the naive
    # margin either under-reserves (more misses) or over-reserves.
    assert ml.latency.miss_fraction <= naive.latency.miss_fraction + 1e-4


def test_ablation_leaf_predictor(benchmark, write_report):
    """§4.2's rejected alternative: per-leaf EVT instead of leaf max —
    comparable reliability, strictly more online compute."""

    def sweep():
        config = pool_20mhz_7cells()
        slots = scaled_slots(600, minimum=300)
        out = {}
        for name, factory in (("leaf-max", None),
                              ("leaf-evt", LeafEvtQuantileTree)):
            start = time.perf_counter()
            predictor = train_predictor(config, num_slots=slots, seed=42,
                                        model_factory=factory)
            result = run_spec(make_spec(
                Scenario(pool=config, policy="concordia", workload="redis",
                         load_fraction=0.5, seed=7),
                scaled_slots(3000)), predictor=predictor)
            out[name] = (result, time.perf_counter() - start)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        f"{name:10s} miss={r.latency.miss_fraction:.2e} "
        f"p99.99={r.latency.p9999_us:7.0f} "
        f"reclaimed={r.reclaimed_fraction * 100:5.1f}% wall={wall:5.1f}s"
        for name, (r, wall) in results.items()
    ]
    write_report("ablation_leaf_predictor", "\n".join(lines))
    max_rule, __ = results["leaf-max"]
    evt_rule, __ = results["leaf-evt"]
    # Similar reliability (the paper's finding) ...
    assert max_rule.latency.miss_fraction < 1e-3
    assert evt_rule.latency.miss_fraction < 1e-3


def test_ablation_static_partition(benchmark, write_report):
    """The manual alternative Concordia replaces: a fixed k-core
    partition either misses deadlines (small k) or wastes CPU (big k);
    Concordia gets both ends at once."""

    def sweep():
        specs = {
            f"static-{cores}": _spec({"reserved_cores": cores},
                                     policy="static",
                                     num_slots=scaled_slots(3000))
            for cores in (3, 5, 8)}
        specs["concordia"] = _spec({}, num_slots=scaled_slots(3000))
        return _run_grid(specs)

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        f"{name:10s} miss={r.latency.miss_fraction:.2e} "
        f"p99.99={r.latency.p9999_us:9.0f} "
        f"reclaimed={r.reclaimed_fraction * 100:5.1f}%"
        for name, r in results.items()
    ]
    write_report("ablation_static_partition", "\n".join(lines))
    concordia = results["concordia"]
    # A small partition collapses under the 50% load ...
    assert results["static-3"].latency.miss_fraction > 0.01
    # ... the full partition is reliable but reclaims nothing ...
    assert results["static-8"].latency.miss_fraction < 1e-3
    assert results["static-8"].reclaimed_fraction < 0.01
    # ... Concordia is reliable AND reclaims.
    assert concordia.latency.miss_fraction < 1e-3
    assert concordia.reclaimed_fraction > 0.3


def test_ablation_harq_feedback(benchmark, write_report):
    """HARQ retransmissions add correlated load; Concordia absorbs it."""

    def sweep():
        return _run_grid({
            "no-harq": _spec({}, num_slots=scaled_slots(3000)),
            "harq": _spec({}, num_slots=scaled_slots(3000), harq=True),
        })

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = []
    for name, r in results.items():
        extra = ""
        if r.harq:
            extra = (f" bler={r.harq['block_error_rate']:.3f} "
                     f"retx={r.harq['retransmissions']}")
        lines.append(
            f"{name:8s} miss={r.latency.miss_fraction:.2e} "
            f"util={r.vran_utilization * 100:5.1f}%"
            f" reclaimed={r.reclaimed_fraction * 100:5.1f}%{extra}")
    write_report("ablation_harq", "\n".join(lines))
    harq = results["harq"]
    assert harq.harq is not None
    assert 0.01 <= harq.harq["block_error_rate"] <= 0.2
    assert harq.harq["residual_loss_rate"] < 0.01
    # The retransmission load costs some reclaim but not reliability.
    assert harq.latency.miss_fraction < 1e-3
    assert harq.vran_utilization >= \
        results["no-harq"].vran_utilization - 0.01
