"""Byte-identity regression tests for the task-event fast path.

The fast-path optimizations (reusable engine timers, O(1) bitmap
dispatch, task/DAG instance pooling, vectorized DAG construction,
coalesced metrics emission, incremental scheduler tick) are only
admissible because they leave ``SimulationResult`` byte-identical:
no RNG draw may be added, dropped or reordered, and no float may be
accumulated in a different order.

The golden digests below are SHA-256 hashes of the canonical-JSON
result payload (wall-clock telemetry stripped; see
:mod:`repro.exec.digest`), captured on the pre-optimization tree.
They must never change as a side effect of performance work — a
mismatch means a behavioural regression, not a stale test.  Only an
intentional model/semantics change may regenerate them (with
``python -m tests.test_determinism`` printing the current values).

The ``concordia`` (ML) policy is not in that table: the default
``get_predictor`` path reads and writes a disk cache, so a run there
depends on what an earlier run left behind.  ``concordia-noml``
exercises the identical pool/scheduler fast path without training, and
one extra golden, :data:`GOLDEN_TRAINED_DIGEST`, pins the ML policy
end to end: a predictor trained in-process (``cache_path=None``, small
profiling budget) and handed to the simulation explicitly.  It covers
the whole offline phase (profiling, distance-correlation ranking with
its subsample draws, backwards elimination, the quantile-tree fit), so
a speed-up anywhere in training must leave it unchanged.
"""

import json

from repro.core.training import train_predictor
from repro.exec import run_batch
from repro.exec.digest import result_digest
from repro.experiments.common import make_spec
from repro.fleet import FleetScenario, Planner, combined_digest
from repro.ran.config import pool_20mhz_7cells
from repro.scenario import Scenario, build_simulation

SLOTS = 80
SEED = 11

#: Fleet golden: a 50-cell metro (20 MHz kind, 40 slots, seed 11) must
#: sample every cell byte-identically regardless of sharding; this is
#: the combined SHA-256 over all 50 per-cell demand-trace digests.
FLEET_CELLS = 50
FLEET_SLOTS = 40
GOLDEN_FLEET_DIGEST = \
    "09afc0cea67eadc9ee0326c89bf6568343c2758f4562286fbec94ab38173d0b9"

#: (policy, workload) -> SHA-256 of the canonical result payload,
#: captured before the fast-path work (fixed 20 MHz / 7-cell pool,
#: load 0.5, seed 11, 80 slots).
GOLDEN_DIGESTS = {
    ("concordia-noml", "none"):
        "9d18158d2eaa7d0ae779756eed3a7ad3dacabe6874646dee593f1e3372c0d77c",
    ("concordia-noml", "redis"):
        "94b52502423062a80c69153f43569403d1764d02b4cf92058769dc3a00314807",
    ("flexran", "none"):
        "05233ba9661b81a50d5039f26ca4c818900dfe8a25080ec814f9057f0036383b",
    ("flexran", "redis"):
        "a3296113bb9479bbb30b7b5150ddea5c40ab06fc48c8ec4e6ecd548f3c1ace89",
}

#: Trained ``concordia`` golden: 7 x 20 MHz pool, redis, load 0.5,
#: seed 11, 80 slots, with a predictor trained on TRAINED_SLOTS
#: profiling slots (seed 11).  Several task types exceed the 1500-sample
#: dCor cap at this budget, so the subsample draws are covered too.
TRAINED_SLOTS = 40
GOLDEN_TRAINED_DIGEST = \
    "3dfeec2e54d124cf0801f4d8bdbe82f7a75d97e315fbe74df4bd1e07fd729d73"


def _run_digest(policy: str, workload: str) -> str:
    scenario = Scenario(
        pool={"name": "20mhz"},
        policy=policy,
        workload=workload,
        load_fraction=0.5,
        seed=SEED,
    )
    result = build_simulation(scenario).run(SLOTS)
    return result_digest(result)


def _trained_digest() -> str:
    scenario = Scenario(
        pool={"name": "20mhz"},
        policy="concordia",
        workload="redis",
        load_fraction=0.5,
        seed=SEED,
    )
    predictor = train_predictor(scenario.pool_config(),
                                num_slots=TRAINED_SLOTS, seed=SEED,
                                cache_path=None)
    result = build_simulation(scenario, predictor=predictor).run(SLOTS)
    return result_digest(result)


class TestGoldenDigests:
    def test_all_policy_workload_cells_match_golden(self):
        mismatches = {}
        for (policy, workload), expected in GOLDEN_DIGESTS.items():
            got = _run_digest(policy, workload)
            if got != expected:
                mismatches[(policy, workload)] = got
        assert not mismatches, (
            "result digests drifted from the pre-optimization goldens "
            f"(behavioural regression): {mismatches}")

    def test_trained_concordia_matches_golden(self):
        assert _trained_digest() == GOLDEN_TRAINED_DIGEST, (
            "trained-predictor digest drifted from the golden "
            "(behavioural regression in training or the ML policy)")

    def test_digest_is_run_to_run_stable(self):
        first = _run_digest("concordia-noml", "redis")
        second = _run_digest("concordia-noml", "redis")
        assert first == second


def _fleet_digests(shards: int, jobs: int = 1) -> dict:
    fleet = FleetScenario(cells=FLEET_CELLS, shards=shards,
                          num_slots=FLEET_SLOTS, seed=SEED)
    report = Planner(fleet, jobs=jobs).run()
    assert report.ok, report.failures
    return report.cell_digests


class TestFleetShardingInvariance:
    """serial == ``--shards 4``: per-cell sampling is shard-invariant.

    Per-cell streams are keyed by global cell id, so a 50-cell fleet
    sharded 4 ways must produce byte-identical per-cell demand digests
    to the unsharded serial run — and both must match the golden
    captured when the fleet layer landed.
    """

    def test_serial_matches_golden(self):
        digests = _fleet_digests(shards=1)
        assert len(digests) == FLEET_CELLS
        assert combined_digest(digests) == GOLDEN_FLEET_DIGEST, (
            "fleet sampling drifted from the golden digest "
            "(behavioural regression)")

    def test_four_shards_byte_identical_to_serial(self):
        serial = _fleet_digests(shards=1)
        sharded = _fleet_digests(shards=4)
        assert sharded == serial
        assert combined_digest(sharded) == GOLDEN_FLEET_DIGEST


class TestSerialParallelEquivalence:
    def test_serial_and_two_jobs_byte_identical(self):
        specs = [
            make_spec(pool_20mhz_7cells(), "concordia-noml",
                      workload="redis", num_slots=60, seed=s)
            for s in (11, 12)
        ]
        serial = run_batch(specs, jobs=1, use_cache=False)
        parallel = run_batch(specs, jobs=2, use_cache=False)
        assert [o.status for o in serial.outcomes] == ["ok", "ok"]
        assert [o.status for o in parallel.outcomes] == ["ok", "ok"]
        serial_digests = [result_digest(o.result) for o in serial.outcomes]
        parallel_digests = [result_digest(o.result)
                            for o in parallel.outcomes]
        assert serial_digests == parallel_digests


if __name__ == "__main__":  # pragma: no cover — golden regeneration aid
    current = {
        cell: _run_digest(*cell) for cell in GOLDEN_DIGESTS
    }
    payload = {f"{p}/{w}": d for (p, w), d in current.items()}
    payload["concordia/redis (trained)"] = _trained_digest()
    payload["fleet"] = combined_digest(_fleet_digests(shards=1))
    print(json.dumps(payload, indent=2))
