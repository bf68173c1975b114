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

import pytest

from repro.accel.offload import (
    Accelerator,
    attach_accelerator,
    pool_100mhz_accel,
)
from repro.core.training import train_predictor
from repro.exec import run_batch
from repro.exec.digest import result_digest
from repro.experiments.common import make_spec
from repro.fleet import FleetScenario, Planner, combined_digest
from repro.fleet.demand import ShardDemandRecorder
from repro.obs.events import EventBus
from repro.ran.config import pool_20mhz_7cells
from repro.scenario import Scenario, build_simulation
from repro.sim.pool import WorkerState

SLOTS = 80
SEED = 11

#: Fleet golden: a 50-cell metro (20 MHz kind, 40 slots, seed 11) must
#: sample every cell byte-identically regardless of sharding; this is
#: the combined SHA-256 over all 50 per-cell demand-trace digests.
FLEET_CELLS = 50
FLEET_SLOTS = 40
GOLDEN_FLEET_DIGEST = \
    "09afc0cea67eadc9ee0326c89bf6568343c2758f4562286fbec94ab38173d0b9"

#: Low-load fleet golden: the same 50-cell metro at load 0.05, where
#: small shards commit most slots in closed form without building
#: their DAGs, so the demand recorder hashes rows drawn at window-fill
#: time.  Captured while every observed slot's DAGs were still built.
LOW_LOAD_FRACTION = 0.05
LOW_LOAD_SHARDS = 25
GOLDEN_FLEET_LOW_LOAD_DIGEST = \
    "79648969e50ac847ba14b8d483418eb2334424bb14a0ccbe0ff995a5d645fad4"

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

#: MAC-allocation golden: 7 x 20 MHz pool, buffer-driven MAC
#: allocation with HARQ, concordia-noml, no workload, load 0.5, seed 23,
#: MAC_SLOTS slots — captured while MAC loads were still drawn one slot
#: at a time, before the window fill drew them.
MAC_SLOTS = 120
GOLDEN_MAC_DIGEST = \
    "dd71d791e0e10fcfd6fe58ea064a77d744b5317d68d2cf2f4ab9570ef8a385a1"

#: Drain-retire golden: concordia-noml on the 20 MHz / 7-cell pool, no
#: workload, load 0.5, seed 11, SLOTS slots, with a reconfig timeline
#: that removes 7 of the 8 workers at slot DRAIN_AT.  The idle ones
#: retire at once; the busy ones are drained and retire as their
#: running task completes.  Captured while ``VranPool._finish`` still
#: had its own drain-retire branch.
DRAIN_AT = 20
DRAIN_COUNT = 7
GOLDEN_DRAIN_DIGEST = \
    "c31cdeab363ebad7709305aba1bd49b7278abe9863e2036cc0fd3c8ee7577c77"

#: Accelerator golden: concordia-noml on two accelerated 100 MHz TDD
#: cells and three cores, load 0.5, seed 11, SLOTS slots, with the LDPC
#: tasks offloaded to an attached accelerator (completions come back
#: through ``VranPool.complete_offloaded``, which often starts CPU work
#: on a released successor).  Captured before ``VranPool`` had one
#: task-start and one task-completion body.
GOLDEN_ACCEL_DIGEST = \
    "bb60428cd5514f81c2962dc6321987f459b9391efc54d3ab61752d840fcc09c3"


def _run_digest(policy: str, workload: str, channel: str = "none") -> str:
    """Digest of one GOLDEN_DIGESTS cell, watched through ``channel``:
    "none", "bus" (an enabled event bus) or "observer" (a no-op live
    task observer).  Watching must leave the result unchanged."""
    scenario = Scenario(
        pool={"name": "20mhz"},
        policy=policy,
        workload=workload,
        load_fraction=0.5,
        seed=SEED,
    )
    bus = EventBus() if channel == "bus" else None
    simulation = build_simulation(scenario, event_bus=bus)
    if channel == "observer":
        simulation.pool.task_observers.append(lambda task: None)
    result = simulation.run(SLOTS)
    if bus is not None:
        assert len(bus) > 0
    return result_digest(result)


def _golden_mismatches(channel: str) -> dict:
    mismatches = {}
    for (policy, workload), expected in GOLDEN_DIGESTS.items():
        got = _run_digest(policy, workload, channel)
        if got != expected:
            mismatches[(policy, workload)] = got
    return mismatches


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


def _mac_digest() -> str:
    scenario = Scenario(
        pool={"name": "20mhz"},
        policy="concordia-noml",
        workload="none",
        load_fraction=0.5,
        seed=23,
        allocation="mac",
        harq=True,
    )
    return result_digest(build_simulation(scenario).run(MAC_SLOTS))


def _drain_run() -> tuple:
    """(digest, states of the workers remove_worker left draining)."""
    simulation = build_simulation(Scenario(
        pool={"name": "20mhz"},
        policy="concordia-noml",
        workload="none",
        load_fraction=0.5,
        seed=SEED,
        reconfig=({"action": "remove_worker", "at_slot": DRAIN_AT,
                   "count": DRAIN_COUNT},),
    ))
    pool = simulation.pool
    remove = pool.remove_worker
    drained = {}

    def spy(core_id=None):
        core = remove(core_id)
        for worker in pool.workers:
            if worker.core_id == core and worker.retiring:
                drained[core] = worker.state
        return core

    pool.remove_worker = spy
    result = simulation.run(SLOTS)
    assert pool.num_cores == pool.config.num_cores - DRAIN_COUNT
    assert not set(drained) & {w.core_id for w in pool.workers}
    return result_digest(result), drained


def _accel_run() -> tuple:
    """(digest, offloaded completions that started CPU work)."""
    simulation = build_simulation(Scenario(
        pool=pool_100mhz_accel(num_cells=2, num_cores=3),
        policy="concordia-noml",
        load_fraction=0.5,
        seed=SEED,
    ))
    pool = simulation.pool
    attach_accelerator(pool, Accelerator(simulation.engine))
    complete = pool.complete_offloaded
    started = []

    def spy(task):
        running = pool.running_count
        complete(task)
        started.append(pool.running_count > running)

    pool.complete_offloaded = spy
    result = simulation.run(SLOTS)
    return result_digest(result), sum(started)


class TestGoldenDigests:
    def test_all_policy_workload_cells_match_golden(self):
        mismatches = _golden_mismatches("none")
        assert not mismatches, (
            "result digests drifted from the pre-optimization goldens "
            f"(behavioural regression): {mismatches}")

    @pytest.mark.parametrize("channel", ["bus", "observer"])
    def test_recording_leaves_goldens_unchanged(self, channel):
        mismatches = _golden_mismatches(channel)
        assert not mismatches, (
            f"watching the run through {channel!r} changed its result: "
            f"{mismatches}")

    def test_drain_retire_matches_golden(self):
        digest, drained = _drain_run()
        # The timeline must drain at least one worker mid-task, so the
        # retire-on-completion path is what the golden pins.
        assert WorkerState.RUNNING in drained.values()
        assert digest == GOLDEN_DRAIN_DIGEST, (
            "drain-retire digest drifted from the golden (behavioural "
            "regression in remove_worker or task completion)")

    def test_accelerator_matches_golden(self):
        digest, started = _accel_run()
        assert started > 0
        assert digest == GOLDEN_ACCEL_DIGEST, (
            "accelerator digest drifted from the golden (behavioural "
            "regression in offload or complete_offloaded)")

    def test_trained_concordia_matches_golden(self):
        assert _trained_digest() == GOLDEN_TRAINED_DIGEST, (
            "trained-predictor digest drifted from the golden "
            "(behavioural regression in training or the ML policy)")

    def test_mac_allocation_matches_golden(self):
        assert _mac_digest() == GOLDEN_MAC_DIGEST, (
            "MAC+HARQ digest drifted from the golden (behavioural "
            "regression in MAC allocation, HARQ or slot sourcing)")

    def test_digest_is_run_to_run_stable(self):
        first = _run_digest("concordia-noml", "redis")
        second = _run_digest("concordia-noml", "redis")
        assert first == second


def _fleet_digests(shards: int, jobs: int = 1,
                   load_fraction: float = 0.5) -> dict:
    fleet = FleetScenario(cells=FLEET_CELLS, shards=shards,
                          num_slots=FLEET_SLOTS, seed=SEED,
                          load_fraction=load_fraction)
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

    def test_low_load_committed_slots_match_golden(self):
        # Two-cell shards at load 0.05 commit most slots through the
        # array kernel; their digests must equal the serial run's.
        fleet = FleetScenario(cells=FLEET_CELLS, shards=LOW_LOAD_SHARDS,
                              num_slots=FLEET_SLOTS, seed=SEED,
                              load_fraction=LOW_LOAD_FRACTION)
        committed = 0
        for scenario in fleet.derive_shards():
            simulation = build_simulation(scenario)
            config = scenario.pool_config()
            simulation.demand_observer = ShardDemandRecorder(
                config.cells, config.deadline_us)
            simulation.run(FLEET_SLOTS)
            committed += simulation.kernel_stats["array_slots"]
        assert committed > FLEET_SLOTS * LOW_LOAD_SHARDS // 2
        sharded = _fleet_digests(shards=LOW_LOAD_SHARDS,
                                 load_fraction=LOW_LOAD_FRACTION)
        assert combined_digest(sharded) == GOLDEN_FLEET_LOW_LOAD_DIGEST, (
            "low-load fleet sampling drifted from the golden digest "
            "(behavioural regression)")
        serial = _fleet_digests(shards=1, load_fraction=LOW_LOAD_FRACTION)
        assert sharded == serial


class TestSerialParallelEquivalence:
    def test_serial_and_two_jobs_byte_identical(self):
        specs = [
            make_spec(Scenario(pool=pool_20mhz_7cells(),
                               policy="concordia-noml", workload="redis",
                               seed=s), 60)
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
    payload["mac+harq"] = _mac_digest()
    payload["drain-retire"] = _drain_run()[0]
    payload["accelerator"] = _accel_run()[0]
    payload["fleet"] = combined_digest(_fleet_digests(shards=1))
    payload["fleet (low load)"] = combined_digest(
        _fleet_digests(shards=1, load_fraction=LOW_LOAD_FRACTION))
    print(json.dumps(payload, indent=2))
