"""Tests for the elastic runtime: worker add/remove, cell detach/attach,
declarative reconfig timelines, and mid-run fleet migration.

The invariants under test:

* ``VranPool.add_worker``/``remove_worker`` change the *physical* core
  set mid-run — distinct from the ``request_cores`` ratchet — with
  drain-then-retire semantics (a busy worker is never preempted) and
  capacity-segment-aware core-time accounting;
* a detached cell's live record (traffic generator, allocation stream,
  MAC pipelines, HARQ manager with its in-flight retransmissions)
  resumes byte-identically in another fleet shard or back in the
  simulation it left, so a mid-run fleet migration leaves the migrated
  cell's sampling digest untouched while rebalancing per-server
  utilization; a move that would change the cell's allocation stream
  is rejected;
* an *empty* reconfig timeline is invisible: scenarios serialize with
  their legacy schemas and all digests are byte-identical;
* the migration-cost model produces a bounded deadline-miss transient
  (state-transfer hold) and predictor warm-up (WCET inflation) without
  touching any sampling stream.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.exec.digest import (canonical_json, canonical_result_payload,
                               result_digest)
from repro.fleet import FleetScenario, Planner
from repro.fleet.demand import ShardDemandRecorder
from repro.obs.events import CoreEvent, EventBus
from repro.obs.export import chrome_trace
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.scenario import (
    RECONFIG_SCHEMA,
    ReconfigEvent,
    SCENARIO_SCHEMA,
    Scenario,
    build_simulation,
    load_reconfig_script,
    reconfig_from_payload,
)
from repro.sim.engine import Engine
from repro.sim.pool import VranPool, WorkerState

from .test_pool import ManualPolicy, _FixedCost, _fast_os, make_dag, make_pool


def make_bus_pool(num_cores=4):
    """A pool wired to a live EventBus (make_pool has no bus)."""
    engine = Engine()
    config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=num_cores,
                        deadline_us=2000.0)
    bus = EventBus()
    pool = VranPool(
        engine=engine, config=config, policy=ManualPolicy(),
        cost_model=_FixedCost(noise_sigma=0.0, isolated_tail_prob=0.0),
        os_model=_fast_os(), event_bus=bus,
    )
    return engine, pool, bus


class TestElasticWorkers:
    def test_add_worker_grows_capacity(self):
        engine, pool = make_pool(num_cores=2)
        core = pool.add_worker()
        assert core == 2
        assert pool.num_cores == 3
        added = next(w for w in pool.workers if w.core_id == core)
        # New cores join the best-effort side until the policy asks.
        assert added.state is WorkerState.YIELDED
        pool.request_cores(3)
        engine.run_until(100.0)
        assert pool.reserved_count == 3

    def test_add_worker_rejects_duplicate_core(self):
        engine, pool = make_pool(num_cores=2)
        with pytest.raises(ValueError):
            pool.add_worker(core_id=1)

    def test_remove_idle_worker_is_immediate(self):
        engine, pool = make_pool(num_cores=3)
        core = pool.remove_worker()
        assert pool.num_cores == 2
        assert all(w.core_id != core for w in pool.workers)

    def test_remove_busy_worker_drains_then_retires(self):
        engine, pool = make_pool(num_cores=1)
        dag = make_dag(total_bytes=3000)
        pool.add_worker()
        pool.request_cores(2)
        pool.release_slot([dag])
        # Let the workers pick up tasks, then ask for a shrink.
        while pool.running_count == 0 and engine.step():
            pass
        busy = next(w for w in pool.workers
                    if w.state is WorkerState.RUNNING)
        pool.remove_worker(core_id=busy.core_id)
        # Drain-then-retire: the worker keeps its task, the pool still
        # counts the core until the in-flight work completes.
        assert busy.retiring
        assert pool.num_cores == 2
        engine.run_until(50_000.0)
        assert dag.finished
        assert pool.num_cores == 1
        assert all(w.core_id != busy.core_id for w in pool.workers)

    def test_cannot_remove_last_worker(self):
        engine, pool = make_pool(num_cores=1)
        with pytest.raises(ValueError):
            pool.remove_worker()

    def test_remove_retiring_core_again_rejected(self):
        engine, pool = make_pool(num_cores=2)
        dag = make_dag(total_bytes=8000)
        pool.release_slot([dag])
        while pool.running_count < 1 and engine.step():
            pass
        busy = next(w for w in pool.workers
                    if w.state is WorkerState.RUNNING)
        pool.remove_worker(core_id=busy.core_id)
        with pytest.raises(ValueError):
            pool.remove_worker(core_id=busy.core_id)

    def test_core_time_uses_capacity_segments(self):
        engine, pool = make_pool(num_cores=2)
        engine.run_until(1000.0)
        pool.add_worker()
        pool.request_cores(3)
        engine.run_until(2000.0)
        pool.metrics.finalize(engine.now)
        # 2 cores for 1 ms, then 3 cores for 1 ms.
        assert pool.metrics.total_core_time_us == pytest.approx(
            2 * 1000.0 + 3 * 1000.0)

    def test_static_pool_core_time_matches_legacy_product(self):
        engine, pool = make_pool(num_cores=4)
        engine.run_until(2500.0)
        pool.metrics.finalize(engine.now)
        assert pool.metrics.total_core_time_us == pytest.approx(
            4 * 2500.0)


class TestElasticObservability:
    def test_worker_add_remove_events_recorded(self):
        engine, pool, bus = make_bus_pool(num_cores=2)
        engine.run_until(100.0)
        core = pool.add_worker()
        pool.remove_worker(core_id=core)
        kinds = [(e.kind, e.core) for e in bus.events
                 if isinstance(e, CoreEvent)
                 and e.kind.startswith("pool.worker")]
        assert ("pool.worker_add", core) in kinds
        assert ("pool.worker_remove", core) in kinds

    def test_grant_revoke_aggregate_records_signed_delta(self):
        engine, pool, bus = make_bus_pool(num_cores=4)
        pool.request_cores(1)   # revoke 3
        pool.request_cores(3)   # grant 2
        deltas = [(e.kind, e.core) for e in bus.events
                  if isinstance(e, CoreEvent)
                  and e.kind in ("pool.core_grant", "pool.core_revoke")]
        assert deltas[0] == ("pool.core_revoke", -3)
        # The grant lands once the woken workers are counted reserved
        # (the wake is synchronous bookkeeping, so immediately).
        assert deltas[1][0] == "pool.core_grant"
        assert deltas[1][1] > 0

    def test_chrome_trace_emits_pool_instants(self):
        engine, pool, bus = make_bus_pool(num_cores=2)
        engine.run_until(50.0)
        pool.add_worker()
        pool.request_cores(1)
        doc = chrome_trace(bus.events)
        instants = [e for e in doc["traceEvents"]
                    if e.get("ph") == "i"
                    and e["name"].startswith("pool.")]
        names = {e["name"] for e in instants}
        assert "pool.worker_add" in names
        assert "pool.core_revoke" in names
        for entry in instants:
            assert set(entry["args"]) == {"core", "reserved", "target"}


class TestReconfigEvent:
    def test_roundtrip(self):
        event = ReconfigEvent(at_slot=20, action="migrate", cell=2,
                              src_shard=0, dst_shard=1, transfer_slots=3,
                              warmup_slots=6, warmup_factor=2.0)
        (clone,) = reconfig_from_payload(
            json.loads(json.dumps([event.to_dict()])))
        assert clone == event

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ReconfigEvent(at_slot=0, action="teleport_cell")

    def test_migrate_needs_distinct_shards(self):
        with pytest.raises(ValueError):
            ReconfigEvent(at_slot=1, action="migrate", cell=0,
                          src_shard=1, dst_shard=1)

    def test_load_reconfig_script(self, tmp_path):
        path = tmp_path / "timeline.json"
        path.write_text(json.dumps({
            "_comment": "ignored",
            "events": [{"action": "add_worker", "at_slot": 4,
                        "count": 2}],
        }))
        (event,) = load_reconfig_script(path)
        assert event.action == "add_worker"
        assert event.at_slot == 4
        assert event.count == 2

    def test_scenario_empty_timeline_keeps_legacy_schema(self):
        payload = Scenario(pool={"name": "20mhz"}).to_dict()
        assert payload["schema"] == SCENARIO_SCHEMA
        assert "reconfig" not in payload

    def test_scenario_timeline_roundtrip(self):
        scenario = Scenario(
            pool={"name": "20mhz"}, seed=3,
            reconfig=({"action": "add_worker", "at_slot": 5},))
        payload = json.loads(json.dumps(scenario.to_dict()))
        assert payload["schema"] == RECONFIG_SCHEMA
        clone = Scenario.from_dict(payload)
        assert clone.reconfig == scenario.reconfig
        assert clone == scenario

    def test_fleet_empty_timeline_keeps_legacy_schema(self):
        payload = FleetScenario(cells=4, shards=2, num_slots=10).to_dict()
        assert "reconfig" not in payload
        clone = FleetScenario.from_dict(json.loads(json.dumps(payload)))
        assert clone.reconfig == ()

    def test_fleet_timeline_roundtrip(self):
        fleet = FleetScenario(
            cells=6, shards=2, num_slots=30, seed=4,
            reconfig=({"action": "migrate", "cell": 1, "src_shard": 0,
                       "dst_shard": 1, "at_slot": 10},))
        clone = FleetScenario.from_dict(
            json.loads(json.dumps(fleet.to_dict())))
        assert clone == fleet
        assert clone.migrations() == fleet.migrations()

    def test_fleet_validates_migrate_endpoints(self):
        with pytest.raises(ValueError):
            FleetScenario(cells=4, shards=2, num_slots=10, reconfig=(
                {"action": "migrate", "cell": 9, "src_shard": 0,
                 "dst_shard": 1, "at_slot": 5},))
        with pytest.raises(ValueError):
            FleetScenario(cells=4, shards=2, num_slots=10, reconfig=(
                {"action": "migrate", "cell": 0, "src_shard": 0,
                 "dst_shard": 5, "at_slot": 5},))
        with pytest.raises(ValueError):
            FleetScenario(cells=4, shards=2, num_slots=10, reconfig=(
                {"action": "migrate", "cell": 0, "src_shard": 0,
                 "dst_shard": 1, "at_slot": 99},))


def _scenario(reconfig=(), seed=11, **fields):
    return Scenario(pool={"name": "20mhz"}, policy="concordia-noml",
                    load_fraction=0.5, seed=seed, reconfig=reconfig,
                    **fields)


class TestSimulationTimeline:
    def test_worker_timeline_changes_capacity(self):
        simulation = build_simulation(_scenario((
            {"action": "add_worker", "at_slot": 10, "count": 2},
            {"action": "remove_worker", "at_slot": 30},
        )))
        result = simulation.run(40)
        assert result.num_slots == 40
        assert simulation.pool.num_cores == 8 + 2 - 1

    def test_migrate_rejected_at_simulation_level(self):
        simulation = build_simulation(_scenario((
            {"action": "migrate", "cell": 0, "src_shard": 0,
             "dst_shard": 1, "at_slot": 5},)))
        with pytest.raises(ValueError, match="fleet-planner verb"):
            simulation.run(20)

    def test_timeline_slot_out_of_range_rejected(self):
        simulation = build_simulation(_scenario((
            {"action": "add_worker", "at_slot": 50},)))
        with pytest.raises(ValueError, match="outside"):
            simulation.run(20)

    @pytest.mark.parametrize("slot", [1, 20, 33])
    @pytest.mark.parametrize("fields", [
        {}, {"allocation": "mac", "harq": True}], ids=["iid", "mac-harq"])
    def test_detach_attach_same_slot_is_identity(self, fields, slot):
        # Detaching the *last* cell and re-attaching it at the same
        # boundary preserves within-slot build order, so every sampled
        # and accumulated number must be byte-identical to a
        # timeline-free run — MAC buffers and in-flight HARQ
        # retransmissions included.  The embedded scenario payload is
        # excluded from the comparison — carrying a timeline
        # legitimately bumps its schema.
        def behavior_digest(result):
            payload = canonical_result_payload(result.to_dict())
            payload.pop("scenario", None)
            return hashlib.sha256(
                canonical_json(payload).encode()).hexdigest()

        baseline = build_simulation(_scenario(**fields)).run(40)
        cycled = build_simulation(_scenario((
            {"action": "detach_cell", "cell": "cell20-6",
             "at_slot": slot},
            {"action": "attach_cell", "cell": "cell20-6",
             "at_slot": slot, "transfer_slots": 0, "warmup_slots": 0},
        ), **fields)).run(40)
        assert behavior_digest(cycled) == behavior_digest(baseline)

    def test_detach_outage_reattach_later(self):
        simulation = build_simulation(_scenario((
            {"action": "detach_cell", "cell": "cell20-3", "at_slot": 10},
            {"action": "attach_cell", "cell": "cell20-3", "at_slot": 25,
             "transfer_slots": 0, "warmup_slots": 0},
        )))
        result = simulation.run(40)
        assert result.num_slots == 40
        assert not simulation.detached_cells
        assert len(simulation._cells) == 7

    def test_attach_without_snapshot_rejected(self):
        simulation = build_simulation(_scenario((
            {"action": "attach_cell", "cell": "cell20-2", "at_slot": 5},)))
        with pytest.raises(ValueError, match="no detached snapshot"):
            simulation.run(20)

    def test_detach_unknown_cell_rejected(self):
        simulation = build_simulation(_scenario())
        simulation.start(10)
        with pytest.raises(ValueError, match="no attached cell"):
            simulation.detach_cell("nonesuch")

    def test_attach_rejects_foreign_seed(self):
        donor = build_simulation(_scenario(seed=11))
        donor.start(10)
        snapshot = donor.detach_cell("cell20-6")
        other = build_simulation(_scenario(seed=12))
        other.start(10)
        with pytest.raises(ValueError, match="seed"):
            other.attach_cell(snapshot)

    def test_attach_rejects_duplicate_cell(self):
        donor = build_simulation(_scenario())
        donor.start(10)
        snapshot = donor.detach_cell("cell20-6")
        donor.attach_cell(snapshot)
        with pytest.raises(ValueError, match="already attached"):
            donor.attach_cell(snapshot)

    @staticmethod
    def _move_b(fleet: bool, dst_allocation: str = "iid") -> str:
        """Move cell ``b`` from pool {a, b} to pool {c} at slot 10;
        returns ``b``'s sampling digest."""
        cells = [cell_20mhz_fdd(name) for name in "abc"]
        sims = []
        for base, shard, allocation in ((0, cells[:2], "iid"),
                                        (2, cells[2:], dst_allocation)):
            scenario = Scenario(
                pool=PoolConfig(cells=tuple(shard), num_cores=4,
                                deadline_us=2000.0),
                policy="concordia-noml", load_fraction=0.5, seed=3,
                allocation=allocation,
                cell_id_base=base if fleet else None)
            simulation = build_simulation(scenario)
            simulation.demand_observer = ShardDemandRecorder(
                shard, 2000.0)
            simulation.start(40)
            simulation.add_window_barrier(10)
            simulation.run_to_barrier(10)
            sims.append(simulation)
        src, dst = sims
        dst.attach_cell(src.detach_cell("b"))
        dst.demand_observer.attach_cell(
            "b", src.demand_observer.detach_cell("b"))
        for simulation in sims:
            simulation.run_to_end()
        return dst.finish().demand["cell_digests"]["b"]

    def test_fleet_keyed_move_keeps_digest(self):
        unmoved = build_simulation(Scenario(
            pool=PoolConfig(cells=(cell_20mhz_fdd("a"),
                                   cell_20mhz_fdd("b")),
                            num_cores=4, deadline_us=2000.0),
            policy="concordia-noml", load_fraction=0.5, seed=3,
            cell_id_base=0))
        unmoved.demand_observer = ShardDemandRecorder(
            unmoved.pool_config.cells, 2000.0)
        digest = unmoved.run(40).demand["cell_digests"]["b"]
        assert self._move_b(fleet=True) == digest

    def test_move_between_unkeyed_simulations_rejected(self):
        # Outside a fleet every cell draws its allocations from its
        # simulation's one shared stream, so a cell moved into another
        # simulation would draw from that simulation's stream instead.
        with pytest.raises(ValueError, match="allocation stream"):
            self._move_b(fleet=False)

    def test_move_across_allocation_modes_rejected(self):
        # An i.i.d. cell has no MAC pipelines for a MAC shard to step.
        with pytest.raises(ValueError, match="allocation stream"):
            self._move_b(fleet=True, dst_allocation="mac")

    def test_segmented_run_matches_monolithic(self):
        baseline = build_simulation(_scenario()).run(40)
        segmented = build_simulation(_scenario())
        segmented.start(40)
        segmented.add_window_barrier(13)
        segmented.add_window_barrier(27)
        segmented.run_to_barrier(13)
        segmented.run_to_barrier(27)
        segmented.run_to_end()
        result = segmented.finish()
        assert result_digest(result) == result_digest(baseline)


MIGRATION = ({"action": "migrate", "cell": 2, "src_shard": 0,
              "dst_shard": 1, "at_slot": 15, "transfer_slots": 2,
              "warmup_slots": 6, "warmup_factor": 1.5},)


class TestFleetMigration:
    def _reports(self, slots=40, cells=8):
        baseline = Planner(FleetScenario(
            cells=cells, shards=2, num_slots=slots, seed=7)).run()
        migrated = Planner(FleetScenario(
            cells=cells, shards=2, num_slots=slots, seed=7,
            reconfig=MIGRATION)).run()
        return baseline, migrated

    def test_migrated_digests_match_baseline(self):
        baseline, migrated = self._reports()
        assert migrated.cell_digests == baseline.cell_digests
        assert migrated.fleet_digest == baseline.fleet_digest

    def test_report_carries_reconfig_rows(self):
        _, migrated = self._reports()
        (row,) = migrated.reconfig
        assert row["event"]["action"] == "migrate"
        assert row["cell"] == "cell20-c0002"
        for key in ("util_before", "util_after", "miss_at_barrier",
                    "miss_after_barrier"):
            assert set(row[key]) == {"src", "dst"}
        # Utilization rebalances: the source sheds load, the
        # destination picks it up.
        assert row["util_after"]["src"] < row["util_before"]["src"]
        assert row["util_after"]["dst"] > row["util_before"]["dst"]
        # The transient is bounded, not a meltdown: the held slots can
        # miss, later ones must not pile up unboundedly.
        assert 0 <= row["miss_after_barrier"]["dst"] <= 2 * \
            MIGRATION[0]["transfer_slots"] + MIGRATION[0]["warmup_slots"]

    def test_reconfig_in_report_payload_and_render(self):
        _, migrated = self._reports()
        payload = migrated.to_dict()
        assert payload["reconfig"] == migrated.reconfig
        text = migrated.render()
        assert "migrate cell20-c0002 shard 0->1" in text

    def test_lockstep_ignores_jobs(self):
        fleet = FleetScenario(cells=6, shards=2, num_slots=30, seed=7,
                              reconfig=(
                                  {"action": "migrate", "cell": 1,
                                   "src_shard": 0, "dst_shard": 1,
                                   "at_slot": 10},))
        report = Planner(fleet, jobs=4).run()
        assert len(report.reconfig) == 1
        serial = Planner(FleetScenario(
            cells=6, shards=2, num_slots=30, seed=7)).run()
        assert report.cell_digests == serial.cell_digests


class TestReconfigCli:
    def test_fleet_reconfig_json(self, tmp_path, capsys):
        script = tmp_path / "spike.json"
        script.write_text(json.dumps({"events": list(MIGRATION)}))
        code = main(["fleet", "--cells", "6", "--shards", "2",
                     "--slots", "30", "--seed", "7",
                     "--reconfig", str(script), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["reconfig"]
        assert row["cell"] == "cell20-c0002"
        assert "util_after" in row

    def test_fleet_reconfig_verify_serial(self, capsys):
        code = main(["fleet", "--cells", "6", "--shards", "2",
                     "--slots", "30", "--seed", "7",
                     "--reconfig", "examples/reconfig_spike.json",
                     "--verify-serial"])
        assert code == 0
        assert "verify-serial OK" in capsys.readouterr().out
