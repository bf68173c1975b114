"""A/B byte-identity tests for the array-timeline engine mode.

``engine_mode="array"`` commits certified slots in closed form inside
the slot-boundary callback (``repro.sim.arraykernel``), bypassing the
event heap; every other slot takes the event path.  It is only
admissible because the result payload is byte-identical to the event
engine: the canonical digest must match on every workload, whether a
run commits almost every slot (fig03-calibrated low load), none (the
load-0.5 goldens), or a per-slot mixture — and the kernel must cleanly
self-disable under every mode whose interior it cannot certify.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tests.test_determinism import (
    FLEET_CELLS,
    FLEET_SLOTS,
    GOLDEN_DIGESTS,
    GOLDEN_FLEET_DIGEST,
    SEED,
    SLOTS,
)

from repro.exec.digest import result_digest
from repro.fleet import FleetScenario, Planner, combined_digest
from repro.fleet.report import histogram_percentile, latency_histogram
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.ran.dag import (
    DagBuilder,
    dag_kind_key,
    plan_task_rows,
    topology_for_kind,
    topology_from_dag,
)
from repro.ran.tasks import CostModel, TaskType, prbs_for_bandwidth
from repro.ran.ue import SlotLoad, UeAllocation, mcs_for_snr
from repro.scenario import Scenario, build_simulation
from repro.sim.metrics import Metrics


def _scenario(**overrides) -> Scenario:
    base = dict(
        pool={"name": "20mhz"},
        policy="concordia-noml",
        workload="none",
        load_fraction=0.5,
        seed=SEED,
        engine_mode="array",
    )
    base.update(overrides)
    return Scenario(**base)


def _fig03_scenario(**overrides) -> Scenario:
    pool = PoolConfig(cells=(cell_20mhz_fdd("c0"),), num_cores=4,
                      deadline_us=2000.0)
    return _scenario(pool=pool, load_fraction=0.02, seed=7, **overrides)


def _ab(scenario_kwargs: dict, slots: int):
    """(array digest, event digest, array simulation)."""
    array_sim = build_simulation(_scenario(**scenario_kwargs))
    on = result_digest(array_sim.run(slots))
    event_sim = build_simulation(_scenario(engine_mode="event",
                                           **scenario_kwargs))
    off = result_digest(event_sim.run(slots))
    assert event_sim.kernel_stats["array_slots"] == 0
    return on, off, array_sim


class TestGoldenWorkloadsByteIdentity:
    """Array mode must reproduce the four frozen golden digests."""

    @pytest.mark.parametrize("policy,workload",
                             list(GOLDEN_DIGESTS.keys()))
    def test_array_mode_matches_golden(self, policy, workload):
        scenario = _scenario(policy=policy, workload=workload)
        result = build_simulation(scenario).run(SLOTS)
        assert result_digest(result) == GOLDEN_DIGESTS[(policy, workload)], (
            f"array-mode digest drifted from the golden for "
            f"({policy}, {workload})")

    def test_engine_mode_not_digest_relevant(self):
        # The digest canonicalization strips engine_mode: the mode is
        # an execution strategy, and the digest is the regression test
        # of its byte-identity contract.
        on, off, _ = _ab({}, slots=40)
        assert on == off


class TestCertifiedReplayByteIdentity:
    def test_fig03_low_load_fully_certified(self):
        # One 20 MHz cell at 2 % load: nearly every slot passes
        # certification (quiescent boundary, makespan fits), so this
        # exercises long runs of closed-form commits including the
        # boundary-coincident tick parking (1 ms slots / 20 us ticks
        # divide evenly).
        array_sim = build_simulation(_fig03_scenario())
        on = result_digest(array_sim.run(240))
        event_sim = build_simulation(_fig03_scenario(engine_mode="event"))
        off = result_digest(event_sim.run(240))
        assert on == off
        stats = array_sim.kernel_stats
        assert stats["array_slots"] / stats["slots"] >= 0.5

    def test_mixed_certified_and_fallback_slots(self):
        # Seven cells at 10 % load: some slots commit, others carry
        # DAGs across the boundary or blow the makespan budget and
        # take the event path mid-run — the hard case for the
        # parked-tick hand-over between the two paths.
        on, off, sim = _ab(dict(load_fraction=0.1, seed=7), slots=120)
        assert on == off
        stats = sim.kernel_stats
        assert 0 < stats["array_slots"] < stats["slots"], (
            "expected a per-slot mixture of commits and fallback, got "
            f"{stats}")

    def test_mac_allocation_with_harq_certifies_and_matches(self):
        # MAC pipelines and HARQ read only their own streams and the
        # allocations, never an execution outcome, so their slots are
        # drawn in the window and certified like model traffic.
        array_sim = build_simulation(_fig03_scenario(allocation="mac",
                                                     harq=True))
        on = result_digest(array_sim.run(240))
        event_sim = build_simulation(_fig03_scenario(
            allocation="mac", harq=True, engine_mode="event"))
        off = result_digest(event_sim.run(240))
        assert on == off
        assert array_sim.kernel_stats["array_slots"] > 0
        assert event_sim.kernel_stats["array_slots"] == 0

    def test_flexran_policy_never_certifies_but_matches(self):
        on, off, sim = _ab(dict(policy="flexran"), slots=40)
        assert on == off
        assert sim.kernel_stats["array_slots"] == 0


class TestVectorKernelInterleave:
    """Closed-form vector commits and event-path slots share one run.

    The window-vectorized kernel commits most certified slots without
    touching the event heap; slots whose OS wakeup draw lands in the
    overdue tail (or whose DAGs were materialized at fill time with
    inflation pending) are released on the event path instead.  The
    two paths interleave slot by slot and the digest must not move.
    """

    def test_fig03_vector_and_event_slots_interleave(self):
        array_sim = build_simulation(_fig03_scenario())
        on = result_digest(array_sim.run(240))
        event_sim = build_simulation(_fig03_scenario(engine_mode="event"))
        off = result_digest(event_sim.run(240))
        assert on == off
        stats = array_sim.kernel_stats
        # The kernel takes a slot only in closed form; the remainder
        # (overdue-wakeup tail draws, ~5 % of slots) runs on the event
        # path — both kinds must occur in this run for the test to
        # mean anything.
        assert stats["vector_slots"] == stats["array_slots"]
        assert 0 < stats["vector_slots"] < stats["slots"]
        assert event_sim.kernel_stats["vector_slots"] == 0

    def test_mixed_load_vector_slots_subset_of_array_slots(self):
        on, off, sim = _ab(dict(load_fraction=0.1, seed=7), slots=120)
        assert on == off
        stats = sim.kernel_stats
        assert 0 < stats["vector_slots"] <= stats["array_slots"] \
            < stats["slots"]

    def test_window_barrier_splits_certified_run(self):
        # A barrier splits the window fill without disabling the
        # kernel: the certified run is planned across two shorter
        # windows (one extra fill pass), commits the same slots in
        # closed form, and stays byte-identical.
        base = build_simulation(_fig03_scenario())
        reference = result_digest(base.run(240))
        split = build_simulation(_fig03_scenario())
        split.add_window_barrier(37)
        assert result_digest(split.run(240)) == reference
        stats = split.kernel_stats
        assert stats["windows"] == base.kernel_stats["windows"] + 1
        assert stats["vector_slots"] == stats["array_slots"] \
            == base.kernel_stats["vector_slots"]
        assert 0 < stats["vector_slots"] < stats["slots"]


class TestGeneratedScenariosMatchEventEngine:
    """Differential oracle for the kernel's one fallback.

    Whatever mix of closed-form commits and event-path slots a small
    random scenario produces — including the boundary-tick hand-over
    in ``after_fallback_release`` — its digest must equal the event
    engine's.  Examples are derandomized, so the mixture check below
    is reproducible, and not shrunk, so a failure reports in seconds
    rather than minutes.
    """

    def test_array_digest_equals_event_digest(self):
        mixed = []

        @settings(max_examples=20, deadline=None, derandomize=True,
                  database=None, phases=(Phase.explicit, Phase.generate))
        @given(cells=st.integers(1, 3),
               load=st.floats(0.01, 0.3),
               seed=st.integers(0, 2**16),
               policy=st.sampled_from(["concordia-noml", "flexran"]),
               harq=st.booleans(),
               slots=st.integers(60, 200))
        def check(cells, load, seed, policy, harq, slots):
            pool = PoolConfig(
                cells=tuple(cell_20mhz_fdd(f"c{i}") for i in range(cells)),
                num_cores=4, deadline_us=2000.0)
            kwargs = dict(pool=pool, policy=policy, load_fraction=load,
                          seed=seed, harq=harq)
            array_sim = build_simulation(_scenario(**kwargs))
            on = result_digest(array_sim.run(slots))
            event_sim = build_simulation(
                _scenario(engine_mode="event", **kwargs))
            assert on == result_digest(event_sim.run(slots))
            stats = array_sim.kernel_stats
            if 0 < stats["vector_slots"] < stats["slots"]:
                mixed.append(stats)

        check()
        assert mixed, "no example mixed vector and event-path slots"


def _alloc(ue_id: int, tbs_bytes: int, snr_db: float,
           layers: int) -> UeAllocation:
    return UeAllocation(ue_id=ue_id, tbs_bytes=tbs_bytes,
                        mcs=mcs_for_snr(snr_db), layers=layers,
                        snr_db=snr_db)


def _load_catalog() -> list:
    """One SlotLoad per structurally distinct DAG kind.

    Covers idle and busy slots in both directions, multi-allocation
    slots with multi-group LDPC splits, and a zero-codeblock
    allocation (a HARQ artifact: scheduled UE, empty transport block),
    whose decode/encode group count is zero.
    """
    multi = (
        _alloc(0, 12000, 18.0, 2),  # 12 codeblocks -> 3 decode groups
        _alloc(1, 800, 6.0, 1),     # 1 codeblock -> 1 group
        _alloc(2, 0, 12.0, 1),      # 0 codeblocks -> 0 groups
    )
    single = (_alloc(3, 40000, 22.0, 4),)  # 38 codeblocks -> 10 groups
    return [
        SlotLoad("cat", 3, True, ()),
        SlotLoad("cat", 3, False, ()),
        SlotLoad("cat", 5, True, multi),
        SlotLoad("cat", 5, False, multi),
        SlotLoad("cat", 9, True, single),
        SlotLoad("cat", 9, False, single),
    ]


class TestTopologyTemplatesAndPlanPipeline:
    """The plan-direct fill must mirror the builder bit for bit.

    The window fill certifies slots from ``plan_task_rows`` +
    ``base_costs_batch`` + ``plan_stoch_window`` without constructing
    task objects; a later fallback build of the same jobs must then
    reproduce exactly the values the plan was computed from.  These
    tests pin that equivalence per DAG kind, against freshly built
    DAGs.
    """

    CELL_INDEX = 4

    def _builder(self) -> DagBuilder:
        return DagBuilder(
            CostModel(rng=np.random.default_rng(0)),
            rng=np.random.default_rng(1),
            seed_seq=np.random.SeedSequence(entropy=123, spawn_key=(6,)))

    @pytest.mark.parametrize("load", _load_catalog(),
                             ids=lambda load: repr(dag_kind_key(load)))
    def test_topology_template_matches_fresh_dag(self, load):
        builder = self._builder()
        cell = cell_20mhz_fdd("cat")
        dag = builder.build(load, cell, 0.0, 2000.0,
                            cell_index=self.CELL_INDEX)
        assert dag.kind_key == dag_kind_key(load)
        template = topology_for_kind(dag)
        fresh = builder.build(load, cell, 0.0, 2000.0,
                              cell_index=self.CELL_INDEX)
        derived = topology_from_dag(fresh)
        assert derived == template
        # The level-synchronous schedule and the edge matrix describe
        # the same wiring.
        matrix = template.dependency_matrix()
        assert int(matrix.sum()) == sum(
            len(s) for s in template.successors)
        seen: set = set()
        for level in template.levels:
            for i in level:
                preds = np.nonzero(matrix[:, i])[0]
                assert all(p in seen for p in preds), (
                    "level schedule ordered a task before a predecessor")
            seen.update(level)
        assert len(seen) == template.num_tasks == len(fresh.tasks)

    @pytest.mark.parametrize("load", _load_catalog(),
                             ids=lambda load: repr(dag_kind_key(load)))
    def test_plan_rows_reproduce_built_task_values(self, load):
        builder = self._builder()
        cell = cell_20mhz_fdd("cat")
        dag = builder.build(load, cell, 0.0, 2000.0,
                            cell_index=self.CELL_INDEX)
        rows = plan_task_rows(load, cell)
        assert [row[0] for row in rows] == \
            [task.task_type for task in dag.tasks]
        # Base costs: the same batch call the window fill issues, over
        # the rows alone, must equal every built task's base_cost_us.
        (types, cbs, tbytes, margins, rates, shares,
         layers_col) = zip(*rows)
        n = len(rows)
        prbs = prbs_for_bandwidth(cell.bandwidth_mhz, cell.numerology)
        costs = builder.cost_model.base_costs_batch(
            np.array([t.type_code for t in types]),
            prbs=np.full(n, float(prbs)),
            antennas=np.full(n, float(cell.num_antennas)),
            slot_bytes=np.full(n, float(load.total_bytes)),
            task_codeblocks=np.array(cbs, dtype=np.float64),
            task_bytes=np.array(tbytes, dtype=np.float64),
            snr_margin_db=np.array(margins, dtype=np.float64),
            code_rate=np.array(rates, dtype=np.float64),
            prb_share=np.array(shares, dtype=np.float64),
            layers=np.array(layers_col, dtype=np.float64),
        ).tolist()
        assert costs == [task.base_cost_us for task in dag.tasks]
        # Stochastic multipliers: replaying the DAG's counter-keyed
        # stream through the plan path yields the built values.
        decode_indices = [i for i, row in enumerate(rows)
                          if row[0] is TaskType.LDPC_DECODE]
        mults = builder.plan_stoch_mults(
            n, decode_indices, self.CELL_INDEX, load.slot_index,
            load.uplink)
        assert mults == [task.stoch_mult for task in dag.tasks]

    def test_window_batched_stoch_equals_per_dag_calls(self):
        builder = self._builder()
        cell = cell_20mhz_fdd("cat")
        reqs = []
        expected = []
        for load in _load_catalog():
            rows = plan_task_rows(load, cell)
            decode_indices = [i for i, row in enumerate(rows)
                              if row[0] is TaskType.LDPC_DECODE]
            req = (len(rows), decode_indices, self.CELL_INDEX,
                   load.slot_index, load.uplink)
            reqs.append(req)
            expected.extend(builder.plan_stoch_mults(*req))
        assert builder.plan_stoch_window(reqs) == expected


class TestBatchLatencyIngest:
    """Batched slot-latency ingest is the scalar path, verbatim.

    The vector kernel flushes each slot's completions through
    ``Metrics.record_slot_batch``; the fix from the fleet-percentile
    work (overflow interpolation past the histogram range) must keep
    holding when the values arrive batched rather than one call per
    slot.
    """

    def test_batch_ingest_matches_scalar_ingest(self):
        values = [100.0, 250.5, 1999.9, 2300.0, 9000.0, 0.0, 7750.25]
        deadlines = [2000.0] * len(values)
        scalar = Metrics(4)
        for value, deadline in zip(values, deadlines):
            scalar.on_slot_complete(value, deadline)
        batched = Metrics(4)
        batched.record_slot_batch(tuple(values), tuple(deadlines))
        assert batched.slot_latencies == scalar.slot_latencies
        assert batched.slot_count == scalar.slot_count
        assert batched.slot_deadlines_missed == \
            scalar.slot_deadlines_missed
        assert latency_histogram(batched.slot_latencies, 2000.0) == \
            latency_histogram(scalar.slot_latencies, 2000.0)

    def test_overflow_interpolation_holds_for_batched_inserts(self):
        deadline = 2000.0
        range_top = 4.0 * deadline
        in_range = [100.0] * 994
        overflow = [9000.0, 9500.0, 10000.0, 11000.0, 12000.0, 20000.0]
        metrics = Metrics(4)
        metrics.record_slot_batch(in_range + overflow,
                                  [deadline] * 1000)
        hist = latency_histogram(metrics.slot_latencies, deadline)
        assert hist["overflow"] == len(overflow)
        assert hist["max_us"] == 20000.0
        p999 = histogram_percentile(hist, 0.999)
        p9999 = histogram_percentile(hist, 0.9999)
        # Tail percentiles interpolate *through* the overflow region —
        # strictly between the range top and the recorded maximum, and
        # monotone in the quantile — instead of collapsing onto max_us.
        assert range_top < p999 < p9999 <= 20000.0
        needed = 0.999 * hist["count"]
        inside = min(float(hist["overflow"]),
                     needed - (hist["count"] - hist["overflow"]))
        assert p999 == range_top + (20000.0 - range_top) * (
            inside / hist["overflow"])


class TestFleetByteIdentity:
    def test_array_fleet_matches_golden(self):
        # Fleet shards drive slots through run_to_barrier, whose
        # horizon ends at each boundary, so certification's run_end
        # gate falls back every slot — and the digests must still be
        # exactly the event-mode goldens.
        fleet = FleetScenario(cells=FLEET_CELLS, shards=2,
                              num_slots=FLEET_SLOTS, seed=SEED,
                              engine_mode="array")
        report = Planner(fleet, jobs=1).run()
        assert report.ok, report.failures
        assert len(report.cell_digests) == FLEET_CELLS
        assert combined_digest(report.cell_digests) == GOLDEN_FLEET_DIGEST


class TestKernelSelfDisable:
    """Modes the kernel cannot certify must fall back cleanly."""

    # Positions 2 and 3 keep the redis and reconfig cases' ids.
    @pytest.mark.parametrize("overrides", [
        dict(policy="flexran"),
        dict(workload="nginx"),
        dict(workload="redis"),
        dict(reconfig=({"action": "add_worker", "at_slot": 5},)),
    ])
    def test_static_gate_disables_kernel(self, overrides):
        simulation = build_simulation(_fig03_scenario(**overrides))
        simulation.run(20)
        assert simulation.kernel_stats["array_slots"] == 0
        assert simulation.kernel_stats["slots"] == 20

    def test_task_observer_disables_certification(self):
        # An observer changes the path, never the result; detaching it
        # before the run reopens the gate.
        from repro.sim.tracing import TraceRecorder

        plain = build_simulation(_fig03_scenario())
        digest = result_digest(plain.run(200))
        assert plain.kernel_stats["array_slots"] > 0

        observed = build_simulation(_fig03_scenario())
        seen = []
        observed.pool.task_observers.append(seen.append)
        assert result_digest(observed.run(200)) == digest
        assert observed.kernel_stats["array_slots"] == 0
        assert seen

        detached = build_simulation(_fig03_scenario())
        TraceRecorder().attach(detached).detach()
        assert result_digest(detached.run(200)) == digest
        assert (detached.kernel_stats["array_slots"]
                == plain.kernel_stats["array_slots"])


class TestPredictedPathBatchCutoff:
    def test_scalar_and_vector_paths_byte_identical(self, monkeypatch):
        # on_slot_start's WCET/critical-path fill picks a scalar or
        # numpy implementation by slot size; forcing each branch for a
        # whole run must not move a single float.
        import repro.ran.dag as dag_mod

        digests = set()
        for cutoff in (0, 10**9):
            monkeypatch.setattr(dag_mod, "_BATCH_PATH_CUTOFF", cutoff)
            simulation = build_simulation(
                _scenario(engine_mode="event", load_fraction=0.3))
            digests.add(result_digest(simulation.run(40)))
        assert len(digests) == 1


class TestFastRngBlockSize:
    """The stream is a deterministic function of (seed, block).

    The default block must reproduce the historical layout exactly —
    uniform presample first, normal presample second, raw-generator
    consumers continuing after both — because every golden digest
    depends on it.  Non-default blocks are deterministic too, but are
    deliberately distinct streams (see the fastrng module docstring).
    """

    def test_default_block_pins_historical_layout(self):
        import numpy as np

        from repro.sim.fastrng import DEFAULT_BLOCK, FastRng

        rng = FastRng(np.random.default_rng(42))
        raw = np.random.default_rng(42)
        expected_uniform = raw.random(DEFAULT_BLOCK)
        expected_normal = raw.standard_normal(DEFAULT_BLOCK)
        assert [rng.random() for _ in range(64)] == \
            expected_uniform[:64].tolist()
        assert [rng.standard_normal() for _ in range(64)] == \
            expected_normal[:64].tolist()
        # Raw-generator consumers (the wakeup model) resume exactly
        # after the two presample blocks.
        assert rng.generator.random() == raw.random()

    def test_explicit_default_block_identical_to_implicit(self):
        import numpy as np

        from repro.sim.fastrng import DEFAULT_BLOCK, FastRng

        implicit = FastRng(np.random.default_rng(7))
        explicit = FastRng(np.random.default_rng(7), block=DEFAULT_BLOCK)
        assert [implicit.random() for _ in range(32)] == \
            [explicit.random() for _ in range(32)]
        assert [implicit.standard_normal() for _ in range(32)] == \
            [explicit.standard_normal() for _ in range(32)]

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_each_block_size_is_deterministic(self, block):
        import numpy as np

        from repro.sim.fastrng import FastRng

        a = FastRng(np.random.default_rng(9), block=block)
        b = FastRng(np.random.default_rng(9), block=block)
        draws_a = [a.random() for _ in range(3 * block)] + \
            [a.standard_normal() for _ in range(3 * block)]
        draws_b = [b.random() for _ in range(3 * block)] + \
            [b.standard_normal() for _ in range(3 * block)]
        assert draws_a == draws_b

    def test_block_must_be_positive(self):
        import numpy as np

        from repro.sim.fastrng import FastRng

        with pytest.raises(ValueError):
            FastRng(np.random.default_rng(0), block=0)
