"""Byte-identity tests for the slot window.

The window fill (``Simulation._fill_window``) is the only way a slot's
loads are drawn: it draws traffic, UE allocations and HARQ state for
a whole window of slots, in every traffic and allocation mode, and
builds the window's DAGs through one ``build_many`` call.  Its width
must never change a result: every RNG stream must be consumed in
exactly the per-slot order, and every release/deadline float must
replay the engine's recurring-timer accumulation.

These tests run the same scenario at the default width and at width
1 (``sim.slot_window = 1``: one slot per fill, the per-slot draw
order) and require equal digests — including a HARQ scenario, whose
per-cell retransmission state threads through the window, MAC
allocation and profiling traffic, which draw inline, and low-load
scenarios where the idle fast path actually engages (on the Fig.
3-calibrated run it must cover at least half of the slots).  The
golden digests in ``tests/test_determinism.py``, captured before the
window existed, are the outside oracle.
"""

import pytest

from repro.exec.digest import result_digest
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.scenario import Scenario, build_simulation


def _scenario(**overrides) -> Scenario:
    base = dict(
        pool={"name": "20mhz"},
        policy="concordia-noml",
        workload="redis",
        load_fraction=0.5,
        seed=23,
    )
    base.update(overrides)
    return Scenario(**base)


def _ab_digests(scenario: Scenario, slots: int):
    """(default-width digest, width-1 digest, default-width simulation)."""
    windowed = build_simulation(scenario)
    assert windowed.slot_window > 1
    result_on = windowed.run(slots)
    per_slot = build_simulation(scenario)
    per_slot.slot_window = 1
    result_off = per_slot.run(slots)
    assert per_slot.kernel_stats["windows"] == slots
    return result_digest(result_on), result_digest(result_off), windowed


class TestWindowKernelByteIdentity:
    def test_windowed_matches_legacy(self):
        on, off, sim = _ab_digests(_scenario(), slots=60)
        assert on == off
        # The kernel must actually have run for the A/B to mean much.
        assert sim.kernel_stats["slots"] == 60
        assert 0 < sim.kernel_stats["windows"] < 60

    def test_windowed_matches_legacy_with_harq(self):
        on, off, sim = _ab_digests(_scenario(harq=True), slots=60)
        assert on == off
        assert sim.kernel_stats["windows"] > 0

    def test_flexran_policy_windowed_matches_legacy(self):
        on, off, sim = _ab_digests(_scenario(policy="flexran"), slots=60)
        assert on == off
        assert sim.kernel_stats["windows"] > 0

    def test_low_load_idle_fast_path_engages(self):
        # One cell at 2 % load: most slots carry no traffic in either
        # direction, so the pre-pass must detect and batch them.
        pool = PoolConfig(cells=(cell_20mhz_fdd("c0"),), num_cores=4,
                          deadline_us=2000.0)
        scenario = _scenario(pool=pool, load_fraction=0.02,
                             workload="none")
        on, off, sim = _ab_digests(scenario, slots=120)
        assert on == off
        assert sim.kernel_stats["idle_slots"] > 0

    def test_fig03_idle_fast_path_covers_majority(self):
        # Fig. 3 calibration (one cell idle ~75 % of TTIs per
        # direction): at 2 % load most slots carry no bytes in either
        # direction, so the idle fast path must cover at least half of
        # the run (140 of 240 slots at this seed).  The run is
        # deterministic, so a drop means the fast path stopped
        # engaging.  The array engine must see the same slots.
        pool = PoolConfig(cells=(cell_20mhz_fdd("c0"),), num_cores=4,
                          deadline_us=2000.0)
        digests = []
        for engine_mode in ("event", "array"):
            simulation = build_simulation(_scenario(
                pool=pool, load_fraction=0.02, seed=7, workload="none",
                engine_mode=engine_mode))
            digests.append(result_digest(simulation.run(240)))
            stats = simulation.kernel_stats
            assert stats["slots"] == 240
            assert stats["idle_slots"] / stats["slots"] >= 0.5
        assert digests[0] == digests[1]

    def test_partial_trailing_window(self):
        # A slot count that is not a window multiple exercises the
        # clamped final fill.
        on, off, sim = _ab_digests(_scenario(), slots=37)
        assert on == off
        assert sim.kernel_stats["slots"] == 37
        assert sim.kernel_stats["windows"] > 0
        assert 37 % sim.slot_window != 0

    def test_window_size_does_not_change_results(self):
        scenario = _scenario()
        digests = set()
        for window in (1, 8, 64):
            simulation = build_simulation(scenario)
            simulation.slot_window = window
            digests.add(result_digest(simulation.run(40)))
        assert len(digests) == 1


class TestEveryModeFillsWindows:
    """MAC allocation and profiling traffic draw inside the window too.

    Profiling draws from one shared stream and a MAC pipeline advances
    one ``step()`` at a time, so both draw inline in the fill's
    slot-major, cell-major, direction-minor loop — the per-slot order.
    """

    @pytest.mark.parametrize("overrides", [
        dict(allocation="mac", harq=True),
        dict(traffic="profiling"),
    ])
    def test_mode_fills_windows(self, overrides):
        on, off, sim = _ab_digests(_scenario(**overrides), slots=20)
        assert on == off
        assert sim.kernel_stats["slots"] == 20
        assert sim.kernel_stats["windows"] > 0
