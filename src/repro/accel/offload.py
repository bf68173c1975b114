"""Hardware-accelerator offload extension (paper §7, Tables 3 and 4).

The paper extends its testbed with a Terasic DE5-Net FPGA that offloads
LDPC encoding/decoding, and observes that vRAN pool cores remain under
60 % utilized even at peak traffic because (i) TDD leaves the cores
idle during downlink-heavy periods and (ii) worker threads block while
waiting for offloaded results.

This module models the accelerator as a FIFO-served coprocessor:
offloaded task types never occupy a CPU worker; an offloaded task costs
a PCIe round-trip plus per-codeblock accelerator processing, and its
successors are released back into the CPU pool when the result returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ran.config import CellConfig, Duplex, PoolConfig
from ..ran.tasks import TaskInstance, TaskType

__all__ = ["AcceleratorConfig", "Accelerator", "attach_accelerator",
           "cell_100mhz_tdd_accel", "pool_100mhz_accel"]


@dataclass(frozen=True)
class AcceleratorConfig:
    """Timing model of the FPGA LDPC offload."""

    offloaded_types: frozenset = frozenset(
        {TaskType.LDPC_DECODE, TaskType.LDPC_ENCODE}
    )
    #: PCIe/DMA round-trip per offload request (µs).
    roundtrip_us: float = 20.0
    #: FPGA per-codeblock processing time (µs).  Offloading saves CPU
    #: cycles and energy, not necessarily latency: the paper's Table 4
    #: shows the total slot time dominated by waits on the FPGA.
    decode_us_per_cb: float = 25.0
    encode_us_per_cb: float = 2.0
    #: Number of independent accelerator pipelines.
    pipelines: int = 2

    def service_time_us(self, task: TaskInstance) -> float:
        cbs = max(1.0, task.feature("task_codeblocks"))
        if task.task_type is TaskType.LDPC_DECODE:
            return self.roundtrip_us + self.decode_us_per_cb * cbs
        return self.roundtrip_us + self.encode_us_per_cb * cbs


class Accelerator:
    """FIFO-served coprocessor executing offloaded task types.

    Attach to a pool with :func:`attach_accelerator`; the pool then
    routes ready tasks of the offloaded types here instead of to the
    EDF queue, and this class hands completions back through the pool's
    normal bookkeeping (successor release, DAG completion, metrics).
    """

    def __init__(self, engine, config: Optional[AcceleratorConfig] = None) -> None:
        self.engine = engine
        self.config = config if config is not None else AcceleratorConfig()
        self.pool = None  # set by attach_accelerator
        self._queue: list[TaskInstance] = []
        self._busy_pipelines = 0
        self.tasks_served = 0
        self.busy_time_us = 0.0

    @property
    def offloaded_types(self):
        return self.config.offloaded_types

    def submit(self, task: TaskInstance) -> None:
        """Accept a ready offloaded task from the pool."""
        self._queue.append(task)
        self._try_serve()

    def _try_serve(self) -> None:
        while self._queue and self._busy_pipelines < self.config.pipelines:
            task = self._queue.pop(0)
            self._busy_pipelines += 1
            service = self.config.service_time_us(task)
            task.start_time = self.engine.now
            task.runtime_us = service
            self.busy_time_us += service
            self.engine.schedule_after(
                service, lambda t=task: self._complete(t)
            )

    def _complete(self, task: TaskInstance) -> None:
        self._busy_pipelines -= 1
        self.tasks_served += 1
        self.pool.complete_offloaded(task)
        self._try_serve()


def attach_accelerator(pool, accelerator: Accelerator) -> Accelerator:
    """Wire an accelerator into a pool (both directions)."""
    pool.accelerator = accelerator
    accelerator.pool = pool
    return accelerator


def cell_100mhz_tdd_accel(name: str = "cell100a") -> CellConfig:
    """Table 3's accelerated cell: 1.6 Gbps DL / 150 Mbps UL peak."""
    return CellConfig(
        name=name,
        bandwidth_mhz=100.0,
        duplex=Duplex.TDD,
        numerology=1,
        peak_dl_mbps=1600.0,
        peak_ul_mbps=150.0,
        avg_dl_mbps=800.0,
        avg_ul_mbps=75.0,
        num_antennas=4,
        max_layers=4,
    )


def pool_100mhz_accel(num_cells: int, num_cores: int,
                      deadline_us: float = 1500.0) -> PoolConfig:
    """Accelerated 100 MHz TDD pool used for Table 3 sweeps."""
    cells = tuple(cell_100mhz_tdd_accel(f"cell100a-{i}")
                  for i in range(num_cells))
    return PoolConfig(cells=cells, num_cores=num_cores,
                      deadline_us=deadline_us)
