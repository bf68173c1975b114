"""Concordia (SIGCOMM 2021) reproduction.

A microsecond-resolution simulation of a 5G vRAN pool sharing compute
with best-effort workloads, including:

* the Concordia userspace deadline scheduler with federated
  core allocation and a quantile-decision-tree WCET predictor;
* the FlexRAN-style vRAN substrate: 5G NR task DAGs, bursty traffic,
  calibrated runtime/OS/cache-interference models;
* baseline schedulers (vanilla FlexRAN, Shenango-variant,
  utilization-based) and WCET models (linear regression, gradient
  boosting, EVT-based pWCET);
* collocated workload models (Redis, Nginx, TPCC, MLPerf, Mix).

Quickstart::

    from repro import (Scenario, build_simulation, pool_20mhz_7cells,
                       train_predictor)

    config = pool_20mhz_7cells()
    predictor = train_predictor(config, num_slots=2000)
    scenario = Scenario(pool=config, policy="concordia", workload="redis",
                        load_fraction=0.25, seed=1)
    sim = build_simulation(scenario, predictor=predictor)
    result = sim.run(10_000)
    print(result.latency, result.reclaimed_fraction)
"""

from .baselines.flexran import DedicatedScheduler, FlexRanScheduler
from .baselines.shenango import ShenangoScheduler
from .baselines.static import StaticPartitionScheduler
from .baselines.utilization import UtilizationScheduler
from .core.federated import CoreDemand, federated_core_demand
from .core.leaf_evt import LeafEvtQuantileTree
from .core.models import (
    GradientBoostingWCET,
    LinearRegressionWCET,
    PwcetEVT,
    QuantileTreeWCET,
    WcetModel,
)
from .core.predictor import ConcordiaPredictor, OfflineDataset
from .core.quantile_tree import QuantileDecisionTree, TreeConfig
from .core.ring_buffer import RingBuffer
from .core.scheduler import ConcordiaScheduler
from .core.training import collect_offline_dataset, train_predictor
from .ran.config import (
    CellConfig,
    Duplex,
    PoolConfig,
    SlotType,
    cell_100mhz_tdd,
    cell_20mhz_fdd,
    pool_100mhz_2cells,
    pool_20mhz_7cells,
)
from .ran.dag import DagBuilder, DagInstance
from .ran.harq import HarqConfig, HarqManager
from .ran.mac import MacCell, ProportionalFairScheduler, RoundRobinScheduler
from .ran.tasks import FEATURE_NAMES, CostModel, TaskInstance, TaskType
from .ran.traffic import CellTraffic, MarkovBurstTraffic, lte_cell_traffic
from .scenario import Scenario, build_simulation
from .sim.engine import Engine
from .sim.metrics import LatencySummary, Metrics
from .sim.pool import VranPool, Worker, WorkerState
from .sim.runner import Simulation, SimulationResult
from .workloads.base import Workload, WorkloadHost, WorkloadSpec
from .workloads.catalog import WORKLOAD_SPECS, make_host, make_workload

__version__ = "1.0.0"

__all__ = [
    "CellConfig",
    "CellTraffic",
    "ConcordiaPredictor",
    "ConcordiaScheduler",
    "CoreDemand",
    "CostModel",
    "DagBuilder",
    "DagInstance",
    "DedicatedScheduler",
    "Duplex",
    "Engine",
    "FEATURE_NAMES",
    "FlexRanScheduler",
    "GradientBoostingWCET",
    "LatencySummary",
    "LeafEvtQuantileTree",
    "LinearRegressionWCET",
    "MarkovBurstTraffic",
    "Metrics",
    "OfflineDataset",
    "PoolConfig",
    "PwcetEVT",
    "QuantileDecisionTree",
    "QuantileTreeWCET",
    "RingBuffer",
    "ShenangoScheduler",
    "StaticPartitionScheduler",
    "HarqConfig",
    "HarqManager",
    "MacCell",
    "ProportionalFairScheduler",
    "RoundRobinScheduler",
    "Scenario",
    "Simulation",
    "SimulationResult",
    "SlotType",
    "TaskInstance",
    "TaskType",
    "TreeConfig",
    "UtilizationScheduler",
    "VranPool",
    "WcetModel",
    "Worker",
    "WorkerState",
    "Workload",
    "WorkloadHost",
    "WorkloadSpec",
    "WORKLOAD_SPECS",
    "build_simulation",
    "cell_100mhz_tdd",
    "cell_20mhz_fdd",
    "collect_offline_dataset",
    "federated_core_demand",
    "lte_cell_traffic",
    "make_host",
    "make_workload",
    "pool_100mhz_2cells",
    "pool_20mhz_7cells",
    "train_predictor",
]
