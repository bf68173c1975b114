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

The package namespace carries only the names above plus the WCET models
and cell/traffic constructors the examples use; everything else is
imported from its own module, e.g. ``from repro.sim.runner import
Simulation``.
"""

from .core.models import (
    GradientBoostingWCET,
    LinearRegressionWCET,
    PwcetEVT,
    QuantileTreeWCET,
)
from .core.training import collect_offline_dataset, train_predictor
from .ran.config import (
    PoolConfig,
    cell_100mhz_tdd,
    cell_20mhz_fdd,
    pool_100mhz_2cells,
    pool_20mhz_7cells,
)
from .ran.traffic import CellTraffic, lte_cell_traffic
from .scenario import Scenario, build_simulation

__version__ = "1.0.0"

__all__ = [
    "CellTraffic",
    "GradientBoostingWCET",
    "LinearRegressionWCET",
    "PoolConfig",
    "PwcetEVT",
    "QuantileTreeWCET",
    "Scenario",
    "build_simulation",
    "cell_100mhz_tdd",
    "cell_20mhz_fdd",
    "collect_offline_dataset",
    "lte_cell_traffic",
    "pool_100mhz_2cells",
    "pool_20mhz_7cells",
    "train_predictor",
]
