"""Shared fixtures for the per-figure benchmark harness.

Each benchmark reproduces one of the paper's tables/figures via the
drivers in :mod:`repro.experiments`, asserts the qualitative shape the
paper reports, and writes the printable report to ``results/``.

Simulated-slot budgets scale with the ``REPRO_SCALE`` environment
variable (e.g. ``REPRO_SCALE=10 pytest benchmarks/`` for publication-
grade tail percentiles; the defaults keep the whole suite in tens of
minutes).

Execution opt-ins (see :mod:`repro.exec`):

* ``REPRO_JOBS=N`` — every driver grid (Figs. 4 and 8-15, the
  long-run reliability windows) is one spec batch, fanned out over N
  worker processes; results are byte-identical to a serial run, apart
  from Fig. 15a's wall times.
* ``REPRO_CACHE=1`` — spec batches route through the persistent result
  cache under ``results/cache`` (``REPRO_CACHE_DIR`` overrides), so a
  re-run of the suite only executes what calibration changes
  invalidated.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session", autouse=True)
def exec_opt_ins():
    """Validate and surface REPRO_JOBS / REPRO_CACHE once per session."""
    from repro.exec.batch import default_jobs
    from repro.exec.cache import active_cache

    jobs = default_jobs()  # raises early on a malformed REPRO_JOBS
    cache = active_cache()
    if jobs > 1 or cache is not None:
        where = cache.root if cache is not None else "off"
        print(f"\n[repro.exec] batch drivers: jobs={jobs}, "
              f"result cache: {where}")
    return jobs


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_report(results_dir):
    def _write(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _write
