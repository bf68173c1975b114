"""Per-figure/table experiment drivers (see DESIGN.md experiment index).

Each module reproduces one table or figure of the paper and exposes
``run(...)`` (structured results) and ``main(...)`` (a printable,
paper-style report).  Slot budgets scale with the ``REPRO_SCALE``
environment variable.

The package imports none of its drivers: a simulation process that only
needs :mod:`repro.experiments.common` loads neither the sixteen drivers
nor networkx.  Import a driver by name
(``from repro.experiments import fig08_reclaim``); ``repro figure``
resolves its names through :data:`repro.cli.FIGURES`.
"""
