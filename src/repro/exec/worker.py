"""Child-process entry points for the batch runner.

Each job runs in its own forked process with a dedicated pipe back to
the parent (or, at ``jobs=1``, in-process with an in-memory stand-in
for the pipe).  An entry point never raises across that boundary: any
exception — including :class:`SpecError` from a malformed payload — is
serialized as an error message plus traceback, so one crashing job can
never take the batch down.  Hard crashes (a child dying without
reporting) surface in the parent as an EOF on the pipe.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable

from .spec import SimSpec, execute_spec

__all__ = ["report_to_parent", "run_job_in_child"]


def report_to_parent(conn, body: Callable[[], object]) -> None:
    """Run ``body()`` and ship ``(status, payload)`` through ``conn``.

    The shared send/except/close body of every child entry point:
    ``("ok", {"result", "wall_s"})`` or ``("error", {"error",
    "traceback", "wall_s"})``, and ``conn`` is closed on every exit.
    """
    start = time.perf_counter()
    try:
        result = body()
        conn.send(("ok", {
            "result": result,
            "wall_s": time.perf_counter() - start,
        }))
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        try:
            conn.send(("error", {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "wall_s": time.perf_counter() - start,
            }))
        except (BrokenPipeError, OSError):  # parent gave up on us
            pass
    finally:
        conn.close()


def run_job_in_child(conn, spec_payload: dict, attempt: int) -> None:
    """Execute one spec and ship (status, payload) through ``conn``."""
    report_to_parent(conn, lambda: execute_spec(
        SimSpec.from_dict(spec_payload), attempt=attempt))
