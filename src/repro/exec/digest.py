"""Canonical result digests for determinism regression testing.

The fast-path work on the simulator (pooled events, O(1) dispatch,
vectorized DAG construction) is only admissible if it changes *no
numbers*: same RNG draw order, same event interleaving, same floats.
The cheapest way to enforce that across a whole
:class:`repro.sim.runner.SimulationResult` is to hash a canonical JSON
rendering of its payload and compare digests before/after a change
(and serial vs parallel execution).

Wall-clock telemetry (the scheduler's ``*_wall_s`` overhead counters)
is measured in host time and differs between otherwise identical runs,
so it is stripped before hashing.  Everything else — latency
percentiles, core-time integrals, event counters, histograms — is a
pure function of the scenario and seed and must reproduce exactly.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["canonical_result_payload", "canonical_json", "result_digest"]

#: Substrings identifying telemetry keys measured in *host* wall-clock
#: time; these are legitimately nondeterministic and excluded from the
#: canonical payload.
_VOLATILE_KEY_MARKERS = ("wall_s",)


def _is_volatile(key: str) -> bool:
    return any(marker in key for marker in _VOLATILE_KEY_MARKERS)


def canonical_result_payload(payload: dict) -> dict:
    """Strip host-time telemetry from a ``SimulationResult.to_dict()``.

    Returns a new dict; the input is not modified.
    """
    clean = dict(payload)
    telemetry = clean.get("telemetry")
    if isinstance(telemetry, dict):
        clean_telemetry = {}
        for section, values in telemetry.items():
            if isinstance(values, dict):
                clean_telemetry[section] = {
                    key: value for key, value in values.items()
                    if not _is_volatile(key)
                }
            else:
                clean_telemetry[section] = values
        clean["telemetry"] = clean_telemetry
    return clean


def canonical_json(payload: dict) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace noise.

    ``json.dumps`` renders floats with ``repr``, the shortest string
    that round-trips the exact double — two bitwise-identical results
    therefore produce identical text, and any ULP-level drift in the
    simulation shows up as a different digest.
    """
    return json.dumps(canonical_result_payload(payload), sort_keys=True,
                      separators=(",", ":"), allow_nan=True)


def result_digest(result) -> str:
    """SHA-256 hex digest of a result's canonical JSON payload.

    Accepts a :class:`~repro.sim.runner.SimulationResult` or an already
    serialized ``to_dict()`` payload.
    """
    payload = result if isinstance(result, dict) else result.to_dict()
    text = canonical_json(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
