"""Fingerprint of the calibrated simulation models.

Cached experiment results are only valid for the model constants they
were produced with (docs/CALIBRATION.md registers every one).  Rather
than enumerating constants — easy to forget one — the fingerprint
hashes the *source* of every module that defines simulation behaviour:
any calibration change, however small, yields a new fingerprint and
cleanly invalidates all cached artifacts keyed under the old one.

Experiment drivers and the CLI live outside the fingerprint on
purpose: reformatting a table must not throw away cached simulations.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

__all__ = ["model_fingerprint", "FINGERPRINTED_PACKAGES"]

#: Sub-packages of ``repro`` whose sources define simulation results.
#: ``fleet`` defines what a fleet shard's cached result carries (the
#: demand recorder and the latency histogram).
FINGERPRINTED_PACKAGES = ("ran", "sim", "core", "workloads", "baselines",
                          "scenario", "fleet")


@lru_cache(maxsize=1)
def model_fingerprint() -> str:
    """Hex digest over the model-defining sources (stable per tree)."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for package in FINGERPRINTED_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()[:16]
