"""Content-addressed on-disk result cache.

Artifacts live under ``<root>/<key[:2]>/<key>.json`` where ``key`` is
the spec hash from :func:`repro.exec.spec.spec_key` (which already
folds in the model fingerprint — a calibration change changes every
key, so stale artifacts are simply never addressed again).  Trained
predictors are pickled under ``<root>/predictors/``.

A cache can be *activated* process-wide so that every spec batch
(:func:`repro.exec.batch.run_batch`, behind the drivers'
:func:`repro.experiments.common.run_spec_batch`) and the predictor
training path route through it without plumbing a handle through every
driver; setting ``REPRO_CACHE=1`` activates the default cache
(``results/cache``, overridable via ``REPRO_CACHE_DIR``).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional

__all__ = [
    "ResultCache",
    "activate_cache",
    "activated_cache",
    "active_cache",
    "deactivate_cache",
    "default_cache_dir",
]

_FALSEY = ("", "0", "false", "no", "off")


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` or ``results/cache`` under the cwd."""
    return Path(os.environ.get("REPRO_CACHE_DIR", "results/cache"))


def _result_loadable(artifact) -> bool:
    """True when the artifact's result payload deserializes today."""
    from ..sim.runner import RESULT_SCHEMA

    result = artifact.get("result") if isinstance(artifact, dict) else None
    return (isinstance(result, dict)
            and result.get("schema") == RESULT_SCHEMA)


class ResultCache:
    """JSON artifact store addressed by spec hash, plus predictor pickles."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- result artifacts ---------------------------------------------------------

    def _artifact_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored artifact for ``key``, or None.

        A corrupt artifact is a miss, and so is one whose result no
        longer deserializes: a result-schema bump since it was written
        leaves the spec hash unchanged, so such an artifact must be
        re-executed, not served.
        """
        path = self._artifact_path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, json.JSONDecodeError):
            artifact = None
        if artifact is None or not _result_loadable(artifact):
            self.misses += 1
            return None
        self.hits += 1
        return artifact

    def put(self, key: str, artifact: dict) -> Path:
        """Atomically persist an artifact (last writer wins)."""
        path = self._artifact_path(key)
        self._atomic_write(path, json.dumps(artifact, indent=1,
                                            sort_keys=True).encode())
        return path

    # -- trained predictors -------------------------------------------------------

    def predictor_path(self, key: str) -> Path:
        return self.root / "predictors" / f"{key}.pkl"

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses})")


# -- process-wide activation -------------------------------------------------------

_ACTIVE: Optional[ResultCache] = None


def activate_cache(cache: Optional[ResultCache] = None) -> ResultCache:
    """Route spec batches and predictor training through ``cache``."""
    global _ACTIVE
    _ACTIVE = cache if cache is not None else ResultCache(default_cache_dir())
    return _ACTIVE


def deactivate_cache() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextlib.contextmanager
def activated_cache(cache: Optional[ResultCache] = None) -> Iterator[ResultCache]:
    """Scoped activation (restores the previous cache on exit)."""
    global _ACTIVE
    previous = _ACTIVE
    active = activate_cache(cache)
    try:
        yield active
    finally:
        _ACTIVE = previous


def active_cache() -> Optional[ResultCache]:
    """The activated cache, else the env-enabled default, else None."""
    if _ACTIVE is not None:
        return _ACTIVE
    if os.environ.get("REPRO_CACHE", "").strip().lower() not in _FALSEY:
        return ResultCache(default_cache_dir())
    return None
