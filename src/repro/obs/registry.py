"""Named counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per measurement domain: ``sim.metrics``
keeps the pool's scheduling/slot counters in one, the Concordia
scheduler keeps its wall-clock overhead accounting in another, and a
simulation merges both into the ``telemetry`` dict of its result
payload.  The registry snapshot is plain JSON, so cached sweep results
(:mod:`repro.exec`) carry their telemetry and the figure drivers read
counters back from cache hits instead of re-simulating.

Instruments are deliberately bare — a mutable ``value`` (or bucket
counts) plus inc/set/observe — so hot paths can bind the instrument
once and update an attribute, never paying a name lookup per event.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonic accumulator (ints or float totals, e.g. seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Last-written value (e.g. currently reserved cores)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram (upper edges; last may be ``inf``).

    Tracks per-bucket counts plus count/sum/max so means survive the
    JSON round-trip even though raw samples are not stored.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "max")

    def __init__(self, name: str, edges: Sequence[float],
                 counts: Optional[Sequence[int]] = None,
                 count: int = 0, total: float = 0.0,
                 maximum: float = 0.0) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges):
            raise ValueError("bucket edges must be sorted")
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        self.counts = list(counts) if counts is not None else \
            [0] * len(self.edges)
        if len(self.counts) != len(self.edges):
            raise ValueError("counts/edges length mismatch")
        self.count = count
        self.sum = total
        self.max = maximum

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError(f"histogram {self.name}: NaN observation")
        for index, edge in enumerate(self.edges):
            if value < edge:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1  # above every finite edge
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def labelled_counts(self) -> Dict[str, int]:
        """``{"lo-hi": n, ..., ">last": n}`` in bucket order."""
        labels = {}
        lo = 0.0
        for edge, count in zip(self.edges, self.counts):
            if math.isinf(edge):
                labels[f">{lo:g}"] = count
            else:
                labels[f"{lo:g}-{edge:g}"] = count
                lo = edge
        return labels


class MetricsRegistry:
    """Flat namespace of instruments, snapshot-able to plain JSON."""

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict = {}

    def _register(self, instrument):
        existing = self._instruments.get(instrument.name)
        if existing is not None:
            if type(existing) is not type(instrument):
                raise ValueError(
                    f"{instrument.name!r} already registered as "
                    f"{type(existing).__name__}")
            return existing
        self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._register(Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._register(Gauge(name))

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        return self._register(Histogram(name, edges))

    def get(self, name: str):
        """The instrument registered under ``name`` (KeyError if none)."""
        return self._instruments[name]

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge; ``default`` when absent."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            raise TypeError(f"{name!r} is a histogram; use get()")
        return instrument.value

    def names(self) -> Iterable[str]:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshots -----------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-able snapshot (the ``telemetry`` payload format)."""
        counters, gauges, histograms = {}, {}, {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = {
                    "edges": ["inf" if math.isinf(e) else e
                              for e in instrument.edges],
                    "counts": list(instrument.counts),
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "max": instrument.max,
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` (cache round-trip)."""
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry._register(Counter(name, value))
        for name, value in payload.get("gauges", {}).items():
            registry._register(Gauge(name, value))
        for name, data in payload.get("histograms", {}).items():
            edges = [float("inf") if e == "inf" else float(e)
                     for e in data["edges"]]
            registry._register(Histogram(
                name, edges, counts=data["counts"], count=data["count"],
                total=data["sum"], maximum=data["max"]))
        return registry
