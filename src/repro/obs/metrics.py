"""Process-wide named metrics: counters, gauges, and histograms.

This generalizes the serving tier's request metrics into a registry any
layer can use without holding a reference to the gateway:
:func:`get_hub` returns the process-wide :class:`MetricsHub`, and
``hub.counter("overlay.path_cache_hits").add()`` is the whole API.

:class:`LatencyHistogram` carries two pieces the serving tier needs for
cross-worker aggregation:

- :meth:`LatencyHistogram.merge` — pool workers are separate processes,
  so each keeps its own histogram; the gateway merges their
  :meth:`to_state` snapshots into one distribution for ``/stats``.
- within-bucket **linear interpolation** for :meth:`percentile_ms` —
  samples are assumed to spread uniformly inside a bucket, so a
  percentile is not biased high by up to one bucket width.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

__all__ = [
    "DEFAULT_BUCKET_BOUNDS_MS",
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "LatencyHistogram",
    "MetricsHub",
    "get_hub",
]

#: Upper bounds (milliseconds) of the latency buckets; the last bucket
#: is unbounded.  Log-spaced from sub-millisecond cache hits up to the
#: multi-second tail a draining or overloaded gateway can produce.
DEFAULT_BUCKET_BOUNDS_MS: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
)


class Counter:
    """A monotonically increasing thread-safe counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe point-in-time value (set or adjusted)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class CounterFamily:
    """Monotonic counters keyed by a label value (e.g. a super-peer id).

    The attribution form of :class:`Counter`: one family per metric
    name, one counter per label, so readers can tell a hot super-peer
    from uniform load instead of seeing a single process-wide total.
    Labels are coerced to strings (the snapshot is JSON-ready as-is).
    """

    __slots__ = ("_lock", "_values")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, int] = {}

    def add(self, key: object, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a GaugeFamily")
        label = str(key)
        with self._lock:
            self._values[label] = self._values.get(label, 0) + amount

    def value(self, key: object) -> int:
        with self._lock:
            return self._values.get(str(key), 0)

    def values(self) -> dict[str, int]:
        """Per-label totals (a copy, sorted by label)."""
        with self._lock:
            return dict(sorted(self._values.items()))


class GaugeFamily:
    """Point-in-time values keyed by a label value (e.g. per-super-peer
    window load).  Labels are coerced to strings."""

    __slots__ = ("_lock", "_values")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, float] = {}

    def set(self, key: object, value: float) -> None:
        with self._lock:
            self._values[str(key)] = float(value)

    def value(self, key: object) -> float:
        with self._lock:
            return self._values.get(str(key), 0.0)

    def values(self) -> dict[str, float]:
        """Per-label values (a copy, sorted by label)."""
        with self._lock:
            return dict(sorted(self._values.items()))


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimates.

    Args:
        bounds_ms: ascending bucket upper bounds in milliseconds; an
            implicit overflow bucket catches everything beyond the last
            bound.
    """

    def __init__(
        self, bounds_ms: Sequence[float] = DEFAULT_BUCKET_BOUNDS_MS
    ) -> None:
        bounds = tuple(float(b) for b in bounds_ms)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"bucket bounds must be ascending and non-empty: {bounds!r}"
            )
        self.bounds_ms = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self._total = 0
        self._sum_ms = 0.0
        self._max_ms = 0.0

    def observe(self, latency_ms: float) -> None:
        """Record one latency sample (negative values clamp to 0)."""
        latency_ms = max(0.0, float(latency_ms))
        index = len(self.bounds_ms)  # overflow unless a bound catches it
        for i, bound in enumerate(self.bounds_ms):
            if latency_ms <= bound:
                index = i
                break
        self._counts[index] += 1
        self._total += 1
        self._sum_ms += latency_ms
        if latency_ms > self._max_ms:
            self._max_ms = latency_ms

    @property
    def count(self) -> int:
        return self._total

    @property
    def mean_ms(self) -> float:
        return self._sum_ms / self._total if self._total else 0.0

    def percentile_ms(self, fraction: float) -> float:
        """Estimate the ``fraction`` percentile (0 < fraction <= 1).

        The rank is located in its bucket and linearly interpolated
        between the bucket's bounds (samples assumed uniform within the
        bucket); a rank landing exactly on a cumulative boundary yields
        the bucket's upper bound, matching the pre-interpolation
        estimator on exact-boundary ranks.  The overflow bucket has no
        upper bound and reports the maximum observed sample.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if not self._total:
            return 0.0
        rank = fraction * self._total
        cumulative = 0
        for i, count in enumerate(self._counts):
            before = cumulative
            cumulative += count
            if cumulative >= rank:
                if i >= len(self.bounds_ms):
                    return self._max_ms
                lower = self.bounds_ms[i - 1] if i > 0 else 0.0
                upper = self.bounds_ms[i]
                fill = (rank - before) / count
                return lower + (upper - lower) * fill
        return self._max_ms

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram in place.

        Bucket-exact (identical ``bounds_ms`` required): the merged
        histogram equals one that observed both sample streams.
        """
        if other.bounds_ms != self.bounds_ms:
            raise ValueError(
                "cannot merge histograms with different bucket bounds: "
                f"{self.bounds_ms!r} vs {other.bounds_ms!r}"
            )
        for i, count in enumerate(other._counts):
            self._counts[i] += count
        self._total += other._total
        self._sum_ms += other._sum_ms
        if other._max_ms > self._max_ms:
            self._max_ms = other._max_ms

    def to_state(self) -> dict[str, object]:
        """Lossless plain-data form (pickle/JSON-safe) for shipping a
        worker process's histogram to the gateway for merging."""
        return {
            "bounds_ms": list(self.bounds_ms),
            "counts": list(self._counts),
            "total": self._total,
            "sum_ms": self._sum_ms,
            "max_ms": self._max_ms,
        }

    @classmethod
    def from_state(
        cls, state: Mapping[str, object]
    ) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`to_state` output."""
        histogram = cls(state["bounds_ms"])  # type: ignore[arg-type]
        counts = list(state["counts"])  # type: ignore[call-overload]
        if len(counts) != len(histogram._counts):
            raise ValueError("histogram state counts length mismatch")
        histogram._counts = [int(c) for c in counts]
        histogram._total = int(state["total"])  # type: ignore[arg-type]
        histogram._sum_ms = float(state["sum_ms"])  # type: ignore[arg-type]
        histogram._max_ms = float(state["max_ms"])  # type: ignore[arg-type]
        return histogram

    def as_dict(self) -> dict[str, object]:
        """Plain-data view (JSON-ready)."""
        return {
            "count": self._total,
            "mean_ms": round(self.mean_ms, 3),
            "max_ms": round(self._max_ms, 3),
            "p50_ms": self.percentile_ms(0.50),
            "p95_ms": self.percentile_ms(0.95),
            "p99_ms": self.percentile_ms(0.99),
            "buckets": {
                f"le_{bound:g}ms": count
                for bound, count in zip(self.bounds_ms, self._counts)
            }
            | {"overflow": self._counts[-1]},
        }


class MetricsHub:
    """Named get-or-create registry of counters, gauges, histograms.

    One hub per process (:func:`get_hub`); a name maps to exactly one
    metric kind — asking for ``counter(name)`` after ``gauge(name)``
    raises, catching cross-layer naming collisions early.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._counter_families: dict[str, CounterFamily] = {}
        self._gauge_families: dict[str, GaugeFamily] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
            ("counter_family", self._counter_families),
            ("gauge_family", self._gauge_families),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a "
                    f"{other_kind}"
                )

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_free(name, "counter")
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_free(name, "gauge")
                metric = self._gauges[name] = Gauge()
            return metric

    def counter_family(self, name: str) -> CounterFamily:
        with self._lock:
            metric = self._counter_families.get(name)
            if metric is None:
                self._check_free(name, "counter_family")
                metric = self._counter_families[name] = CounterFamily()
            return metric

    def gauge_family(self, name: str) -> GaugeFamily:
        with self._lock:
            metric = self._gauge_families.get(name)
            if metric is None:
                self._check_free(name, "gauge_family")
                metric = self._gauge_families[name] = GaugeFamily()
            return metric

    def histogram(
        self, name: str, bounds_ms: Sequence[float] | None = None
    ) -> LatencyHistogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_free(name, "histogram")
                metric = self._histograms[name] = LatencyHistogram(
                    bounds_ms or DEFAULT_BUCKET_BOUNDS_MS
                )
            return metric

    def snapshot(self) -> dict[str, object]:
        """Plain-data view of every registered metric (JSON-ready)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            counter_families = dict(self._counter_families)
            gauge_families = dict(self._gauge_families)
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(gauges.items())
            },
            "histograms": {
                name: metric.as_dict()
                for name, metric in sorted(histograms.items())
            },
            "counter_families": {
                name: metric.values()
                for name, metric in sorted(counter_families.items())
            },
            "gauge_families": {
                name: metric.values()
                for name, metric in sorted(gauge_families.items())
            },
        }

    def reset(self) -> None:
        """Drop every registered metric (tests and benchmarks)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._counter_families.clear()
            self._gauge_families.clear()


_global_hub = MetricsHub()


def get_hub() -> MetricsHub:
    """The process-wide metrics hub."""
    return _global_hub
