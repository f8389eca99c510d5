"""Named metrics: counters, counter families, and latency histograms.

A :class:`MetricsHub` is a get-or-create registry: each
:class:`~repro.net.network.P2PNetwork` owns one (``network.metrics``),
so every layer that holds the network records into the same place and
two networks in one process never mix their counts.  Look a metric up
once and keep the object: ``self._hits = hub.counter("overlay.hits")``,
then ``self._hits.add()`` on the hot path.

Every metric has a lossless plain-data ``to_state()`` form and a
``merge`` that follows its kind — counters sum, counter families sum
per label, histograms merge bucket-exactly — so
:meth:`MetricsHub.merge_state` folds the hubs of separate worker
processes into one fleet-wide view with no per-name table.

:meth:`LatencyHistogram.percentile_ms` interpolates linearly within a
bucket (samples are assumed to spread uniformly inside it), so a
percentile is not biased high by up to one bucket width.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping, Sequence, Union

__all__ = [
    "DEFAULT_BUCKET_BOUNDS_MS",
    "Counter",
    "CounterFamily",
    "LatencyHistogram",
    "MetricsHub",
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
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def merge(self, other: "Counter") -> None:
        self.add(other.value)

    def to_state(self) -> int:
        return self.value

    @classmethod
    def from_state(cls, state: object) -> "Counter":
        counter = cls()
        counter.add(_count(state))
        return counter


class CounterFamily:
    """Monotonic counters keyed by a label value (e.g. a super-peer id).

    The attribution form of :class:`Counter`: one family per metric
    name, one counter per label, so readers can tell a hot super-peer
    from uniform load instead of seeing a single total.
    Labels are coerced to strings (the snapshot is JSON-ready as-is).
    """

    __slots__ = ("_lock", "_values")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, int] = {}

    def add(self, key: object, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
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

    def merge(self, other: "CounterFamily") -> None:
        for label, amount in other.values().items():
            self.add(label, amount)

    def to_state(self) -> dict[str, int]:
        return self.values()

    @classmethod
    def from_state(cls, state: object) -> "CounterFamily":
        if not isinstance(state, Mapping):
            raise ValueError(
                f"counter family state must be a mapping: {state!r}"
            )
        family = cls()
        for label, amount in state.items():
            family.add(label, _count(amount))
        return family


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




Metric = Union[Counter, CounterFamily, LatencyHistogram]

#: State section of each metric kind (the keys of
#: :meth:`MetricsHub.to_state`).
_KINDS: dict[str, type] = {
    "counters": Counter,
    "counter_families": CounterFamily,
    "histograms": LatencyHistogram,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def _count(value: object) -> int:
    """A counter amount from untrusted state: a non-negative int."""
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"counter state must be an int >= 0: {value!r}")
    return value


class MetricsHub:
    """Named get-or-create registry of counters, counter families and
    latency histograms.

    A name maps to exactly one metric kind: asking for
    ``counter(name)`` after ``histogram(name)`` raises, catching
    cross-layer naming collisions early.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _get(
        self, name: str, kind: type, make: Callable[[], Metric]
    ) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = make()
            elif type(metric) is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{_KIND_OF[type(metric)]}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def counter_family(self, name: str) -> CounterFamily:
        return self._get(name, CounterFamily, CounterFamily)

    def histogram(
        self, name: str, bounds_ms: Sequence[float] = DEFAULT_BUCKET_BOUNDS_MS
    ) -> LatencyHistogram:
        return self._get(
            name, LatencyHistogram, lambda: LatencyHistogram(bounds_ms)
        )

    def to_state(self) -> dict[str, dict[str, object]]:
        """Lossless plain-data form (pickle/JSON-safe), by kind then
        name: what a worker process ships for :meth:`merge_state`."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        state: dict[str, dict[str, object]] = {kind: {} for kind in _KINDS}
        for name, metric in metrics:
            state[_KIND_OF[type(metric)]][name] = metric.to_state()
        return state

    def merge_state(self, state: Mapping[str, Mapping[str, object]]) -> None:
        """Fold another hub's :meth:`to_state` into this one by kind:
        counters sum, counter families sum per label, histograms merge
        bucket-exactly.

        Raises:
            ValueError: before anything is merged, when a name is
                registered here (or elsewhere in ``state``) as another
                kind, a histogram's bounds differ from this hub's, or
                the state is malformed.
        """
        incoming: dict[str, Metric] = {}
        for kind, entries in state.items():
            cls = _KINDS.get(kind)
            if cls is None:
                raise ValueError(f"unknown metric kind {kind!r}")
            for name, metric_state in entries.items():
                if name in incoming:
                    raise ValueError(f"metric {name!r} appears as two kinds")
                incoming[name] = cls.from_state(metric_state)
        with self._lock:
            for name, metric in incoming.items():
                current = self._metrics.get(name)
                if current is None:
                    continue
                if type(current) is not type(metric):
                    raise ValueError(
                        f"metric {name!r} is {_KIND_OF[type(current)]} "
                        f"here but {_KIND_OF[type(metric)]} in the state"
                    )
                if (
                    isinstance(current, LatencyHistogram)
                    and current.bounds_ms != metric.bounds_ms
                ):
                    raise ValueError(
                        f"histogram {name!r} has bounds "
                        f"{current.bounds_ms!r} here but "
                        f"{metric.bounds_ms!r} in the state"
                    )
            for name, metric in incoming.items():
                current = self._metrics.get(name)
                if current is None:
                    self._metrics[name] = metric
                else:
                    current.merge(metric)  # type: ignore[arg-type]
