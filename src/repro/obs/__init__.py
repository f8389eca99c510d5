"""repro.obs — end-to-end tracing and unified metrics (stdlib-only).

The observability layer threaded through every tier of the stack:

- :mod:`repro.obs.trace` — :class:`Tracer`/:class:`Span` with
  contextvars propagation across threads and asyncio tasks, explicit
  id propagation across the serving pool's process boundary, and a
  zero-overhead no-op path when disabled.
- :mod:`repro.obs.metrics` — named :class:`Counter`,
  :class:`CounterFamily`, and :class:`LatencyHistogram` (mergeable,
  linearly interpolated) in a :class:`MetricsHub`; each simulated
  network owns one (``network.metrics``), and hubs merge across worker
  processes by metric kind.
- :mod:`repro.obs.export` — JSONL span sink with deterministic
  per-trace sampling, and a slow-query log.

Nothing here imports the rest of ``repro`` — any layer can depend on
``repro.obs`` without cycles.
"""

from .export import JsonlSpanSink, SlowQueryLog, TraceSampler
from .metrics import (
    DEFAULT_BUCKET_BOUNDS_MS,
    Counter,
    CounterFamily,
    LatencyHistogram,
    MetricsHub,
)
from .trace import (
    NOOP_SPAN,
    NullTracer,
    Span,
    Tracer,
    current_span,
    format_span_tree,
    get_tracer,
    set_global_tracer,
)

__all__ = [
    "Counter",
    "CounterFamily",
    "DEFAULT_BUCKET_BOUNDS_MS",
    "JsonlSpanSink",
    "LatencyHistogram",
    "MetricsHub",
    "NOOP_SPAN",
    "NullTracer",
    "SlowQueryLog",
    "Span",
    "TraceSampler",
    "Tracer",
    "current_span",
    "format_span_tree",
    "get_tracer",
    "set_global_tracer",
]
