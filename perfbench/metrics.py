"""The metric catalogue.  Names, units and bounds come from
``BENCHMARK.json``; this module maps span self time onto the per-layer
time metrics."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Sequence

from common import Report
from spans import LAYERS, ROOT, SpanRecorder

#: ``BENCHMARK.json`` at the repository root.
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: (name, unit) of every end-to-end and every per-layer metric.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

#: Time metrics taken from span self time: (metric, span name, scale
#: from seconds).  Each is self time per workload operation.
SELF_TIME: tuple[tuple[str, str, float], ...] = (
    ("net.route.us", "net.route", 1e6),
    ("net.owner.us", "net.owner", 1e6),
    ("net.accounting.us", "net.accounting", 1e6),
    ("net.lookup.us", "net.lookup", 1e6),
    ("net.insert.ms", "net.insert", 1e3),
    ("index.lookup.us", "index.lookup", 1e6),
    ("index.apply.ms", "index.apply", 1e3),
    ("retrieval.search.us", "retrieval.search", 1e6),
    ("retrieval.rank.us", "retrieval.rank", 1e6),
    ("text.process.us", "text.process", 1e6),
    ("engine.search.us", "engine.search", 1e6),
    ("overlay.route_lookup.us", "overlay.route_lookup", 1e6),
    ("hdk.extract.ms", "hdk.extract", 1e3),
    ("indexing.stage.ms", "indexing.stage", 1e3),
    ("indexing.apply.ms", "indexing.apply", 1e3),
    ("indexing.cascade.ms", "indexing.cascade", 1e3),
    ("store.put.ms", "store.put", 1e3),
    ("store.save.ms", "store.save", 1e3),
    ("store.get.us", "store.get", 1e6),
)


def report_spans(report: Report, recorder: SpanRecorder, ops: int) -> None:
    """Set the span-derived per-layer metrics over ``ops`` operations:
    self time per operation of each wrapped function, call counts, and
    each layer's self time per operation and share of the operations'
    wall time (the ``bench.op`` root spans)."""
    totals = recorder.totals()
    for metric, span_name, scale in SELF_TIME:
        report.set(
            metric,
            totals.self_s.get(span_name, 0.0) / ops * scale,
            "us" if metric.endswith(".us") else "ms",
        )
    route_calls = totals.calls.get("net.route", 0)
    report.set("net.route.calls", route_calls / ops, "count")
    report.set(
        "net.route.hops_per_call",
        recorder.result_sums.get("net.route", 0) / route_calls
        if route_calls
        else 0.0,
        "hops",
    )
    report.set(
        "net.accounting.calls",
        totals.calls.get("net.accounting", 0) / ops,
        "count",
    )
    op_wall_s = totals.total_s.get(ROOT, 0.0)
    by_layer = totals.layer_self_s()
    for layer in LAYERS:
        report.set(f"layer.{layer}.self_ms", by_layer[layer] / ops * 1e3, "ms")
        report.set(
            f"layer.{layer}.share_pct",
            100.0 * by_layer[layer] / op_wall_s if op_wall_s else 0.0,
            "%",
        )
    report.set("trace.spans", len(recorder), "count")


def report_overhead(
    report: Report, plain: Sequence[float], traced: Sequence[float]
) -> None:
    """Tracing overhead: mean traced operation time against the mean of
    the same operations run untraced just before."""
    report.set(
        "trace.overhead_pct",
        100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0),
        "%",
    )


def fill_missing_per_layer(report: Report) -> None:
    """Report 0 for per-layer metrics that do not apply to a workload."""
    for name, unit in PER_LAYER:
        if name not in report.metrics:
            report.set(name, 0.0, unit)
