"""Workload dispatch and the result object ``run.py`` prints."""

from __future__ import annotations

import sys
from pathlib import Path

import inproc
import metrics
import serve
from common import CorrectnessError, Report, note


#: Per-layer metrics the traced ``query`` run takes from the serving
#: probe: the gateway, IPC and worker-side store reads that the
#: in-process workloads never touch, and the serving layer's share of
#: the client's time per request.
PROBE_METRICS = (
    "serving.overhead_p50_ms", "serving.overhead_p99_ms",
    "serving.worker_p50_ms", "serving.worker_p99_ms",
    "serving.failed", "serving.stats_ms", "serving.ready_s",
    "loadgen.late_ms", "engine.cache.hit_ratio",
    "store.block_cache.hit_ratio", "store.reloads", "store.load.ms",
    "store.get.us", "layer.serving.self_ms", "layer.serving.share_pct",
)


def serving_probe(seed: int, seconds: float, work: Path, report: Report) -> None:
    """Run the traced ``serve`` workload and copy its serving-tier
    metrics into ``report``.

    ``serve`` is not one of the benchmark's gated workloads: on a
    2-vCPU VM its HTTP timings moved 20-90% between runs.  Its traced
    run still measures the serving layer, so the traced ``query`` run
    carries it.  The probe's own failed and late requests are reported
    as ``serving.failed`` and ``loadgen.late_ms``, not as failed
    operations of ``query``; a probe that cannot finish (the server
    does not start or drain) counts as one failed operation, and its
    metrics then read 0."""
    probe = Report()
    (work / "serve").mkdir()
    report.attempted += 1
    try:
        serve.run_serve(seed, seconds, True, work / "serve", probe)
    except CorrectnessError:
        raise
    except Exception as error:  # the HTTP harness, not the program's output
        report.failed += 1
        note(f"the serving probe did not finish: {error!r}")
        return
    for name in PROBE_METRICS:
        report.set(name, *probe.metrics[name])


def run(
    workload: str, seed: int, seconds: float, trace: bool, work: Path,
    span_dump: Path,
) -> dict:
    """Run ``workload`` and return the result object: every end-to-end
    metric when ``trace`` is off, every per-layer metric when it is on."""
    report = Report()
    try:
        if workload == "build":
            recorder = inproc.run_build(seed, seconds, trace, work, report)
        elif workload == "query":
            recorder = inproc.run_query(inproc.QUERY, seed, seconds, trace, work, report)
            if trace:
                serving_probe(seed, seconds, work, report)
        elif workload == "query-super":
            recorder = inproc.run_query(
                inproc.QUERY_SUPER, seed, seconds, trace, work, report
            )
        else:
            recorder = serve.run_serve(seed, seconds, trace, work, report)
    except CorrectnessError as error:
        print(f"correctness check failed: {error}", file=sys.stderr, flush=True)
        return {
            "correct": False,
            "attempted": max(1, report.attempted),
            "failed": report.failed,
            "metrics": {},
        }
    if recorder is not None:
        recorder.dump(span_dump)
    if trace:
        metrics.fill_missing_per_layer(report)
        catalogue = metrics.PER_LAYER
    else:
        report.set(
            "success_ratio",
            (report.attempted - report.failed) / report.attempted,
            "ratio",
        )
        catalogue = metrics.END_TO_END
    missing = [name for name, _unit in catalogue if name not in report.metrics]
    if missing:
        raise RuntimeError(f"workload {workload} did not measure {missing}")
    wrong_units = [
        name for name, unit in catalogue if report.metrics[name][1] != unit
    ]
    if wrong_units:
        raise RuntimeError(f"units of {wrong_units} differ from BENCHMARK.json")
    return {
        "correct": True,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name][0], "unit": report.metrics[name][1]}
            for name, _unit in catalogue
        },
    }
