"""Shared plumbing: the run report, the correctness checks and small
measurement helpers."""

from __future__ import annotations

import os
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import arith

Ranking = tuple[tuple[int, float], ...]


class CorrectnessError(Exception):
    """The program's output diverged from the reference."""


@dataclass
class Report:
    """What one run reports: metrics by name and operation counts."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def set(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def latency(self, samples_s: Sequence[float]) -> None:
        """``p50_ms`` and ``p99_ms`` from per-call seconds."""
        ms = [s * 1000.0 for s in samples_s]
        self.set("p50_ms", arith.percentile(ms, 50), "ms")
        self.set("p99_ms", arith.tail(ms, 99), "ms")


def note(text: str) -> None:
    """Tell the reader of a run something that is not a failure."""
    print(f"note: {text}", file=sys.stderr, flush=True)


def expect_equal(label: str, expected: Any, got: Any) -> None:
    if expected != got:
        raise CorrectnessError(f"{label}: expected {expected!r}, got {got!r}")


def first_divergence(
    pool: Sequence[str], expected: Sequence[Ranking], got: Sequence[Ranking]
) -> None:
    """Raise naming the first query whose ranking differs."""
    for index, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            raise CorrectnessError(
                f"ranking of query #{index} {pool[index]!r} diverges: "
                f"reference {want[:3]}... vs {have[:3]}..."
            )
    expect_equal("ranked query count", len(expected), len(got))


def ranking(results: Sequence[Any]) -> Ranking:
    return tuple((r.doc_id, r.score) for r in results)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def timed(fn, *args, **kwargs) -> tuple[Any, float]:
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


#: Iterations of the calibration work :func:`calibration_s` times.
CALIBRATION_ITERATIONS = 6000
#: Seconds :func:`calibration_s` takes on the reference host.  The
#: in-process workloads scale their timings to this host speed.
REFERENCE_CALIBRATION_S = 0.0025
#: Iterations of one background sample of :meth:`HostSpeed.timed`, and
#: the pause between two samples.
SAMPLE_ITERATIONS = 1000
SAMPLE_PERIOD_S = 0.025


def _calibration_work(iterations: int) -> int:
    """A fixed slice of pure-Python work: dict updates, integer
    arithmetic, calls and small tuples, the interpreter's staple in
    ``repro``."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        pair = (key, i & 7)
        total += max(pair) * i % 7
    return total


def calibration_s() -> float:
    """Seconds the calibration work takes now (the fastest of three)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _calibration_work(CALIBRATION_ITERATIONS)
        best = min(best, time.perf_counter() - started)
    return best


class HostSpeed:
    """Scales times measured on a shared host to the reference host's
    speed.

    On a shared VM the speed of pure-Python code flips between states up
    to 2x apart, from one tenth of a second to the next, and the share
    of slow spells drifts over tens of seconds, so a run measured in a
    busy minute reads slow however long it is.  Fixed calibration work
    slows in step with the program, so the benchmark times it alongside
    every measured interval and scales the interval by the reference
    calibration time over the measured one:

    - :meth:`scale`, for intervals of a fraction of a second (closed-loop
      windows, pool passes): calibration right before and right after
      the interval, outside it.
    - :meth:`timed`, for calls of seconds (``index()``, joins, ``save()``),
      across which two calibrations miss the spells between them: a
      background thread samples the calibration work every
      :data:`SAMPLE_PERIOD_S` while the call runs, in thread CPU time so
      that waits for the GIL do not count, and the call is scaled by
      the samples' mean.  The samples take about 1% of the call's time.

    A change to the program moves the scaled figures; a change of host
    speed mostly does not.  A disabled instance never calibrates and
    scales by 1 (for traced runs, whose spans would take the calibration
    in)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._last = calibration_s() if enabled else REFERENCE_CALIBRATION_S

    def scale(self) -> float:
        """The factor for times measured since the previous call (or
        since construction)."""
        if not self.enabled:
            return 1.0
        now = calibration_s()
        factor = REFERENCE_CALIBRATION_S / ((self._last + now) / 2.0)
        self._last = now
        return factor

    def timed(self, fn, *args, **kwargs) -> tuple[Any, float]:
        """``fn(*args, **kwargs)`` and its scaled seconds."""
        if not self.enabled:
            return timed(fn, *args, **kwargs)
        samples: list[float] = []
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(SAMPLE_PERIOD_S):
                started = time.thread_time()
                _calibration_work(SAMPLE_ITERATIONS)
                samples.append(time.thread_time() - started)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            result, elapsed = timed(fn, *args, **kwargs)
        finally:
            stop.set()
            sampler.join()
        if not samples:  # a call shorter than one period
            started = time.thread_time()
            _calibration_work(SAMPLE_ITERATIONS)
            samples.append(time.thread_time() - started)
        reference_s = (
            REFERENCE_CALIBRATION_S * SAMPLE_ITERATIONS / CALIBRATION_ITERATIONS
        )
        return result, elapsed * reference_s / statistics.fmean(samples)


def env_with_src(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env
