"""The in-process workloads: ``build``, ``query`` and ``query-super``.

Each drives ``repro`` through its public API at ``link_latency_s=0``
with ``repro.obs`` off, times calls from outside, and checks every
ranking against a flat ``hdk`` reference built on the same inputs.
"""

from __future__ import annotations

import gc
import itertools
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Sequence

from repro import SearchService
from repro.indexing.verify import build_fingerprint
from repro.net.accounting import Phase

import metrics
from common import (
    CorrectnessError,
    HostSpeed,
    Ranking,
    Report,
    expect_equal,
    first_divergence,
    note,
    peak_rss_mb,
    ranking,
    timed,
    tree_bytes,
)
from inputs import HDK_PARAMS, Inputs, make_inputs
from spans import SpanRecorder

#: Result depth of every query.
K = 20
#: Setups per run; ``setup_s`` reports their median.
SETUPS = 5
#: The closed loop calibrates the host speed after each window of this
#: length and scales the window's latencies and duration by it.  The
#: host's speed flips within tenths of a second, so shorter windows
#: track it more closely; each calibration costs about 7 ms.
WINDOW_S = 0.1
#: Untimed replay of the log before the timed closed loop, so path
#: caches and the adaptive overlay's split/merge state have settled.
WARMUP_S = 2.0


@dataclass(frozen=True)
class QueryShape:
    """Sizes and configuration of a read workload."""

    backend: str
    overlay: str
    num_docs: int
    num_peers: int
    pool_size: int
    log_length: int
    zipf_s: float
    options: tuple[tuple[str, object], ...] = ()


QUERY = QueryShape("hdk", "chord", 192, 64, 1024, 32768, 1.0)
QUERY_SUPER = QueryShape(
    "hdk_super", "pgrid", 192, 64, 1024, 32768, 1.1,
    options=(("overlay_adaptive", True),),
)


@dataclass(frozen=True)
class BuildShape:
    """The growth protocol of the ``build`` workload: ``index()`` over
    the first ``initial_peers``, then one ``add_peers()`` per entry of
    ``joins``, then ``save()``."""

    docs_per_peer: int = 8
    initial_peers: int = 8
    joins: tuple[int, ...] = (3, 3, 2)
    pool_size: int = 256
    #: RAM residency budget of the disk index (encoded posting bytes),
    #: small enough that most entries spill through the store.
    memory_budget_bytes: int = 64 * 1024
    #: Memtable flush threshold.  The 1 MiB default is never reached
    #: by a corpus this size; lowering it makes the build exercise
    #: segment flushes and ``.idx`` sidecars.
    memtable_bytes: int = 16 * 1024

    @property
    def num_peers(self) -> int:
        return self.initial_peers + sum(self.joins)

    @property
    def num_docs(self) -> int:
        return self.num_peers * self.docs_per_peer


BUILD = BuildShape()
#: Queries of a ``build`` pool pass between two host-speed calibrations
#: (about 30 ms of searches).
PASS_SLICE = 64


def pool_pass(
    service: SearchService, pool: Sequence[str], peers: Sequence[str],
    offset: int = 0,
) -> tuple[list[Ranking], list[int], list[int]]:
    """Search every pool query once, rotating the source peer from
    ``offset``; returns rankings and the postings and retrieval hops of
    each query."""
    rankings, postings, hops = [], [], []
    for index, query in enumerate(pool):
        response = service.search(
            query, k=K, source_peer=peers[(offset + index) % len(peers)]
        )
        rankings.append(ranking(response.results))
        postings.append(response.postings_transferred)
        hops.append(response.traffic.hops_by_phase.get(Phase.RETRIEVAL, 0))
    return rankings, postings, hops


@dataclass
class Loop:
    """What one closed loop measured: per-call latencies of the searches
    that returned and the loop's time, both in seconds scaled to the
    reference host speed, the keys looked up and found, and the searches
    that raised."""

    latencies: list[float] = field(default_factory=list)
    scaled_s: float = 0.0
    looked_up: int = 0
    found: int = 0
    failed: int = 0


def closed_loop(
    service: SearchService,
    inputs: Inputs,
    peers: Sequence[str],
    seconds: float,
    expected: Sequence[Ranking],
    recorder: SpanRecorder | None = None,
) -> Loop:
    """One caller replaying the Zipf log back to back for ``seconds``.

    The host speed is calibrated between windows (see
    :class:`~common.HostSpeed`), and each window's latencies and
    duration are scaled by it.  Each ranking is checked against
    ``expected`` (by pool index) as it arrives, outside the call's
    timer, and then dropped, so the heap does not grow with the run.  A
    search that raises counts as failed and the loop carries on with
    the next query."""
    pool, log = inputs.pool, inputs.log
    loop = Loop()
    window: list[float] = []
    gc.collect()  # start from an empty young generation
    speed = HostSpeed()
    perf_counter = time.perf_counter
    started = perf_counter()
    deadline = started + seconds
    window_start = started
    position = 0
    now = started
    while now < deadline:
        query_index = log[position % len(log)]
        source = peers[(inputs.peer_offset + position) % len(peers)]
        position += 1
        try:
            if recorder is None:
                t0 = perf_counter()
                response = service.search(pool[query_index], k=K, source_peer=source)
                now = perf_counter()
            else:
                with recorder.operation():
                    t0 = perf_counter()
                    response = service.search(
                        pool[query_index], k=K, source_peer=source
                    )
                    now = perf_counter()
        except Exception as error:
            now = perf_counter()
            loop.failed += 1
            if loop.failed == 1:
                note(f"search of query #{query_index} raised {error!r}")
            continue
        window.append(now - t0)
        if ranking(response.results) != expected[query_index]:
            raise CorrectnessError(
                f"ranking of query #{query_index} {pool[query_index]!r} "
                "diverges from the reference in the timed loop"
            )
        loop.looked_up += response.keys_looked_up
        loop.found += response.keys_found
        if now - window_start >= WINDOW_S or now >= deadline:
            factor = speed.scale()
            loop.latencies.extend(s * factor for s in window)
            loop.scaled_s += (now - window_start) * factor
            window.clear()
            window_start = now = perf_counter()
    if window:  # the last searches raised before the window closed
        factor = speed.scale()
        loop.latencies.extend(s * factor for s in window)
        loop.scaled_s += (now - window_start) * factor
    if not loop.latencies:
        raise RuntimeError("every search of the closed loop raised")
    return loop


def build_service(
    collection, num_peers: int, backend: str, overlay: str, options=()
) -> tuple[SearchService, float, float]:
    """``build()`` + ``index()``; returns the service, the total set-up
    time and the ``index()`` time, scaled to the reference host speed."""
    speed = HostSpeed()
    service, build_s = speed.timed(
        SearchService.build,
        collection,
        num_peers=num_peers,
        backend=backend,
        params=HDK_PARAMS,
        overlay=overlay,
        cache_capacity=None,
        **dict(options),
    )
    _, index_s = speed.timed(service.index)
    return service, build_s + index_s, index_s


def run_query(
    shape: QueryShape, seed: int, seconds: float, trace: bool, work: Path,
    report: Report,
) -> SpanRecorder | None:
    """The ``query`` and ``query-super`` workloads."""
    inputs = make_inputs(
        seed, shape.num_docs, shape.pool_size, shape.log_length, shape.zipf_s
    )
    n_docs = len(inputs.collection)
    # The reference is built first, untimed: the timed set-ups then all
    # run after the same few seconds of load (a shared host runs the
    # first seconds after idle measurably faster).
    reference, _, _ = build_service(
        inputs.collection, shape.num_peers, "hdk", shape.overlay
    )
    setups, index_times, counts = [], [], set()

    def setup() -> SearchService:
        """One timed ``build()`` + ``index()`` of the measured service."""
        candidate, setup_s, index_s = build_service(
            inputs.collection, shape.num_peers, shape.backend, shape.overlay,
            shape.options,
        )
        setups.append(setup_s)
        index_times.append(index_s)
        counts.add(
            (candidate.stored_postings_total(), candidate.inserted_postings_total())
        )
        return candidate

    service = setup()
    stored, inserted = next(iter(counts))
    expect_equal("reference stored postings", stored, reference.stored_postings_total())
    expect_equal("reference inserted postings", inserted, reference.inserted_postings_total())
    peers = [peer.name for peer in service.peers]
    want, want_postings, _ = pool_pass(
        reference, inputs.pool, peers, inputs.peer_offset
    )
    del reference
    gc.collect()

    got, postings, hops = pool_pass(
        service, inputs.pool, peers, inputs.peer_offset
    )
    first_divergence(inputs.pool, want, got)
    for index, (a, b) in enumerate(zip(want_postings, postings)):
        if a != b:
            raise CorrectnessError(
                f"postings of query #{index} {inputs.pool[index]!r}: "
                f"reference {a}, got {b}"
            )
    report.attempted += len(inputs.pool)

    if not trace:
        snapshot = work / "snapshot"
        service.save(snapshot)
        snapshot_bytes = tree_bytes(snapshot)
        closed_loop(service, inputs, peers, WARMUP_S, want)
        # The timed loop runs in SETUPS segments with a set-up before
        # each but the first, so the set-ups sample the whole run rather
        # than its start.
        loop = Loop()
        for segment in range(SETUPS):
            if segment:
                setup()  # timed, then dropped
                gc.collect()
            part = closed_loop(service, inputs, peers, seconds / SETUPS, want)
            loop.latencies += part.latencies
            loop.scaled_s += part.scaled_s
            loop.failed += part.failed
        if len(counts) != 1:
            raise CorrectnessError(
                f"stored/inserted postings differ across builds: {counts}"
            )
        report.attempted += len(loop.latencies) + loop.failed
        report.failed += loop.failed
        report.set("setup_s", median(setups), "s")
        report.set("build_docs_per_s", n_docs / median(index_times), "docs/s")
        report.set("qps", len(loop.latencies) / loop.scaled_s, "queries/s")
        report.latency(loop.latencies)
        report.set("postings_per_query", sum(postings) / len(postings), "postings")
        report.set("hops_per_query", sum(hops) / len(hops), "hops")
        report.set("stored_postings_per_doc", stored / n_docs, "postings")
        report.set("inserted_postings_per_doc", inserted / n_docs, "postings")
        report.set("store_bytes_per_posting", snapshot_bytes / stored, "bytes")
        report.set("peak_rss_mb", peak_rss_mb(), "MiB")
        return None
    plain = closed_loop(service, inputs, peers, seconds / 2, want)
    recorder = SpanRecorder()
    with recorder:
        traced = closed_loop(service, inputs, peers, seconds / 2, want, recorder)
    for loop in (plain, traced):
        report.attempted += len(loop.latencies) + loop.failed
        report.failed += loop.failed
    ops = len(traced.latencies)
    metrics.report_spans(report, recorder, ops)
    metrics.report_overhead(report, plain.latencies, traced.latencies)
    report.set("retrieval.found_ratio", traced.found / traced.looked_up, "ratio")
    report.set("retrieval.keys_per_query", traced.looked_up / ops, "keys")
    overlay = service.stats().get("overlay")
    if overlay:
        report.set("overlay.path_cache.hit_ratio", overlay["path_cache_hit_rate"], "ratio")
        report.set("overlay.splits", overlay["splits"], "count")
        report.set("overlay.merges", overlay["merges"], "count")
        report.set("overlay.max_sp_load", max(overlay["sp_load"].values()), "count")
    return recorder


# -- build ---------------------------------------------------------------------


@dataclass
class Cycle:
    """What one growth cycle measured."""

    build_s: float
    query_latencies: list[float]
    rankings: list[list[Ranking]]
    postings: list[int]
    hops: list[int]
    snapshot_bytes: int = 0
    fingerprint: dict | None = None
    stored: int = 0
    inserted: int = 0
    candidate_keys: int = 0
    store_stats: dict | None = None
    looked_up: int = 0
    found: int = 0
    #: Scaled seconds of the pool passes.
    pass_s: float = 0.0


def growth_slices(inputs: Inputs, shape: BuildShape):
    """(collection, peer count) for ``index()`` and each join."""
    doc_ids = inputs.collection.doc_ids()
    start = 0
    for peers in (shape.initial_peers,) + shape.joins:
        count = peers * shape.docs_per_peer
        yield inputs.collection.subset(doc_ids[start:start + count]), peers
        start += count


def construct(
    inputs: Inputs, shape: BuildShape, backend: str, store_dir: Path | None
) -> SearchService:
    """The service of one growth cycle, before ``index()``."""
    collection, peers = next(growth_slices(inputs, shape))
    options: dict = {}
    if backend == "hdk_disk":
        options = {
            "store_dir": store_dir,
            "memory_budget_bytes": shape.memory_budget_bytes,
        }
    service = SearchService.build(
        collection,
        num_peers=peers,
        backend=backend,
        params=HDK_PARAMS,
        overlay="chord",
        cache_capacity=None,
        **options,
    )
    if backend == "hdk_disk":
        service.backend.global_index.store.memtable_bytes_limit = (
            shape.memtable_bytes
        )
    return service


def growth_cycle(
    inputs: Inputs, shape: BuildShape, backend: str, work: Path | None,
    calibrate: bool = True,
) -> tuple[SearchService, Cycle]:
    """Construct, ``index()``, join each growth step and ``save()``,
    with a pass over the query pool after ``index()`` and every join.

    With ``calibrate``, each step's time and each pass's latencies are
    scaled to the reference host speed."""
    service = construct(
        inputs, shape, backend, None if work is None else work / "store"
    )
    cycle = Cycle(0.0, [], [], [], [])
    speed = HostSpeed(calibrate)
    for step, (collection, peers) in enumerate(growth_slices(inputs, shape)):
        if step == 0:
            _, elapsed = speed.timed(service.index)
        else:
            _, elapsed = speed.timed(service.add_peers, collection, peers)
        cycle.build_s += elapsed
        names = [peer.name for peer in service.peers]
        rankings = []
        # Start every pass from an empty young generation, so the
        # collector pauses land on the same queries in every cycle.
        gc.collect()
        speed.scale()
        for first in range(0, len(inputs.pool), PASS_SLICE):
            latencies = []
            slice_started = time.perf_counter()
            for index in range(first, min(first + PASS_SLICE, len(inputs.pool))):
                source = names[(inputs.peer_offset + index) % len(names)]
                started = time.perf_counter()
                response = service.search(
                    inputs.pool[index], k=K, source_peer=source
                )
                latencies.append(time.perf_counter() - started)
                rankings.append(ranking(response.results))
                cycle.postings.append(response.postings_transferred)
                cycle.hops.append(
                    response.traffic.hops_by_phase.get(Phase.RETRIEVAL, 0)
                )
                cycle.looked_up += response.keys_looked_up
                cycle.found += response.keys_found
            slice_s = time.perf_counter() - slice_started
            factor = speed.scale()
            cycle.pass_s += slice_s * factor
            cycle.query_latencies.extend(s * factor for s in latencies)
        cycle.rankings.append(rankings)
    if work is not None:
        _, elapsed = speed.timed(service.save, work / "snapshot")
        cycle.build_s += elapsed
        cycle.snapshot_bytes = tree_bytes(work / "snapshot")
    return service, cycle


def finish_cycle(service: SearchService, cycle: Cycle) -> Cycle:
    """Read the built state (outside any timed or traced section)."""
    reports = service.indexing_reports
    cycle.fingerprint = build_fingerprint(
        service.backend.global_index, reports, service.network.accounting.snapshot()
    )
    cycle.stored = service.stored_postings_total()
    cycle.inserted = service.inserted_postings_total()
    cycle.candidate_keys = sum(r.total_candidate_keys for r in reports)
    index = service.backend.global_index
    if hasattr(index, "spill_stats"):
        spill = index.spill_stats()
        cycle.store_stats = {
            "flushes": spill["store"]["flushes"],
            "reloads": spill["reloads"],
            "cache_hits": spill["store"]["cache_hits"],
            "cache_misses": spill["store"]["cache_misses"],
        }
        index.store.close()
    return cycle


def check_cycle(cycle: Cycle, reference: Cycle, pool: Sequence[str]) -> None:
    """The disk build must match the flat ``hdk`` reference exactly."""
    for step, (want, got) in enumerate(zip(reference.rankings, cycle.rankings)):
        try:
            first_divergence(pool, want, got)
        except CorrectnessError as error:
            raise CorrectnessError(f"growth step {step}: {error}") from None
    if cycle.fingerprint != reference.fingerprint:
        raise CorrectnessError(
            "build fingerprint differs from the flat hdk reference: "
            + fingerprint_divergence(reference.fingerprint, cycle.fingerprint)
        )
    expect_equal("postings per query", reference.postings, cycle.postings)
    expect_equal("hops per query", reference.hops, cycle.hops)
    expect_equal("stored postings", reference.stored, cycle.stored)
    expect_equal("inserted postings", reference.inserted, cycle.inserted)


def fingerprint_divergence(want: dict, got: dict) -> str:
    """Name the first differing part and item of two fingerprints."""
    for part, expected in want.items():
        actual = got.get(part)
        if expected == actual:
            continue
        if isinstance(expected, (tuple, list)) and isinstance(actual, (tuple, list)):
            for x, y in zip(expected, actual):
                if x != y:
                    return f"{part}: first differing item {x!r} vs {y!r}"
            return f"{part}: {len(expected)} vs {len(actual)} items"
        return f"{part}: {expected!r} vs {actual!r}"
    return f"parts {sorted(want)} vs {sorted(got)}"


#: ``setup_s`` on ``build`` is the median, over batches, of the mean
#: construction time in a batch, with one batch before each timed
#: cycle.  One construction takes well under a millisecond, and on a
#: shared 2-vCPU VM a batch's mean swung between 0.3 and 0.7 ms within
#: one run, so the batches sample the whole run rather than its start.
SETUP_BATCH = 20


def setup_batch(inputs: Inputs, shape: BuildShape, work: Path) -> float:
    """Mean seconds of :data:`SETUP_BATCH` service constructions, scaled
    to the reference host speed."""
    total_s = 0.0
    speed = HostSpeed()
    for attempt in range(SETUP_BATCH):
        store_dir = work / f"setup{attempt}"
        service, elapsed = timed(construct, inputs, shape, "hdk_disk", store_dir)
        service.backend.global_index.store.close()
        shutil.rmtree(store_dir)
        total_s += elapsed
    return total_s / SETUP_BATCH * speed.scale()


def run_build(
    seed: int, seconds: float, trace: bool, work: Path, report: Report
) -> SpanRecorder | None:
    """The ``build`` workload: growth cycles of an ``hdk_disk`` service
    over chord, back to back for ``seconds``."""
    shape = BUILD
    inputs = make_inputs(seed, shape.num_docs, shape.pool_size, 1, 1.0)
    reference = finish_cycle(*growth_cycle(inputs, shape, "hdk", None))
    cycle_ids = itertools.count()

    def cycles(
        budget_s: float,
        recorder: SpanRecorder | None,
        setups: list[float] | None = None,
    ) -> list[Cycle]:
        """Growth cycles for ``budget_s`` (at least one), each after a
        :func:`setup_batch` into ``setups`` when that is given.  A cycle
        whose build, search or save raises counts as failed and the next
        one starts."""
        done: list[Cycle] = []
        tried = 0
        started = time.perf_counter()
        while not tried or time.perf_counter() - started < budget_s:
            tried += 1
            if setups is not None:
                setups.append(setup_batch(inputs, shape, work))
            cycle_dir = work / f"cycle{next(cycle_ids)}"
            try:
                # Traced runs leave the host speed uncalibrated, on their
                # plain and traced cycles alike: the calibration would run
                # inside the operation spans.
                if recorder is None:
                    service, cycle = growth_cycle(
                        inputs, shape, "hdk_disk", cycle_dir, not trace
                    )
                else:
                    with recorder.operation():
                        service, cycle = growth_cycle(
                            inputs, shape, "hdk_disk", cycle_dir, False
                        )
            except Exception as error:
                report.attempted += 1
                report.failed += 1
                note(f"growth cycle {tried} raised {error!r}")
                shutil.rmtree(cycle_dir, ignore_errors=True)
                continue
            check_cycle(finish_cycle(service, cycle), reference, inputs.pool)
            # Only the timings and the first cycle's counts are reported;
            # keeping every cycle's rankings and fingerprint would grow
            # the heap (and the GC's work) with the run.
            cycle.rankings, cycle.fingerprint = [], None
            del service
            shutil.rmtree(cycle_dir)
            gc.collect()
            done.append(cycle)
            report.attempted += 1 + len(cycle.query_latencies)
        if not done:
            raise RuntimeError(f"all {tried} growth cycles raised")
        return done

    n_docs = shape.num_docs
    if not trace:
        batch_means: list[float] = []
        # One untimed cycle first: the timed ones then all run after the
        # same amount of sustained load (CPU speed on a shared host
        # drops during the first seconds of it).
        cycles(0.0, None)
        measured = cycles(seconds, None, batch_means)
        first = measured[0]
        report.set("setup_s", median(batch_means), "s")
        report.set(
            "build_docs_per_s",
            median([n_docs / c.build_s for c in measured]),
            "docs/s",
        )
        latencies = [s for c in measured for s in c.query_latencies]
        report.set(
            "qps", len(latencies) / sum(c.pass_s for c in measured), "queries/s"
        )
        report.latency(latencies)
        report.set(
            "postings_per_query", sum(first.postings) / len(first.postings), "postings"
        )
        report.set("hops_per_query", sum(first.hops) / len(first.hops), "hops")
        report.set("stored_postings_per_doc", first.stored / n_docs, "postings")
        report.set("inserted_postings_per_doc", first.inserted / n_docs, "postings")
        report.set(
            "store_bytes_per_posting", first.snapshot_bytes / first.stored, "bytes"
        )
        report.set("peak_rss_mb", peak_rss_mb(), "MiB")
        if not first.store_stats["flushes"]:
            note("the build never flushed the store's memtable")
        return None
    cycles(0.0, None)
    plain = cycles(seconds / 2, None)
    recorder = SpanRecorder()
    with recorder:
        traced = cycles(seconds / 2, recorder)
    metrics.report_spans(report, recorder, len(traced))
    metrics.report_overhead(
        report, [c.build_s for c in plain], [c.build_s for c in traced]
    )
    stats = [c.store_stats for c in traced]
    report.set("hdk.candidate_keys", median([c.candidate_keys for c in traced]), "count")
    report.set("store.flushes", median([s["flushes"] for s in stats]), "count")
    report.set("store.reloads", median([s["reloads"] for s in stats]), "count")
    hits = sum(s["cache_hits"] for s in stats)
    lookups = hits + sum(s["cache_misses"] for s in stats)
    report.set("store.block_cache.hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    looked_up = sum(c.looked_up for c in traced)
    report.set(
        "retrieval.found_ratio", sum(c.found for c in traced) / looked_up, "ratio"
    )
    report.set(
        "retrieval.keys_per_query",
        looked_up / sum(len(c.postings) for c in traced),
        "keys",
    )
    return recorder
