"""The ``serve`` workload: ``repro serve`` in its own process, driven
over HTTP from this one.

Phases, in order, against one server process:

1. a pass over the distinct-query pool (exact counts, correctness);
2. an open loop at :attr:`ServeShape.open_rate_qps`, each request timed
   from when it was due (``p50_ms``, ``p99_ms``);
3. a closed loop, one request outstanding (``qps``);

with a ``GET /stats`` scrape every :attr:`ServeShape.stats_interval_s`
beside phase 3.  Searches use one keep-alive connection and the scrape
a second, so at most two connections are open.  All connections close
before SIGTERM, and the drain must report no shed request.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import os
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Iterator, Sequence

from repro import SearchService

import arith
import inproc
import metrics
from common import (
    CorrectnessError,
    Ranking,
    Report,
    env_with_src,
    expect_equal,
    first_divergence,
    note,
    timed,
    tree_bytes,
)
from inputs import HDK_PARAMS, Inputs, make_inputs
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
#: Snapshot builds and server starts per run; ``setup_s`` and
#: ``build_docs_per_s`` report their medians.
SETUPS = 3


@dataclass(frozen=True)
class ServeShape:
    num_docs: int = 192
    num_peers: int = 64
    #: Larger than the service cache (256 entries), so it hits partly.
    pool_size: int = 1024
    log_length: int = 32768
    zipf_s: float = 1.0
    #: Per-worker residency budget, well below the snapshot's live
    #: posting bytes, so the block cache hits only partly too.
    memory_budget_bytes: int = 64 * 1024
    #: The open loop's fixed arrival rate: 20-25% of the closed-loop
    #: capacity measured on one vCPU (740-1130 queries/s), so a slow
    #: spell of the host does not push it into overload (at 300/s one
    #: such spell backed up the queue by 120 ms).
    open_rate_qps: float = 200.0
    #: Share of ``--seconds`` given to the open loop (the rest goes to
    #: the closed loop); it always sends at least 1010 requests, so its
    #: p99 has ten samples beyond it.
    open_share: float = 0.45
    min_open_requests: int = 1010
    #: ``qps`` is the median throughput of closed-loop windows this long.
    window_s: float = 0.5
    stats_interval_s: float = 2.0
    #: A request sent later than this after its due time means the
    #: generator fell behind its schedule; it counts as failed.
    late_limit_ms: float = 100.0
    ready_timeout_s: float = 60.0


SERVE = ServeShape()


class Client:
    """One keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def call(self, method: str, path: str, body: Any = None) -> tuple[int, Any]:
        """Returns (status, decoded JSON); status 0 on a transport
        error, after which the connection is reopened."""
        data = None if body is None else json.dumps(body).encode()
        try:
            self._conn.request(
                method, path, body=data,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=30
            )
            return 0, None
        return response.status, json.loads(payload) if payload else None

    def close(self) -> None:
        self._conn.close()


class Server:
    """A ``repro serve`` process and the threads draining its output."""

    def __init__(self, snapshot: Path, shape: ServeShape) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--snapshot", str(snapshot), "--port", "0", "--pool-size", "1",
             "--memory-budget-bytes", str(shape.memory_budget_bytes)],
            cwd=ROOT, env=env_with_src(ROOT), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.stdout: queue.Queue[str] = queue.Queue()
        self.stderr: list[str] = []
        self._readers = [
            threading.Thread(target=self._pump, args=(self.proc.stdout, self.stdout.put)),
            threading.Thread(target=self._pump, args=(self.proc.stderr, self.stderr.append)),
        ]
        for reader in self._readers:
            reader.start()
        self.port = self._await_port(shape.ready_timeout_s)
        self.ready_s = self._await_ready(shape.ready_timeout_s)

    @staticmethod
    def _pump(stream, sink) -> None:
        for line in stream:
            sink(line)

    def _await_port(self, timeout_s: float) -> int:
        deadline = self.started + timeout_s
        while time.perf_counter() < deadline:
            try:
                line = self.stdout.get(timeout=0.5)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            if line.startswith("serving on http://"):
                return int(line.split()[2].rsplit(":", 1)[1])
        self.stop(check=False)
        raise RuntimeError(
            "repro serve did not start: " + "".join(self.stderr)[-2000:]
        )

    def _await_ready(self, timeout_s: float) -> float:
        client = Client(self.port)
        try:
            while time.perf_counter() < self.started + timeout_s:
                status, _ = client.call("GET", "/healthz")
                if status == 200:
                    return time.perf_counter() - self.started
                time.sleep(0.005)
        finally:
            client.close()
        self.stop(check=False)
        raise RuntimeError("repro serve never reported ready")

    def worker_peak_rss_mb(self) -> float:
        """Peak resident set size of the pool's worker process."""
        for child in _children(self.proc.pid):
            cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
            if b"spawn_main" in cmdline:
                for line in Path(f"/proc/{child}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        raise RuntimeError("no worker process found under repro serve")

    def stop(self, check: bool = True) -> list[str]:
        """SIGTERM, wait, and (with ``check``) require a clean drain.
        Returns the server's stderr lines."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for reader in self._readers:
            reader.join()
        lines = []
        while not self.stdout.empty():
            lines.append(self.stdout.get())
        if check:
            drained = [line for line in lines if line.startswith("drained:")]
            if not drained:
                raise RuntimeError("repro serve exited without draining")
            if "shed 0 overload / 0 rate-limited / 0 draining" not in drained[0]:
                raise RuntimeError(f"drain shed requests: {drained[0].strip()}")
        return self.stderr


@contextlib.contextmanager
def one_cpu() -> Iterator[None]:
    """Pin this process, and so the server and worker it starts, to one
    CPU.  Each request is a chain of hand-offs (client, gateway, pool
    IPC, worker and back) with one request in flight, so a second CPU
    adds no parallelism; what it adds on a small VM is cross-CPU
    wake-ups of an idle vCPU, whose hypervisor latency tripled
    request times from one run to the next."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(previous)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def _children(pid: int) -> list[int]:
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            out.append(int(entry.name))
    return out


def results_of(payload: dict) -> Ranking:
    return tuple((doc_id, score) for doc_id, score in payload["results"])


@dataclass
class HttpRun:
    """What the HTTP phases measured."""

    pool_rankings: list[Ranking]
    pool_postings: list[int]
    retrieval_hops: int
    open_latencies: list[float]
    open_lateness: list[float]
    closed_latencies: list[float]
    closed_window_qps: list[float]
    closed_worker_ms: list[float]
    stats_ms: list[float]
    attempted: int
    shed: int
    failed: int
    late: int
    final_stats: dict


def worker_stats(stats: dict) -> dict:
    workers = stats["workers"]
    if len(workers) != 1 or "error" in workers[0]:
        raise RuntimeError(f"unexpected worker stats: {workers}")
    return workers[0]


def drive(server: Server, inputs: Inputs, shape: ServeShape, seconds: float,
          expected: Sequence[Ranking]) -> HttpRun:
    """Run the pool pass, the open loop and the closed loop."""
    search = Client(server.port)
    scrape = Client(server.port)
    outcome = {"shed": 0, "failed": 0, "attempted": 0}

    def post(query_index: int) -> dict | None:
        outcome["attempted"] += 1
        status, payload = search.call(
            "POST", "/search", {"query": inputs.pool[query_index], "k": inproc.K}
        )
        if status == 200:
            if results_of(payload) != expected[query_index]:
                raise CorrectnessError(
                    f"ranking of query #{query_index} "
                    f"{inputs.pool[query_index]!r} served over HTTP diverges "
                    "from the reference"
                )
            return payload
        if status in (429, 503):
            outcome["shed"] += 1
        else:
            outcome["failed"] += 1
        return None

    try:
        status, before = scrape.call("GET", "/stats")
        expect_equal("GET /stats status", 200, status)
        pool_rankings, pool_postings = [], []
        for index in range(len(inputs.pool)):
            payload = post(index)
            if payload is None:
                raise RuntimeError(f"pool query #{index} was not served")
            pool_rankings.append(results_of(payload))
            pool_postings.append(payload["postings_transferred"])
        status, after = scrape.call("GET", "/stats")
        expect_equal("GET /stats status", 200, status)
        hops = _retrieval_hops(after) - _retrieval_hops(before)

        stats_ms: list[float] = []
        stop_scrape = threading.Event()

        def scraper() -> None:
            while not stop_scrape.wait(shape.stats_interval_s):
                started = time.perf_counter()
                status, _ = scrape.call("GET", "/stats")
                if status == 200:
                    stats_ms.append((time.perf_counter() - started) * 1e3)

        scrape_thread = threading.Thread(target=scraper)
        try:
            log = inputs.log
            position = 0
            open_latencies, lateness = [], []
            late = 0
            interval = 1.0 / shape.open_rate_qps
            count = max(
                shape.min_open_requests,
                int(seconds * shape.open_share * shape.open_rate_qps),
            )
            started = time.perf_counter()
            for i in range(count):
                due = started + i * interval
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                sent = time.perf_counter()
                post(log[position % len(log)])
                done = time.perf_counter()
                position += 1
                # A failed request keeps its sample (time until the error
                # came back) and also counts as failed.
                open_latencies.append(done - due)
                lateness.append(sent - due)
                if (sent - due) * 1e3 > shape.late_limit_ms:
                    late += 1
            # The scrape runs beside the closed loop only: on one CPU each
            # scrape stalls the searches for its ~9 ms, and in the open
            # loop those stalls landed right at the p99 boundary.
            scrape_thread.start()
            closed_latencies, worker_ms, window_qps = [], [], []
            started = time.perf_counter()
            deadline = started + seconds * (1.0 - shape.open_share)
            window_start, window_calls = started, 0
            done = started
            while done < deadline:
                sent = time.perf_counter()
                payload = post(log[position % len(log)])
                done = time.perf_counter()
                position += 1
                if payload is not None:
                    closed_latencies.append(done - sent)
                    worker_ms.append(payload["elapsed_ms"])
                    window_calls += 1
                if done - window_start >= shape.window_s:
                    window_qps.append(window_calls / (done - window_start))
                    window_start, window_calls = done, 0
        finally:
            stop_scrape.set()
            if scrape_thread.is_alive():
                scrape_thread.join()
        status, final = scrape.call("GET", "/stats")
        expect_equal("GET /stats status", 200, status)
    finally:
        search.close()
        scrape.close()
    return HttpRun(
        pool_rankings=pool_rankings,
        pool_postings=pool_postings,
        retrieval_hops=hops,
        open_latencies=open_latencies,
        open_lateness=lateness,
        closed_latencies=closed_latencies,
        closed_window_qps=window_qps,
        closed_worker_ms=worker_ms,
        stats_ms=stats_ms,
        attempted=outcome["attempted"],
        shed=outcome["shed"],
        failed=outcome["failed"],
        late=late,
        final_stats=final,
    )


def _retrieval_hops(stats: dict) -> int:
    return worker_stats(stats)["traffic"]["hops_by_phase"].get("retrieval", 0)


def build_snapshot(inputs: Inputs, shape: ServeShape, work: Path, name: str):
    """Index an ``hdk_disk`` service over pgrid and save it under
    ``work / name``; returns the snapshot path, the index+save seconds
    and the stored/inserted posting totals."""
    service = SearchService.build(
        inputs.collection, num_peers=shape.num_peers, backend="hdk_disk",
        params=HDK_PARAMS, overlay="pgrid", cache_capacity=None,
        store_dir=work / f"{name}-store",
    )
    _, index_s = timed(service.index)
    snapshot = work / name
    _, save_s = timed(service.save, snapshot)
    totals = service.stored_postings_total(), service.inserted_postings_total()
    service.backend.global_index.store.close()
    return snapshot, index_s + save_s, totals


def reference_pass(inputs: Inputs, shape: ServeShape):
    """Rankings, postings and retrieval hops of every pool query on a
    flat ``hdk`` build, from the peer the gateway's workers query from."""
    reference, _, _ = inproc.build_service(
        inputs.collection, shape.num_peers, "hdk", "pgrid"
    )
    source = [reference.peers[0].name]
    rankings, postings, hops = inproc.pool_pass(reference, inputs.pool, source)
    totals = reference.stored_postings_total(), reference.inserted_postings_total()
    return rankings, postings, sum(hops), totals


def run_serve(
    seed: int, seconds: float, trace: bool, work: Path, report: Report
) -> SpanRecorder | None:
    shape = SERVE
    inputs = make_inputs(
        seed, shape.num_docs, shape.pool_size, shape.log_length, shape.zipf_s
    )
    # Reference first, so the timed snapshot build runs after the same
    # few seconds of load in every run.
    want, want_postings, want_hops, want_totals = reference_pass(inputs, shape)
    build_times = []
    for attempt in range(1 if trace else SETUPS):
        path, build_s, totals = build_snapshot(inputs, shape, work, f"snapshot{attempt}")
        expect_equal("stored/inserted postings vs reference", want_totals, totals)
        build_times.append(build_s)
        if attempt == 0:
            snapshot = path
        gc.collect()

    ready = []
    with one_cpu():
        for _ in range(0 if trace else SETUPS - 1):
            server = Server(snapshot, shape)
            ready.append(server.ready_s)
            _note_tracebacks(server.stop())
        server = Server(snapshot, shape)
        ready.append(server.ready_s)
        try:
            run = drive(server, inputs, shape, seconds, want)
            worker_rss = server.worker_peak_rss_mb()
        finally:
            stderr = server.stop()
    _note_tracebacks(stderr)

    first_divergence(inputs.pool, want, run.pool_rankings)
    expect_equal("postings per pool query", want_postings, run.pool_postings)
    expect_equal("retrieval hops of the pool pass", want_hops, run.retrieval_hops)
    report.attempted += run.attempted
    report.failed += run.shed + run.failed + run.late
    n_docs = len(inputs.collection)
    stored, inserted = totals
    if not trace:
        report.set("setup_s", median(ready), "s")
        report.set("build_docs_per_s", n_docs / median(build_times), "docs/s")
        report.set("qps", median(run.closed_window_qps), "queries/s")
        report.latency(run.open_latencies)
        report.set(
            "postings_per_query",
            sum(run.pool_postings) / len(run.pool_postings),
            "postings",
        )
        report.set("hops_per_query", run.retrieval_hops / len(inputs.pool), "hops")
        report.set("stored_postings_per_doc", stored / n_docs, "postings")
        report.set("inserted_postings_per_doc", inserted / n_docs, "postings")
        report.set(
            "store_bytes_per_posting", tree_bytes(snapshot) / stored, "bytes"
        )
        report.set("peak_rss_mb", worker_rss, "MiB")
        return None
    return trace_serve(report, run, inputs, shape, snapshot, seconds, want, ready[-1])


def trace_serve(
    report: Report, run: HttpRun, inputs: Inputs, shape: ServeShape,
    snapshot: Path, seconds: float, want: Sequence[Ranking], ready_s: float,
) -> SpanRecorder:
    """Per-layer split of ``serve``.  Gateway and IPC cost come from the
    HTTP run (client latency minus the worker's ``elapsed_ms``); the
    worker's layers from replaying the same requests in-process against
    ``SearchService.load`` of the same snapshot, budget and cache."""
    overhead_ms = [
        latency * 1e3 - worker
        for latency, worker in zip(run.closed_latencies, run.closed_worker_ms)
    ]
    report.set("serving.overhead_p50_ms", arith.percentile(overhead_ms, 50), "ms")
    report.set("serving.overhead_p99_ms", arith.tail(overhead_ms, 99), "ms")
    report.set("serving.worker_p50_ms", arith.percentile(run.closed_worker_ms, 50), "ms")
    report.set("serving.worker_p99_ms", arith.tail(run.closed_worker_ms, 99), "ms")
    report.set("serving.failed", run.failed, "count")
    report.set(
        "serving.stats_ms",
        median(run.stats_ms) if run.stats_ms else 0.0,
        "ms",
    )
    report.set("serving.ready_s", ready_s, "s")
    report.set(
        "loadgen.late_ms",
        arith.tail([s * 1e3 for s in run.open_lateness], 99),
        "ms",
    )
    worker = worker_stats(run.final_stats)
    lookups = worker["cache_hits"] + worker["cache_misses"]
    report.set("engine.cache.hit_ratio", worker["cache_hits"] / lookups, "ratio")
    store = worker["spill"]["store"]
    blocks = store["cache_hits"] + store["cache_misses"]
    report.set(
        "store.block_cache.hit_ratio",
        store["cache_hits"] / blocks if blocks else 0.0,
        "ratio",
    )
    report.set("store.reloads", worker["spill"]["reloads"], "count")

    service, load_s = timed(
        SearchService.load, snapshot,
        memory_budget_bytes=shape.memory_budget_bytes, cache_capacity=256,
    )
    report.set("store.load.ms", load_s * 1e3, "ms")
    source = [service.peers[0].name]
    rankings, _, _ = inproc.pool_pass(service, inputs.pool, source)
    first_divergence(inputs.pool, want, rankings)
    plain = inproc.closed_loop(service, inputs, source, seconds / 4, want)
    recorder = SpanRecorder()
    with recorder:
        traced = inproc.closed_loop(
            service, inputs, source, seconds / 4, want, recorder
        )
    service.backend.global_index.store.close()
    for loop in (plain, traced):
        report.attempted += len(loop.latencies) + loop.failed
        report.failed += loop.failed
    ops = len(traced.latencies)
    metrics.report_spans(report, recorder, ops)
    metrics.report_overhead(report, plain.latencies, traced.latencies)
    report.set(
        "retrieval.found_ratio",
        traced.found / traced.looked_up if traced.looked_up else 0.0,
        "ratio",
    )
    report.set("retrieval.keys_per_query", traced.looked_up / ops, "keys")
    # The client's time per request splits into gateway + IPC overhead
    # and the worker's service time; the in-process replay splits the
    # latter across the worker's layers.
    client_ms = sum(run.closed_latencies) * 1e3
    serving_share = sum(overhead_ms) / client_ms
    report.set("layer.serving.self_ms", sum(overhead_ms) / len(overhead_ms), "ms")
    report.set("layer.serving.share_pct", 100.0 * serving_share, "%")
    for name, (value, unit) in list(report.metrics.items()):
        if name.endswith(".share_pct") and name != "layer.serving.share_pct":
            report.set(name, value * (1.0 - serving_share), unit)
    return recorder


def _note_tracebacks(stderr: list[str]) -> None:
    if any("Traceback" in line for line in stderr):
        note(
            "repro serve printed a traceback while draining: "
            + "".join(stderr)[-400:].replace("\n", " | ")
        )
