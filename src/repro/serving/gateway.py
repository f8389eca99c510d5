"""Stdlib-only asyncio HTTP gateway over a :class:`WorkerPool`.

The network edge of the reproduction: a single-threaded asyncio server
speaking enough HTTP/1.1 (keep-alive, Content-Length bodies) to front
the process-parallel search workers.  Endpoints:

========================  ====================================================
``POST /search``          ``{"query": str, "k": int}`` → one ranked response
``POST /search_batch``    ``{"queries": [str, ...], "k": int}`` → per-query
                          responses + batch aggregates
``GET  /healthz``         readiness: 200 while serving, 503 once draining
``GET  /stats``           gateway metrics + pool counters + a fleet-wide
                          service aggregate + per-worker service
                          statistics, all plain JSON
``GET  /trace/recent``    the most recent stitched traces from the
                          process-wide tracer (see :mod:`repro.obs`)
========================  ====================================================

Tracing: when the global tracer is enabled (``repro serve --trace-dir``)
every ``/search`` request runs under a ``gateway.search`` root span
whose ids ride the pool envelope; the worker's spans ship back in the
reply and are re-parented into one connected tree.  A client-supplied
``X-Trace-Id`` header names the trace (and force-traces that single
request even when the tracer is off); the response always echoes the
trace id back as ``X-Trace-Id``.

Admission control happens *before* any worker is involved, in strict
order: a draining gateway sheds with 503, a client over its token bucket
sheds with 429, and a full in-flight window (``max_inflight``) sheds
with 503 — all three are constant-time fast paths, so overload never
queues unboundedly in front of the pool.

Graceful drain (SIGTERM or :meth:`Gateway.initiate_drain`): the
readiness probe flips unready immediately, new search requests are
refused, every in-flight request runs to completion, and only then does
the listener close — zero in-flight requests are dropped, and a load
balancer watching ``/healthz`` stops routing before the socket goes
away.  Keep-alive connections idling between requests are closed last,
and the drain completes only once every connection handler returned.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..engine.service import LATENCY_METRIC
from ..errors import ConfigurationError
from ..obs.metrics import LatencyHistogram, MetricsHub
from ..obs.trace import get_tracer
from ..overlay.routing import render_overlay_stats
from .metrics import MetricsRegistry
from .pool import PoolShutdownError, WorkerCrashError, WorkerPool

__all__ = [
    "Gateway",
    "GatewayConfig",
    "TokenBucket",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Endpoint -> allowed method (anything else on the path is a 405).
_ROUTES = {
    "/search": "POST",
    "/search_batch": "POST",
    "/healthz": "GET",
    "/stats": "GET",
    "/trace/recent": "GET",
}


class _HttpError(Exception):
    """A request that must be answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class TokenBucket:
    """Per-client token bucket: ``rate`` requests/second sustained,
    bursts up to ``burst`` (refilled continuously on demand)."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = time.monotonic()

    def try_take(self) -> bool:
        """Take one token if available; refills lazily."""
        now = time.monotonic()
        self.tokens = min(
            self.burst, self.tokens + (now - self.updated) * self.rate
        )
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class GatewayConfig:
    """Gateway knobs.

    Attributes:
        host / port: listen address (``port=0`` picks a free port,
            readable from :attr:`Gateway.port` once serving).
        max_inflight: admission-control window — search requests beyond
            this many simultaneously in the pool are shed with 503.
        rate_limit: per-client sustained requests/second; ``0`` disables
            rate limiting.
        rate_burst: per-client burst size (defaults to ``rate_limit``
            rounded up, minimum 1, when left at 0).
        max_body_bytes: request bodies beyond this are refused with 413.
        max_batch: longest accepted ``/search_batch`` query list.
        default_k: result depth when the request body omits ``"k"``.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: int = 64
    rate_limit: float = 0.0
    rate_burst: float = 0.0
    max_body_bytes: int = 1 << 20
    max_batch: int = 256
    default_k: int = 10

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.rate_limit < 0:
            raise ConfigurationError(
                f"rate_limit must be >= 0, got {self.rate_limit}"
            )
        if self.rate_burst <= 0:
            self.rate_burst = max(1.0, float(int(self.rate_limit + 0.999)))


class Gateway:
    """The asyncio HTTP server tying admission control, the worker
    pool, and the metrics registry together.

    Run it blocking on the current thread with :meth:`run` (the CLI
    path, with SIGTERM/SIGINT wired to graceful drain), or on a
    background thread with :meth:`start_in_thread` (tests, examples).
    The gateway does not own the pool's lifecycle: the caller starts the
    pool before and shuts it down after.
    """

    def __init__(
        self,
        pool: WorkerPool,
        config: GatewayConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.pool = pool
        self.config = config or GatewayConfig()
        self.metrics = metrics or MetricsRegistry()
        self.port: int | None = None  # set once the listener is bound
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._drain_started = False
        self._inflight = 0
        #: Running connection handlers, and the writers of those idling
        #: in a request read (what the drain may close under them).
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._buckets: dict[str, TokenBucket] = {}
        self._ready = threading.Event()
        self._finished = threading.Event()
        self._thread: threading.Thread | None = None
        #: Optional zero-arg callback fired once the listener is bound
        #: (``self.port`` is final); the CLI uses it to announce the
        #: serving address.
        self.on_ready: Any = None

    # -- lifecycle ---------------------------------------------------------------

    def run(self, install_signal_handlers: bool = True) -> None:
        """Serve until drained (blocking)."""
        asyncio.run(self._main(install_signal_handlers))

    def start_in_thread(self, timeout_s: float = 30.0) -> None:
        """Serve on a daemon thread; returns once the listener is bound
        (``self.port`` is then final)."""
        self._thread = threading.Thread(
            target=self.run,
            kwargs={"install_signal_handlers": False},
            name="gateway",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ConfigurationError(
                f"gateway did not start within {timeout_s}s"
            )

    def initiate_drain(self) -> None:
        """Begin graceful drain (thread-safe and signal-safe): healthz
        flips unready now, in-flight requests finish, then the listener
        closes and :meth:`run` returns."""
        self._draining = True  # visible to healthz immediately
        loop = self._loop
        if loop is None or self._finished.is_set():
            return  # not started yet, or already fully drained
        try:
            loop.call_soon_threadsafe(self._schedule_drain)
        except RuntimeError:
            pass  # lost the race against the loop closing: drained

    def wait_finished(self, timeout_s: float | None = None) -> bool:
        """Block until the drain completed and the listener closed."""
        return self._finished.wait(timeout_s)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    async def _main(self, install_signal_handlers: bool) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.initiate_drain)
        self._ready.set()
        if self.on_ready is not None:
            self.on_ready()
        try:
            await self._stopped.wait()
        finally:
            self._finished.set()

    def _schedule_drain(self) -> None:
        if not self._drain_started:
            self._drain_started = True
            asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        self._draining = True
        # In-flight requests (and their response writes) finish first;
        # the listener closes only after the last one completed, so
        # nothing already admitted is ever dropped.
        while self._inflight > 0:
            await asyncio.sleep(0.005)
        assert self._server is not None
        self._server.close()
        # Closing an idle connection hands its pending read an EOF, so
        # the handler returns by itself instead of being cancelled
        # mid-read when the loop shuts down; busy handlers finish their
        # response (it carries Connection: close) and return too.
        while self._handlers:
            for writer in self._idle:
                writer.close()
            await asyncio.sleep(0.005)
        await self._server.wait_closed()
        self._stopped.set()

    # -- connection handling -----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_ip = peer[0] if isinstance(peer, tuple) else "unknown"
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while True:
                self._idle.add(writer)
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    writer.write(_encode_error(error, close=True))
                    await writer.drain()
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break  # clean EOF between requests
                method, path, headers, body = request
                started = time.perf_counter()
                extra_headers: dict[str, str] | None = None
                try:
                    status, payload, extra_headers = await self._dispatch(
                        method, path, headers, body, peer_ip
                    )
                except _HttpError as error:
                    status, payload = error.status, {
                        "error": error.message
                    }
                latency_ms = (time.perf_counter() - started) * 1000.0
                self.metrics.observe(path, status, latency_ms)
                close = (
                    self._draining
                    or headers.get("connection", "").lower() == "close"
                )
                writer.write(
                    _encode_response(status, payload, close, extra_headers)
                )
                await writer.drain()
                if close:
                    break
        except ConnectionError:
            pass  # client went away mid-write; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            finally:
                self._handlers.discard(task)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise _HttpError(400, "truncated headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise _HttpError(400, "malformed Content-Length")
        if length > self.config.max_body_bytes:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method, path, headers, body

    # -- request dispatch --------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        peer_ip: str,
    ) -> tuple[int, dict[str, Any], dict[str, str] | None]:
        allowed = _ROUTES.get(path)
        if allowed is None:
            return 404, {"error": f"unknown endpoint {path!r}"}, None
        if method != allowed:
            return 405, {
                "error": f"{path} only accepts {allowed}, got {method}"
            }, None
        if path == "/healthz":
            if self._draining:
                return 503, {"status": "draining", "ready": False}, None
            return 200, {"status": "ok", "ready": True}, None
        if path == "/trace/recent":
            return 200, {"traces": get_tracer().recent_traces()}, None
        if path == "/stats":
            # The per-worker stats fan-out waits on pool futures, so it
            # runs on the default executor instead of blocking the loop.
            payload = await asyncio.get_running_loop().run_in_executor(
                None, self._stats_payload
            )
            return 200, payload, None
        # The two search surfaces: admission control, then the pool.
        if self._draining:
            self.metrics.note_shed("draining")
            return 503, {"error": "draining", "retry_after_s": 1}, None
        client_id = headers.get("x-client-id", peer_ip)
        if not self._admit_client(client_id):
            return 429, {
                "error": f"client {client_id!r} over rate limit",
                "retry_after_s": 1,
            }, None
        if self._inflight >= self.config.max_inflight:
            self.metrics.note_shed("overload")
            return 503, {
                "error": (
                    f"gateway at max_inflight={self.config.max_inflight}"
                ),
                "retry_after_s": 1,
            }, None
        method_name, payload = self._parse_search_body(path, body)
        tracer = get_tracer()
        client_tid = headers.get("x-trace-id") or None
        gw_span = None
        if method_name == "search" and (tracer.active or client_tid):
            # One root per traced request; its ids ride the pool
            # envelope so the worker's spans re-parent under it.  A
            # client-named trace id force-records even when the tracer
            # switch is off (per-request opt-in).
            gw_span = tracer.root(
                "gateway.search",
                trace_id=client_tid,
                force=client_tid is not None,
                client=client_id,
            )
            if gw_span.recording:
                payload["trace"] = {
                    "trace_id": gw_span.trace_id,
                    "parent_span_id": gw_span.span_id,
                }
            else:
                gw_span = None
        trace_headers: dict[str, str] | None = None
        self._inflight += 1
        try:
            if gw_span is not None:
                with gw_span:
                    future = self.pool.submit(method_name, payload)
                    result = await asyncio.wrap_future(future)
                worker_trace = result.pop("trace", None)
                if worker_trace is not None:
                    tracer.adopt(worker_trace.get("spans") or [])
                result["trace_id"] = gw_span.trace_id
                trace_headers = {"X-Trace-Id": gw_span.trace_id}
            else:
                future = self.pool.submit(method_name, payload)
                result = await asyncio.wrap_future(future)
        except WorkerCrashError as exc:
            return 500, {"error": str(exc)}, trace_headers
        except PoolShutdownError as exc:
            return 503, {"error": str(exc)}, trace_headers
        finally:
            self._inflight -= 1
        return 200, result, trace_headers

    def _admit_client(self, client_id: str) -> bool:
        if self.config.rate_limit <= 0:
            return True
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = self._buckets[client_id] = TokenBucket(
                self.config.rate_limit, self.config.rate_burst
            )
        return bucket.try_take()

    def _parse_search_body(
        self, path: str, body: bytes
    ) -> tuple[str, dict[str, Any]]:
        try:
            parsed = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError):
            raise _HttpError(400, "request body is not valid JSON") from None
        if not isinstance(parsed, dict):
            raise _HttpError(400, "request body must be a JSON object")
        k = parsed.get("k", self.config.default_k)
        if not isinstance(k, int) or k < 1:
            raise _HttpError(400, f"'k' must be a positive integer, got {k!r}")
        if path == "/search":
            query = parsed.get("query")
            if not isinstance(query, str) or not query.strip():
                raise _HttpError(400, "'query' must be a non-empty string")
            return "search", {"query": query, "k": k}
        queries = parsed.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _HttpError(400, "'queries' must be a non-empty list")
        if len(queries) > self.config.max_batch:
            raise _HttpError(
                400,
                f"batch of {len(queries)} exceeds max_batch="
                f"{self.config.max_batch}",
            )
        if not all(isinstance(q, str) and q.strip() for q in queries):
            raise _HttpError(400, "'queries' must be non-empty strings")
        return "search_batch", {"queries": queries, "k": k}

    def _stats_payload(self) -> dict[str, Any]:
        # One fan-out, two views: the raw per-worker entries and the
        # fleet-wide "service" aggregate derived from the same replies
        # (no second round of worker stats round-trips).
        workers = self.pool.worker_stats()
        return {
            "gateway": {
                "draining": self._draining,
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "rate_limit": self.config.rate_limit,
                "clients_seen": len(self._buckets),
                **self.metrics.snapshot(),
            },
            "service": _aggregate_worker_stats(workers),
            "pool": self.pool.stats(),
            "workers": workers,
        }


def _aggregate_worker_stats(
    workers: list[dict[str, Any]]
) -> dict[str, Any]:
    """Fold per-worker ``SearchService.stats()`` replies into one
    fleet-wide view: summed cache counters, summed traffic totals, and
    the workers' metric hubs merged by metric kind, from which the
    latency distribution and (``hdk_super`` workers) the overlay's
    event counters are rendered exactly as one worker renders its own."""
    reporting = [w for w in workers if "error" not in w]
    hits = sum(int(w.get("cache_hits", 0)) for w in reporting)
    misses = sum(int(w.get("cache_misses", 0)) for w in reporting)
    traffic_totals = {
        key: sum(
            int((w.get("traffic") or {}).get(key, 0)) for w in reporting
        )
        for key in (
            "indexing_postings",
            "retrieval_postings",
            "maintenance_postings",
            "total_postings",
            "total_messages",
            "total_hops",
        )
    }
    hub = MetricsHub()
    for worker in reporting:
        if worker.get("metrics"):
            hub.merge_state(worker["metrics"])
    state = hub.to_state()
    latency = state["histograms"].get(LATENCY_METRIC)
    aggregate = {
        "workers_reporting": len(reporting),
        "workers_errored": len(workers) - len(reporting),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": round(hits / max(1, hits + misses), 4),
        "traffic": traffic_totals,
        "latency": (
            LatencyHistogram.from_state(latency).as_dict()
            if latency is not None
            else None
        ),
    }
    overlays = [
        w["overlay"] for w in reporting if isinstance(w.get("overlay"), dict)
    ]
    if overlays:
        # Shape and configuration from the first worker; every event
        # key re-rendered from the merged hubs.
        aggregate["overlay"] = {
            **overlays[0],
            **render_overlay_stats(state),
        }
    return aggregate


def _encode_response(
    status: int,
    payload: dict[str, Any],
    close: bool,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    extra = ""
    if status in (429, 503):
        extra = "Retry-After: 1\r\n"
    for name, value in (extra_headers or {}).items():
        extra += f"{name}: {value}\r\n"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        f"{extra}\r\n"
    )
    return head.encode("latin-1") + body


def _encode_error(error: _HttpError, close: bool) -> bytes:
    return _encode_response(
        error.status, {"error": error.message}, close
    )
