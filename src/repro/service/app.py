"""The resilient asyncio compression service (``isobar serve``).

Design-for-failure, endpoint by endpoint:

* **Admission control** — compute routes pass through a bounded gate
  (``max_inflight`` executor slots + ``max_queue`` waiters).  A full
  queue sheds immediately with 429 and ``Retry-After`` instead of
  letting latency collapse for everyone (load shedding).
* **Deadlines** — every compute request carries a wall-clock budget
  (``X-Isobar-Deadline-Ms`` header or ``deadline_ms`` query, capped by
  the service).  The budget covers the queue wait *and* the compute,
  which runs under :func:`repro.core.resilience.call_with_deadline`;
  expiry surfaces as 504, never a hang — a stuck solver's thread is
  abandoned.  This is the only deadline: chunk encoding has none.
* **Degradation mapping** — the resilience layer's containment verdict
  becomes HTTP semantics: degraded-but-decodable output is still 200
  with ``X-Isobar-Degraded`` / ``X-Isobar-Degradation`` headers, also
  for an explicitly requested codec (a chunk's encoding depends only
  on its bytes, never on other requests); a partial salvage is 206.
* **Backpressure** — compute responses are chunked and each piece is
  ``drain()``-ed before the next is produced.  Decompression feeds the
  writer through a bounded thread→async bridge (the service-side twin
  of ``stream_compress(readahead_chunks=...)``), so a slow reader
  stalls the decoder instead of buffering the output.
* **Graceful drain** — SIGTERM/SIGINT (or :meth:`IsobarService.drain`)
  stops accepting, answers new requests on live connections with 503,
  lets in-flight requests finish up to ``drain_seconds``, then cancels
  stragglers.

The service speaks the container format over plain HTTP/1.1 with no
dependencies beyond the stdlib — see ``docs/service.md`` for the wire
contract and the full status-code table.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace as _dc_replace
from typing import TYPE_CHECKING, Awaitable, Callable, Iterable, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.sanitizer.loopwatch import LoopStallProbe

import numpy as np

from repro.analysis.bytefreq import element_width
from repro.core.exceptions import (
    ChunkTimeoutError,
    ConfigurationError,
    InvalidInputError,
    IsobarError,
)
from repro.core.pipeline import IsobarCompressor
from repro.core.selector import SelectorStrategy, resolve_selector
from repro.core.preferences import (
    IsobarConfig,
    Linearization,
    Preference,
    normalize_errors,
)
from repro.core.random_access import ContainerFile
from repro.core.resilience import ResiliencePolicy, call_with_deadline
from repro.core.salvage import salvage_decompress
from repro.observability.export import to_json, to_prometheus_text
from repro.observability.registry import MetricsRegistry
from repro.service.chaos import ChaosPlan, NetworkChaos
from repro.service.errors import (
    DrainingError,
    QueueFullError,
    ServiceProtocolError,
    error_body,
    retry_after_for_exception,
    status_for_exception,
)
from repro.service.http import (
    Request,
    iter_fixed_pieces,
    read_request,
    write_chunk,
    write_chunked_preamble,
    write_chunked_terminator,
    write_response,
)

__all__ = ["IsobarService", "ServiceConfig", "ServiceThread"]

#: Parameter combinations (query overrides) whose compressor, and
#: whose ``/v1/plan`` selector, stay cached; the least recently used
#: is evicted beyond this.  Overrides such as ``tau`` are free-form
#: client numbers, so an unbounded cache would grow per distinct value.
_CACHED_OVERRIDE_SETS = 16

_T = TypeVar("_T")


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of one :class:`IsobarService`.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port (reported by
        :attr:`IsobarService.port` once started).
    max_inflight:
        Compute requests running concurrently (= executor threads).
    max_queue:
        Admitted-but-waiting requests beyond ``max_inflight``; the
        next arrival is shed with 429.
    default_deadline_seconds / max_deadline_seconds:
        Per-request wall-clock budget when the client sends none, and
        the cap on client-requested budgets.
    max_body_bytes:
        Request-body limit (413 beyond it).
    drain_seconds:
        Grace period for in-flight requests during shutdown.
    retry_after_seconds:
        ``Retry-After`` value attached to 429/503 responses.
    header_timeout_seconds / body_timeout_seconds:
        Read timeouts for the two request phases (stalled client →
        408).
    response_piece_bytes:
        Chunked-response piece size (each piece is drained before the
        next — the backpressure quantum).
    readahead_chunks:
        Depth of the decode→writer bridge on ``/v1/decompress``: at
        most this many decoded chunks wait for a slow reader.
    pipeline_workers:
        Per-request chunk parallelism: the ``n_workers`` of each
        request's :class:`~repro.core.pipeline.IsobarCompressor`
        (``max_inflight`` requests × ``pipeline_workers`` chunk
        workers is the compute-thread ceiling).  1 (the default) runs
        each request's chunks inline.
    pipeline_max_inflight:
        Backpressure bound handed to the pipelined engine (None =
        engine default of ``max(2 * pipeline_workers, 4)``).
    stall_probe_threshold_seconds:
        When set, run the tsan-lite event-loop stall probe
        (:class:`~repro.devtools.sanitizer.loopwatch.LoopStallProbe`)
        for the lifetime of the service: any callback holding the loop
        longer than this many seconds is counted in
        ``isobar_service_loop_stalls_total{handler=}`` and attributed
        to the active route.  ``None`` (the default) disables the
        probe.
    isobar:
        The compression configuration served by default; per-request
        query parameters override codec/preference/linearization/
        chunk_elements/tau on top of it.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 4
    max_queue: int = 16
    default_deadline_seconds: float = 30.0
    max_deadline_seconds: float = 120.0
    max_body_bytes: int = 64 * 1024 * 1024
    drain_seconds: float = 10.0
    retry_after_seconds: float = 1.0
    header_timeout_seconds: float = 30.0
    body_timeout_seconds: float = 30.0
    response_piece_bytes: int = 64 * 1024
    readahead_chunks: int = 4
    pipeline_workers: int = 1
    pipeline_max_inflight: int | None = None
    stall_probe_threshold_seconds: float | None = None
    isobar: IsobarConfig = field(default_factory=IsobarConfig)

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight!r}"
            )
        if self.max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {self.max_queue!r}"
            )
        if self.default_deadline_seconds <= 0:
            raise ConfigurationError(
                "default_deadline_seconds must be positive, got "
                f"{self.default_deadline_seconds!r}"
            )
        if self.max_deadline_seconds < self.default_deadline_seconds:
            raise ConfigurationError(
                "max_deadline_seconds must be >= default_deadline_seconds"
            )
        if self.max_body_bytes < 1:
            raise ConfigurationError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes!r}"
            )
        if self.response_piece_bytes < 1:
            raise ConfigurationError(
                "response_piece_bytes must be >= 1, got "
                f"{self.response_piece_bytes!r}"
            )
        if self.readahead_chunks < 1:
            raise ConfigurationError(
                f"readahead_chunks must be >= 1, got {self.readahead_chunks!r}"
            )
        if self.pipeline_workers < 1:
            raise ConfigurationError(
                f"pipeline_workers must be >= 1, got "
                f"{self.pipeline_workers!r}"
            )
        if (
            self.pipeline_max_inflight is not None
            and self.pipeline_max_inflight < 1
        ):
            raise ConfigurationError(
                f"pipeline_max_inflight must be >= 1, got "
                f"{self.pipeline_max_inflight!r}"
            )
        if (
            self.stall_probe_threshold_seconds is not None
            and self.stall_probe_threshold_seconds <= 0
        ):
            raise ConfigurationError(
                "stall_probe_threshold_seconds must be positive, got "
                f"{self.stall_probe_threshold_seconds!r}"
            )

    def replace(self, **changes: object) -> "ServiceConfig":
        """Return a copy of this config with ``changes`` applied."""
        return _dc_replace(self, **changes)


class _ServiceInstruments:
    """The service-level metric bundle (names are API, like
    :class:`~repro.observability.instruments.PipelineInstruments`)."""

    def __init__(self, registry: MetricsRegistry):
        self.requests = registry.counter(
            "isobar_service_requests_total",
            "Requests answered, by route and status code.",
        )
        self.request_seconds = registry.histogram(
            "isobar_service_request_seconds",
            "Wall-clock seconds from request read to response flush.",
        )
        self.shed = registry.counter(
            "isobar_service_shed_total",
            "Requests shed by admission control (429).",
        )
        self.deadline_expired = registry.counter(
            "isobar_service_deadline_expired_total",
            "Requests that exhausted their deadline (504).",
        )
        self.degraded = registry.counter(
            "isobar_service_degraded_total",
            "Responses served from a degraded compression run.",
        )
        self.inflight = registry.gauge(
            "isobar_service_inflight",
            "Compute requests currently holding an executor slot.",
        )
        self.queue_depth = registry.gauge(
            "isobar_service_queue_depth",
            "Compute requests waiting for an executor slot.",
        )
        self.aborted = registry.counter(
            "isobar_service_aborted_responses_total",
            "Responses cut short mid-body (peer loss, mid-stream "
            "failure, or injected truncation).",
        )


class _AdmissionGate:
    """Bounded admission: ``max_inflight`` slots, ``max_queue`` waiters.

    Arrivals beyond both bounds shed immediately (429); queued waiters
    are bounded by the caller's deadline (504 on expiry), so the queue
    can never hold abandoned work.
    """

    def __init__(self, max_inflight: int, max_queue: int):
        self._slots = asyncio.Semaphore(max_inflight)
        self._max_queue = max_queue
        self.waiting = 0
        self.inflight = 0

    async def acquire(self, timeout_seconds: float) -> None:
        if self._slots.locked() and self.waiting >= self._max_queue:
            raise QueueFullError(
                f"admission queue is full ({self.waiting} waiting on "
                f"{self.inflight} in flight)"
            )
        self.waiting += 1
        try:
            await asyncio.wait_for(self._slots.acquire(), timeout_seconds)
        except asyncio.TimeoutError as exc:
            raise ChunkTimeoutError(
                "request deadline expired while queued for admission"
            ) from exc
        finally:
            self.waiting -= 1
        self.inflight += 1

    def release(self) -> None:
        self.inflight -= 1
        self._slots.release()


class _ChunkFeed:
    """Bounded thread→async bridge for streamed decompression.

    The decoder thread blocks in :meth:`put` once ``depth`` decoded
    chunks are waiting, and the writer coroutine releases one credit
    only after the piece is drained to the socket — slow readers
    therefore stall the decode, bounding memory exactly like
    ``stream_compress(readahead_chunks=...)`` bounds the compress side.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, depth: int):
        self._loop = loop
        self._credits = threading.Semaphore(depth)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._abandoned = threading.Event()

    # -- producer side (executor thread) --

    def put(self, item: bytes) -> bool:
        """Enqueue one decoded chunk; False once the consumer left."""
        while not self._abandoned.is_set():
            if self._credits.acquire(timeout=0.1):
                self._send(("chunk", item))
                return True
        return False

    def finish(self) -> None:
        self._send(("end", None))

    def fail(self, exc: BaseException) -> None:
        self._send(("err", exc))

    def _send(self, item: tuple) -> None:
        try:
            self._loop.call_soon_threadsafe(self._queue.put_nowait, item)
        except RuntimeError:
            # Loop already closed (service torn down mid-stream); the
            # abandoned flag stops the producer on its next put.
            self._abandoned.set()

    # -- consumer side (event loop) --

    async def get(self) -> tuple:
        return await self._queue.get()

    def release(self) -> None:
        self._credits.release()

    def abandon(self) -> None:
        """Tell the producer the consumer is gone."""
        self._abandoned.set()
        self._credits.release()


def _little_endian_body(arr: np.ndarray) -> bytes:
    """The raw little-endian byte stream of a decoded chunk."""
    out = np.ascontiguousarray(arr)
    if out.dtype.byteorder == ">":
        out = out.astype(out.dtype.newbyteorder("<"))
    return out.tobytes()


class IsobarService:
    """The asyncio HTTP compression service.

    Usage (async)::

        service = IsobarService(ServiceConfig(port=8080))
        await service.start()
        await service.serve_forever()      # returns after drain

    or from a thread via :class:`ServiceThread`.  The service always
    collects metrics (``GET /metrics`` serves them); pass a shared
    registry to aggregate across services.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        chaos: NetworkChaos | None = None,
    ):
        self._config = config or ServiceConfig()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._instruments = _ServiceInstruments(self._metrics)
        self._chaos = chaos
        self._gate = _AdmissionGate(
            self._config.max_inflight, self._config.max_queue
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self._config.max_inflight,
            thread_name_prefix="isobar-service",
        )
        # Observe endpoints (/healthz, /v1/stats) take snapshot locks;
        # they run on their own single thread so a health probe neither
        # blocks the event loop (rule ISO010) nor competes with compute
        # for admission slots.
        self._observe_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="isobar-observe"
        )
        self._compressors: OrderedDict[tuple, IsobarCompressor] = (
            OrderedDict()
        )
        self._planners: OrderedDict[tuple, SelectorStrategy] = OrderedDict()
        self._compressor_lock = threading.Lock()
        # (codec, linearization) -> count of selector candidate
        # failures observed across compress/plan decisions; surfaced
        # in /v1/stats.
        self._selector_failed: dict[str, int] = {}
        self._stall_probe: "LoopStallProbe | None" = None
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._started_at = time.monotonic()
        self._connections: set[asyncio.Task] = set()
        self._status_counts: dict[str, int] = {}
        self._route_counts: dict[str, int] = {}
        self._shed = 0
        self._degraded_responses = 0
        self._aborted_responses = 0

    # -- lifecycle --------------------------------------------------------

    @property
    def config(self) -> ServiceConfig:
        """The active service configuration."""
        return self._config

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry behind ``GET /metrics``."""
        return self._metrics

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None:
            raise ConfigurationError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether the service has begun its drain sequence."""
        return self._draining

    @property
    def stall_probe(self) -> "LoopStallProbe | None":
        """The event-loop stall probe, when the config enables one."""
        return self._stall_probe

    async def start(self) -> None:
        """Bind the listening socket and begin accepting connections."""
        if self._server is not None:
            raise ConfigurationError("service is already started")
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started_at = time.monotonic()
        if self._config.stall_probe_threshold_seconds is not None:
            # Lazy import keeps the service importable without pulling
            # the devtools package in on the hot path.
            from repro.devtools.sanitizer.loopwatch import LoopStallProbe

            self._stall_probe = LoopStallProbe(
                self._config.stall_probe_threshold_seconds,
                metrics=self._metrics,
            )
            self._stall_probe.attach(self._loop)
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self._config.host,
            port=self._config.port,
        )

    async def serve_forever(
        self, *, install_signal_handlers: bool = True
    ) -> None:
        """Serve until a stop is requested, then drain and return.

        With ``install_signal_handlers=True`` SIGTERM and SIGINT
        trigger the drain (only possible on the main thread; the flag
        is ignored where the loop does not support it).
        """
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._stop_event.set)
                except (NotImplementedError, RuntimeError):
                    break
        await self._stop_event.wait()
        await self.drain()

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to drain (thread-safe)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, cancel stragglers.

        New requests arriving on kept-alive connections during the
        drain are answered 503; requests already admitted get up to
        ``drain_seconds`` to complete.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self._config.drain_seconds
        while self._gate.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._observe_executor.shutdown(wait=False, cancel_futures=True)
        if self._stall_probe is not None:
            self._stall_probe.detach()

    # -- shared state -----------------------------------------------------

    def _compressor_for(self, overrides: dict) -> IsobarCompressor:
        """The cached compressor serving one parameter combination.

        Compressors are shared across requests and executor threads
        (chunk workspaces are thread-local) for the
        ``_CACHED_OVERRIDE_SETS`` most recently used combinations.
        """

        def build(config: IsobarConfig) -> IsobarCompressor:
            return IsobarCompressor(
                config,
                self._config.pipeline_workers,
                max_inflight=self._config.pipeline_max_inflight,
                metrics=self._metrics,
            )

        return self._cached(self._compressors, overrides, build)

    def _planner_for(self, overrides: dict) -> SelectorStrategy:
        """The cached selector strategy serving ``/v1/plan`` requests.

        Cached per parameter combination like the compressors, so a
        stateful custom strategy keeps its state across requests.
        """
        return self._cached(
            self._planners, overrides,
            lambda config: resolve_selector(config, metrics=self._metrics),
        )

    def _cached(
        self,
        cache: OrderedDict[tuple, _T],
        overrides: dict,
        build: Callable[[IsobarConfig], _T],
    ) -> _T:
        """``cache``'s entry for ``overrides`` (built on a miss), kept
        as an LRU of ``_CACHED_OVERRIDE_SETS`` entries."""
        key = tuple(sorted(overrides.items()))
        with self._compressor_lock:
            value = cache.get(key)
            if value is None:
                config = (
                    self._config.isobar.replace(**overrides)
                    if overrides else self._config.isobar
                )
                value = cache[key] = build(config)
                if len(cache) > _CACHED_OVERRIDE_SETS:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
            return value

    def _note_failed_candidates(self, decision) -> None:
        """Aggregate a decision's failed candidates for ``/v1/stats``."""
        if not decision.failed_candidates:
            return
        with self._compressor_lock:
            for fail in decision.failed_candidates:
                key = f"{fail.codec_name}+{fail.linearization.value}"
                self._selector_failed[key] = (
                    self._selector_failed.get(key, 0) + 1
                )

    def stats(self) -> dict:
        """The ``/v1/stats`` document."""
        return {
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "draining": self._draining,
            "inflight": self._gate.inflight,
            "queue_depth": self._gate.waiting,
            "max_inflight": self._config.max_inflight,
            "max_queue": self._config.max_queue,
            "pipeline_workers": self._config.pipeline_workers,
            "requests_by_status": dict(sorted(self._status_counts.items())),
            "requests_by_route": dict(sorted(self._route_counts.items())),
            "shed": self._shed,
            "degraded_responses": self._degraded_responses,
            "aborted_responses": self._aborted_responses,
            "selector": self._selector_stats(),
        }

    def _selector_stats(self) -> dict:
        """The ``selector`` section of the stats document."""
        with self._compressor_lock:
            failed = dict(sorted(self._selector_failed.items()))
        return {"failed_candidates": failed}

    # -- connection handling ----------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (ConnectionError, TimeoutError):
            self._record_abort()
        except asyncio.CancelledError:
            # Drain-deadline cancellation: close quietly, do not
            # propagate out of the protocol callback.
            self._record_abort()
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, TimeoutError):
                pass  # peer already gone during close

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(
                    reader,
                    max_body_bytes=self._config.max_body_bytes,
                    header_timeout=self._config.header_timeout_seconds,
                    body_timeout=self._config.body_timeout_seconds,
                )
            except ServiceProtocolError as exc:
                status = status_for_exception(exc)
                self._account("protocol", status, 0.0)
                await write_response(
                    writer, status, error_body(exc, status),
                    keep_alive=False,
                )
                return
            if request is None:
                return
            keep_alive = await self._dispatch(request, writer)
            if not keep_alive:
                return

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        started = time.monotonic()
        route = f"{request.method} {request.path}"
        plan = (
            self._chaos.plan_for(request.body)
            if self._chaos is not None else ChaosPlan()
        )
        if plan.delay_seconds:
            await asyncio.sleep(plan.delay_seconds)
        step = (
            self._stall_probe.step(route)
            if self._stall_probe is not None else nullcontext()
        )
        try:
            with step:
                handler, needs_admission = self._resolve(request)
                if needs_admission:
                    status, keep_alive = await self._run_admitted(
                        handler, request, writer, plan
                    )
                else:
                    status, keep_alive = await handler(request, writer, plan)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # the single service-wide error funnel
            status = status_for_exception(exc)
            keep_alive = request.keep_alive
            self._note_failure(exc, status)
            headers: list[tuple[str, str]] = []
            retry_after = retry_after_for_exception(exc)
            if retry_after is not None:
                headers.append(("Retry-After", _format_retry_after(retry_after)))
            try:
                await write_response(
                    writer, status, error_body(exc, status),
                    headers=headers, keep_alive=keep_alive,
                )
            except (ConnectionError, TimeoutError):
                self._record_abort()
                keep_alive = False
        self._account(route, status, time.monotonic() - started)
        return keep_alive and request.keep_alive

    def _resolve(
        self, request: Request
    ) -> tuple[Callable[..., Awaitable[tuple[int, bool]]], bool]:
        """Pick the handler for a request (and whether it is gated)."""
        path = request.path
        compute = {
            "/v1/compress": self._handle_compress,
            "/v1/decompress": self._handle_decompress,
            "/v1/salvage": self._handle_salvage,
            "/v1/plan": self._handle_plan,
        }
        observe = {
            "/healthz": self._handle_healthz,
            "/metrics": self._handle_metrics,
            "/v1/stats": self._handle_stats,
        }
        if path in compute:
            if request.method != "POST":
                raise ServiceProtocolError(
                    f"{path} requires POST", status=405
                )
            if self._draining:
                raise DrainingError(
                    "service is draining",
                    retry_after=self._config.retry_after_seconds,
                )
            return compute[path], True
        if path in observe:
            if request.method not in ("GET", "HEAD"):
                raise ServiceProtocolError(
                    f"{path} requires GET", status=405
                )
            return observe[path], False
        raise ServiceProtocolError(f"unknown route {path!r}", status=404)

    async def _run_admitted(
        self,
        handler: Callable[..., Awaitable[tuple[int, bool]]],
        request: Request,
        writer: asyncio.StreamWriter,
        plan: ChaosPlan,
    ) -> tuple[int, bool]:
        """Run a compute handler inside the admission gate + deadline."""
        deadline_seconds = self._deadline_for(request)
        admit_start = time.monotonic()
        self._instruments.queue_depth.set(self._gate.waiting + 1)
        await self._gate.acquire(deadline_seconds)
        self._instruments.queue_depth.set(self._gate.waiting)
        self._instruments.inflight.set(self._gate.inflight)
        try:
            remaining = deadline_seconds - (time.monotonic() - admit_start)
            if remaining <= 0:
                raise ChunkTimeoutError(
                    "request deadline expired before compute started"
                )
            return await handler(
                request, writer, plan, deadline_seconds=remaining
            )
        finally:
            self._gate.release()
            self._instruments.inflight.set(self._gate.inflight)

    def _deadline_for(self, request: Request) -> float:
        """The request's wall-clock budget in seconds."""
        raw = request.header(
            "x-isobar-deadline-ms", request.param("deadline_ms")
        )
        if raw is None:
            return self._config.default_deadline_seconds
        try:
            millis = float(raw)
        except ValueError as exc:
            raise InvalidInputError(
                f"unreadable deadline {raw!r} (milliseconds expected)"
            ) from exc
        if millis <= 0:
            raise InvalidInputError(
                f"deadline must be positive, got {millis}"
            )
        return min(millis / 1000.0, self._config.max_deadline_seconds)

    async def _run_with_deadline(self, fn: Callable[[], object],
                                 deadline_seconds: float) -> object:
        """Run blocking work on the executor under the request deadline.

        The deadline is enforced by
        :func:`~repro.core.resilience.call_with_deadline` — on expiry a
        :class:`~repro.core.exceptions.ChunkTimeoutError` (→ 504)
        propagates and the stuck thread is abandoned, so the event loop
        never hangs on a wedged solver.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor,
            lambda: call_with_deadline(
                lambda _unused: fn(), b"", deadline_seconds
            ),
        )

    async def _observe(self, fn: Callable[[], object]) -> object:
        """Run a lock-taking snapshot off the event loop.

        ``/v1/stats`` reads state guarded by ``_compressor_lock``; taking
        a thread lock on the loop would stall every connection while a
        compute thread holds it (rule ISO010), so the snapshot runs on
        the dedicated observe thread instead.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._observe_executor, fn)

    # -- accounting -------------------------------------------------------

    def _account(self, route: str, status: int, seconds: float) -> None:
        key = str(status)
        self._status_counts[key] = self._status_counts.get(key, 0) + 1
        self._route_counts[route] = self._route_counts.get(route, 0) + 1
        self._instruments.requests.inc(1, route=route, status=key)
        self._instruments.request_seconds.observe(seconds, route=route)

    def _note_failure(self, exc: BaseException, status: int) -> None:
        if isinstance(exc, QueueFullError):
            self._shed += 1
            self._instruments.shed.inc()
        elif status == 504:
            self._instruments.deadline_expired.inc()

    def _record_abort(self) -> None:
        self._aborted_responses += 1
        self._instruments.aborted.inc()

    # -- observability handlers -------------------------------------------

    async def _handle_healthz(
        self, request: Request, writer: asyncio.StreamWriter, plan: ChaosPlan
    ) -> tuple[int, bool]:
        status = 503 if self._draining else 200
        payload = {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "inflight": self._gate.inflight,
        }
        await write_response(
            writer, status, json.dumps(payload).encode("utf-8"),
            keep_alive=request.keep_alive,
        )
        return status, request.keep_alive

    async def _handle_metrics(
        self, request: Request, writer: asyncio.StreamWriter, plan: ChaosPlan
    ) -> tuple[int, bool]:
        if request.param("format") == "json":
            body = to_json(self._metrics).encode("utf-8")
            content_type = "application/json"
        else:
            body = to_prometheus_text(self._metrics).encode("utf-8")
            content_type = "text/plain; version=0.0.4"
        await write_response(
            writer, 200, body,
            content_type=content_type, keep_alive=request.keep_alive,
        )
        return 200, request.keep_alive

    async def _handle_stats(
        self, request: Request, writer: asyncio.StreamWriter, plan: ChaosPlan
    ) -> tuple[int, bool]:
        body = await self._observe(
            lambda: json.dumps(self.stats()).encode("utf-8")
        )
        await write_response(
            writer, 200, body, keep_alive=request.keep_alive
        )
        return 200, request.keep_alive

    # -- compute handlers -------------------------------------------------

    def _isobar_overrides(self, request: Request) -> dict:
        """Per-request compression overrides from query parameters."""
        overrides: dict[str, object] = {}
        codec = request.param("codec")
        if codec:
            overrides["codec"] = codec
        preference = request.param("preference")
        if preference:
            overrides["preference"] = Preference.parse(preference)
        linearization = request.param("linearization")
        if linearization:
            overrides["linearization"] = Linearization.parse(linearization)
        selector = request.param("selector")
        if selector:
            overrides["selector"] = selector.lower()
        chunk_elements = request.param("chunk_elements")
        if chunk_elements:
            try:
                overrides["chunk_elements"] = int(chunk_elements)
            except ValueError as exc:
                raise InvalidInputError(
                    f"unreadable chunk_elements {chunk_elements!r}"
                ) from exc
        tau = request.param("tau")
        if tau:
            try:
                overrides["tau"] = float(tau)
            except ValueError as exc:
                raise InvalidInputError(f"unreadable tau {tau!r}") from exc
        if request.param("strict") in ("1", "true", "yes"):
            base = self._config.isobar.resilience or ResiliencePolicy()
            overrides["resilience"] = base.replace(strict=True)
        return overrides

    def _dtype_for(self, request: Request) -> np.dtype:
        name = request.header("x-isobar-dtype", request.param("dtype"))
        if not name:
            raise InvalidInputError(
                "missing dtype: set the X-Isobar-Dtype header "
                "(e.g. float64) or the dtype query parameter"
            )
        try:
            dtype = np.dtype(name)
        except TypeError as exc:
            raise InvalidInputError(f"unknown dtype {name!r}") from exc
        element_width(dtype)  # restrict to fixed-width kinds
        return dtype

    async def _handle_compress(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        plan: ChaosPlan,
        *,
        deadline_seconds: float,
    ) -> tuple[int, bool]:
        dtype = self._dtype_for(request)
        if not request.body:
            raise InvalidInputError("empty request body: nothing to compress")
        if len(request.body) % dtype.itemsize:
            raise InvalidInputError(
                f"body of {len(request.body)} bytes is not a multiple of "
                f"the {dtype.itemsize}-byte element width"
            )
        overrides = self._isobar_overrides(request)

        def _compress():
            # Resolving the cached compressor takes _compressor_lock;
            # the whole lock-then-compute sequence runs on the deadline
            # executor so the event loop never waits on it (ISO010).
            compressor = self._compressor_for(overrides)
            values = np.frombuffer(request.body, dtype=dtype)
            detailed = compressor.compress_detailed(values)
            self._note_failed_candidates(detailed.decision)
            return detailed, values.size

        result, n_elements = await self._run_with_deadline(
            _compress, deadline_seconds
        )
        headers = [
            ("X-Isobar-Dtype", str(dtype)),
            ("X-Isobar-Elements", str(n_elements)),
            ("X-Isobar-Codec", result.decision.codec_name),
            ("X-Isobar-Ratio", f"{result.ratio:.4f}"),
        ]
        if result.degradation.degraded_chunks:
            self._degraded_responses += 1
            self._instruments.degraded.inc()
            headers.append(
                ("X-Isobar-Degraded", str(result.degradation.degraded_chunks))
            )
            headers.append(
                ("X-Isobar-Degradation",
                 json.dumps(result.degradation.causes()))
            )
        return await self._stream_payload(
            request, writer, 200, result.payload,
            headers=headers, plan=plan,
        )

    async def _handle_plan(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        plan: ChaosPlan,
        *,
        deadline_seconds: float,
    ) -> tuple[int, bool]:
        """Dry-run the selector: the decision document, no container."""
        dtype = self._dtype_for(request)
        if not request.body:
            raise InvalidInputError("empty request body: nothing to plan")
        if len(request.body) % dtype.itemsize:
            raise InvalidInputError(
                f"body of {len(request.body)} bytes is not a multiple of "
                f"the {dtype.itemsize}-byte element width"
            )
        overrides = self._isobar_overrides(request)

        def _plan():
            # Same discipline as _handle_compress: the planner cache
            # lock and the selector probe both stay off the loop.
            planner = self._planner_for(overrides)
            values = np.frombuffer(request.body, dtype=dtype)
            chosen = planner.select(values)
            self._note_failed_candidates(chosen)
            return chosen

        decision = await self._run_with_deadline(_plan, deadline_seconds)
        body = json.dumps(decision.to_dict()).encode("utf-8")
        headers = [
            ("Content-Type", "application/json"),
            ("X-Isobar-Codec", decision.codec_name),
            ("X-Isobar-Origin", decision.origin),
        ]
        return await self._stream_payload(
            request, writer, 200, body, headers=headers, plan=plan,
        )

    async def _handle_decompress(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        plan: ChaosPlan,
        *,
        deadline_seconds: float,
    ) -> tuple[int, bool]:
        errors = normalize_errors(request.param("errors", "raise"))
        if not request.body:
            raise InvalidInputError("empty request body: no container")
        deadline_at = time.monotonic() + deadline_seconds

        def _index() -> tuple[ContainerFile, bytes]:
            # Each chunk is read once, so nothing is memoised: the
            # readahead feed is the only buffer.
            reader_obj = ContainerFile(
                request.body, errors=errors, cache_chunks=0
            )
            first = (
                _little_endian_body(reader_obj.read_chunk(0))
                if reader_obj.n_chunks else b""
            )
            return reader_obj, first

        # Index the container and decode the lead chunk *before* the
        # status line goes out, so format errors and codec failures
        # still map to clean status codes (422/503/...).
        reader_obj, first_piece = await self._run_with_deadline(
            _index, deadline_seconds
        )
        header = reader_obj.header
        headers = [
            ("X-Isobar-Dtype", str(header.dtype)),
            ("X-Isobar-Elements", str(header.n_elements)),
            ("X-Isobar-Chunks", str(header.n_chunks)),
        ]

        loop = asyncio.get_running_loop()
        feed = _ChunkFeed(loop, self._config.readahead_chunks)

        def _produce() -> None:
            try:
                for index in range(1, reader_obj.n_chunks):
                    if time.monotonic() > deadline_at:
                        raise ChunkTimeoutError(
                            "request deadline expired mid-stream"
                        )
                    piece = _little_endian_body(reader_obj.read_chunk(index))
                    if not feed.put(piece):
                        return
                feed.finish()
            except BaseException as exc:  # relayed to the writer coroutine
                feed.fail(exc)

        producer = loop.run_in_executor(self._executor, _produce)
        try:
            return await self._stream_feed(
                request, writer, 200, first_piece, feed,
                headers=headers, plan=plan,
            )
        finally:
            feed.abandon()
            await asyncio.wait_for(producer, None)

    async def _handle_salvage(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        plan: ChaosPlan,
        *,
        deadline_seconds: float,
    ) -> tuple[int, bool]:
        policy = request.param("policy", "skip")
        to_eof = request.param("unclosed") in ("1", "true", "yes")
        if not request.body:
            raise InvalidInputError("empty request body: no container")
        result = await self._run_with_deadline(
            lambda: salvage_decompress(
                request.body, policy=policy, to_eof=to_eof
            ),
            deadline_seconds,
        )
        report = result.report
        status = 200 if report.complete else 206
        headers = [
            ("X-Isobar-Dtype", str(report.header.dtype)),
            ("X-Isobar-Elements", str(int(result.values.size))),
            ("X-Isobar-Salvage-Recovered-Chunks",
             str(report.recovered_chunks)),
            ("X-Isobar-Salvage-Lost-Chunks", str(report.lost_chunks)),
            ("X-Isobar-Salvage-Recovered-Elements",
             str(report.recovered_elements)),
            ("X-Isobar-Salvage-Lost-Elements", str(report.lost_elements)),
        ]
        return await self._stream_payload(
            request, writer, status,
            _little_endian_body(np.asarray(result.values).reshape(-1)),
            headers=headers, plan=plan,
        )

    # -- body streaming ---------------------------------------------------

    async def _stream_payload(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        *,
        headers: Iterable[tuple[str, str]],
        plan: ChaosPlan,
    ) -> tuple[int, bool]:
        """Stream an in-memory payload as a chunked response."""
        pieces = list(
            iter_fixed_pieces(payload, self._config.response_piece_bytes)
        )
        return await self._stream_pieces(
            request, writer, status, pieces, headers=headers, plan=plan
        )

    async def _stream_pieces(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        status: int,
        pieces: list,
        *,
        headers: Iterable[tuple[str, str]],
        plan: ChaosPlan,
    ) -> tuple[int, bool]:
        try:
            await write_chunked_preamble(
                writer, status, headers=headers,
                keep_alive=request.keep_alive,
            )
            stall_index = len(pieces) // 2
            # Injected truncation: write only the first half of the
            # pieces and never the terminating chunk — the client must
            # detect the incomplete chunked body.
            cut = len(pieces) // 2 if plan.truncate else None
            for index, piece in enumerate(pieces):
                if cut is not None and index >= cut:
                    break
                if plan.stall_seconds and index == stall_index:
                    await asyncio.sleep(plan.stall_seconds)
                await write_chunk(writer, piece)
            if cut is not None:
                self._record_abort()
                writer.transport.abort()
                return status, False
            await write_chunked_terminator(writer)
        except (ConnectionError, TimeoutError):
            self._record_abort()
            return status, False
        return status, request.keep_alive

    async def _stream_feed(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        status: int,
        first_piece: bytes,
        feed: _ChunkFeed,
        *,
        headers: Iterable[tuple[str, str]],
        plan: ChaosPlan,
    ) -> tuple[int, bool]:
        """Stream a decode feed as a chunked response (bounded buffer).

        A failure after the preamble cannot change the status line any
        more; the connection is aborted so the client sees a truncated
        body instead of silently short data.
        """
        try:
            await write_chunked_preamble(
                writer, status, headers=headers,
                keep_alive=request.keep_alive,
            )
            if plan.truncate:
                await write_chunk(writer, first_piece)
                self._record_abort()
                writer.transport.abort()
                return status, False
            await write_chunk(writer, first_piece)
            index = 0
            while True:
                kind, value = await feed.get()
                if kind == "end":
                    break
                if kind == "err":
                    self._record_abort()
                    writer.transport.abort()
                    return status, False
                if plan.stall_seconds and index == 0:
                    await asyncio.sleep(plan.stall_seconds)
                await write_chunk(writer, value)
                feed.release()
                index += 1
            await write_chunked_terminator(writer)
        except (ConnectionError, TimeoutError):
            self._record_abort()
            return status, False
        return status, request.keep_alive


def _format_retry_after(seconds: float) -> str:
    """Retry-After is integral seconds on the wire (min 1)."""
    return str(max(1, int(round(seconds))))


class ServiceThread:
    """Run an :class:`IsobarService` on a dedicated thread.

    The test suite and the load harness use this to stand a real
    server up inside one process::

        handle = ServiceThread(ServiceConfig())
        host, port = handle.start()
        ...
        handle.stop()          # graceful drain

    ``stop()`` drains exactly like SIGTERM would.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        chaos: NetworkChaos | None = None,
    ):
        self.service = IsobarService(config, metrics=metrics, chaos=chaos)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._port: int | None = None

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        """Start serving; returns ``(host, port)`` once bound."""
        if self._thread is not None:
            raise ConfigurationError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="isobar-service-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ConfigurationError("service failed to start in time")
        if self._failure is not None:
            raise ConfigurationError(
                f"service failed to start: {self._failure}"
            ) from self._failure
        assert self._port is not None
        return self.service.config.host, self._port

    def _run(self) -> None:
        async def _main() -> None:
            try:
                await self.service.start()
                self._port = self.service.port
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.service.serve_forever(install_signal_handlers=False)

        try:
            asyncio.run(_main())
        except BaseException as exc:  # surfaced via start()/stop()
            if self._failure is None:
                self._failure = exc

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the service and join its loop thread."""
        if self._thread is None:
            return
        self.service.request_stop()
        self._thread.join(timeout)
        self._thread = None
