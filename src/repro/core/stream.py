"""Streaming file-to-file compression (constant-memory in-situ path).

Extreme-scale arrays do not fit in memory (Section II-D); the streaming
writer consumes an element iterator — e.g.
:func:`repro.datasets.loaders.stream_raw_chunks` — and emits a standard
ISOBAR container incrementally, holding only one chunk at a time.  The
reader streams chunks back out the same way.

Because the container's global header records the chunk count, which is
unknown until the stream ends, the writer reserves the header and
patches it on ``close()`` — the emitted file is byte-compatible with
the in-memory pipeline's output for the same configuration and
decision.

Crash safety: :meth:`StreamingWriter.open` (and
:func:`stream_compress`, which uses it) writes to a temporary file in
the destination directory and atomically renames it into place on
``close()``, so the destination path only ever holds complete
containers.  A writer that dies before ``close()`` leaves a temp file
whose header still carries the zero-count placeholder; such a stream is
recoverable chunk-by-chunk via
``stream_decompress(path, tolerate_unclosed=True)``.
"""

from __future__ import annotations

import os
import time as _time
import zlib as _zlib
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from repro.analysis.bytefreq import byte_view, element_width
from repro.codecs.base import get_codec
from repro.core.analyzer import analyze_matrix
from repro.core.exceptions import (
    ContainerFormatError,
    InvalidInputError,
    IsobarError,
    SelectorError,
    TruncatedContainerError,
)
from repro.core.metadata import (
    ChunkIndexRecord,
    ChunkMetadata,
    ContainerFooter,
    ContainerHeader,
    locate_footer,
)
from repro.core.pipeline_engine import bounded_relay
from repro.core.pipeline import (
    decode_chunk_payload,
    encode_chunk_payload,
)
from repro.core.preferences import (
    IsobarConfig,
    Linearization,
    salvage_policy_for,
)
from repro.core.workspace import ChunkWorkspace
from repro.core.resilience import (
    BreakerBoard,
    DegradationEvent,
    DegradationReport,
)
from repro.core.selector import SelectorDecision, resolve_selector
from repro.observability.instruments import PipelineInstruments
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.observability.report import PipelineReport
from repro.observability.trace import NULL_TRACER, Tracer

__all__ = ["StreamingWriter", "stream_compress", "stream_decompress"]


class StreamingWriter:
    """Incrementally write an ISOBAR container to a binary file object.

    Usage::

        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, dtype=np.float64)
            for chunk in chunks:
                writer.write_chunk(chunk)
            writer.close()

    The first chunk drives the EUPA-selector decision (codec and
    linearization for the whole stream).  ``close()`` seeks back and
    patches the header with the final element/chunk counts, so the sink
    must be seekable.

    With ``collect_metrics=True`` (or a shared ``metrics`` registry)
    every ``write_chunk`` records the analyze/partition/solve stages
    and chunk outcomes, and ``close()`` publishes a
    :class:`~repro.observability.PipelineReport` as
    :attr:`last_report`; the report's wall time covers only the time
    spent inside the writer, not the caller's chunk production.
    """

    def __init__(
        self,
        sink: BinaryIO,
        dtype: np.dtype,
        config: IsobarConfig | None = None,
        *,
        collect_metrics: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        self._sink = sink
        self._dtype = np.dtype(dtype)
        element_width(self._dtype)  # validate
        self._config = config or IsobarConfig()
        if metrics is not None:
            self._metrics = metrics
        elif collect_metrics:
            self._metrics = MetricsRegistry()
        else:
            self._metrics = NULL_REGISTRY
        self._instruments = PipelineInstruments(self._metrics)
        self._stream_tracer = (
            Tracer(self._metrics) if self._metrics.enabled else NULL_TRACER
        )
        self._wall_seconds = 0.0
        self._improvable_chunks = 0
        self._raw_bytes_in = 0
        self._solver_bytes = 0
        self._noise_bytes = 0
        self._last_report: PipelineReport | None = None
        # The first chunk drives one decision via the configured
        # strategy (config.selector; "eupa" default) — see
        # repro.core.selector.resolve_selector.
        self._selector = resolve_selector(
            self._config,
            metrics=self._metrics if self._metrics.enabled else None,
        )
        self._breakers = BreakerBoard(
            self._config.resilience,
            on_state_change=lambda name, state: (
                self._instruments.breaker_state.set(
                    state.gauge_value, codec=name
                )
            ),
        )
        self._degradation_events: list[DegradationEvent] = []
        self._retries = 0
        # One writer, one thread: the partition scratch is reused for
        # every chunk of the stream.
        self._workspace = ChunkWorkspace()
        self._codec = None
        self._linearization: Linearization | None = None
        self._n_elements = 0
        self._n_chunks = 0
        self._index_entries: list[ChunkIndexRecord] = []
        self._header_offset = sink.tell()
        self._closed = False
        self._header_size: int | None = None
        self._bytes_written = 0
        # Set by .open(): the writer owns its file handle and (when
        # atomic) publishes the temp file to _final_path on close().
        self._owned = False
        self._temp_path: str | None = None
        self._final_path: str | None = None
        # The header is deferred until the first chunk: the selector's
        # codec choice determines the header length, so writing a
        # placeholder earlier would risk a size mismatch on close.

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        dtype: np.dtype,
        config: IsobarConfig | None = None,
        *,
        atomic: bool = True,
        collect_metrics: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> "StreamingWriter":
        """Open a writer that manages its own file at ``path``.

        With ``atomic=True`` (the default) chunks are written to a
        temporary file next to the destination and ``close()`` fsyncs
        and atomically renames it into place — ``path`` never holds a
        half-written container, even if the process crashes mid-stream.
        A failed or aborted write leaves ``path`` untouched (any prior
        version survives).  ``abort()`` discards the temp file.
        """
        final_path = os.fspath(path)
        if atomic:
            temp_path = f"{final_path}.tmp.{os.getpid()}"
            sink = open(temp_path, "wb")
        else:
            temp_path = None
            sink = open(final_path, "wb")
        try:
            writer = cls(
                sink, dtype, config,
                collect_metrics=collect_metrics, metrics=metrics,
            )
        except BaseException:
            sink.close()
            if temp_path is not None and os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        writer._owned = True
        writer._temp_path = temp_path
        writer._final_path = final_path
        return writer

    @property
    def bytes_written(self) -> int:
        """Container bytes emitted so far (header + chunk blobs, plus
        the index footer once ``close()`` has appended it)."""
        return self._bytes_written

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The registry this writer records into (``None`` if disabled)."""
        return self._metrics if self._metrics.enabled else None

    @property
    def last_report(self) -> PipelineReport | None:
        """The stream's :class:`~repro.observability.PipelineReport`,
        published by ``close()`` when metrics are enabled."""
        return self._last_report

    @property
    def degradation(self) -> DegradationReport:
        """Fault-containment record of the chunks written so far."""
        return DegradationReport(
            events=tuple(self._degradation_events), retries=self._retries
        )

    def _build_header(self) -> ContainerHeader:
        return ContainerHeader(
            dtype=self._dtype,
            n_elements=self._n_elements,
            shape=(self._n_elements,),
            codec_name=(
                self._codec.name
                if self._codec is not None
                else (self._config.codec or self._config.candidate_codecs[0])
            ),
            linearization=self._linearization or Linearization.ROW,
            preference=self._config.preference,
            tau=self._config.tau,
            chunk_elements=self._config.chunk_elements,
            n_chunks=self._n_chunks,
        )

    def _ensure_header(self) -> None:
        """Write the placeholder header once the codec is known."""
        if self._header_size is not None:
            return
        encoded = self._build_header().encode()
        self._header_size = len(encoded)
        self._sink.write(encoded)
        self._bytes_written += len(encoded)

    def write_chunk(self, chunk: np.ndarray) -> int:
        """Compress and append one chunk; returns bytes written."""
        if self._closed:
            raise InvalidInputError("writer already closed")
        arr = np.asarray(chunk).reshape(-1)
        if arr.dtype != self._dtype:
            raise InvalidInputError(
                f"chunk dtype {arr.dtype} does not match stream dtype "
                f"{self._dtype}"
            )
        if arr.size == 0:
            return 0
        enabled = self._metrics.enabled
        tracer = self._stream_tracer
        wall_start = _time.perf_counter() if enabled else 0.0

        # Zero-copy on the hot path: little-endian contiguous chunks
        # are analyzed and hashed through a view of their own bytes.
        view = byte_view(arr)
        stage_start = wall_start
        analysis = analyze_matrix(view, tau=self._config.tau)
        if enabled:
            tracer.add(
                "analyze", _time.perf_counter() - stage_start,
                bytes_in=arr.nbytes,
            )
        trial = None
        if self._codec is None:
            stage_start = _time.perf_counter() if enabled else 0.0
            try:
                decision = self._selector.select(arr, analysis=analysis)
            except SelectorError:
                # Every candidate evaluation failed; under a resilience
                # policy the stream must still start — fall back to the
                # configured (or first-candidate) codec and let the
                # chunk-level containment degrade its chunks.
                if self._config.resilience is None:
                    raise
                decision = SelectorDecision(
                    codec_name=(
                        self._config.codec
                        or self._config.candidate_codecs[0]
                    ),
                    linearization=(
                        self._config.linearization or Linearization.ROW
                    ),
                    preference=self._config.preference,
                    improvable=analysis.improvable,
                    candidates=(),
                    sample_elements=0,
                )
            self._codec = get_codec(decision.codec_name)
            self._linearization = decision.linearization
            trial = decision.trial
            if enabled:
                tracer.add("select", _time.perf_counter() - stage_start)
        self._ensure_header()

        crc = _zlib.crc32(view)
        encoded = encode_chunk_payload(
            arr, view, analysis, self._linearization, self._codec,
            policy=self._config.resilience,
            breakers=self._breakers,
            chunk_index=self._n_chunks,
            tracer=tracer,
            workspace=self._workspace,
            trial=trial,
        )
        solver_in = encoded.solver_bytes
        incompressible = encoded.incompressible
        if encoded.degraded:
            # Degraded chunks flush exactly like healthy ones; the
            # stream just remembers what happened.
            self._degradation_events.append(
                DegradationEvent(
                    chunk_index=self._n_chunks,
                    cause=encoded.cause or "error",
                    attempts=encoded.attempts,
                    encoding=encoded.encoding,
                    error=encoded.error,
                )
            )
            if enabled:
                self._instruments.chunks_degraded.inc(
                    1, cause=encoded.cause or "error"
                )
        if encoded.retries:
            self._retries += encoded.retries
            if enabled:
                self._instruments.chunk_retries.inc(encoded.retries)
        meta = ChunkMetadata(
            n_elements=arr.size,
            mode=encoded.mode,
            mask=encoded.mask,
            compressed_size=len(encoded.compressed),
            incompressible_size=len(incompressible),
            raw_crc32=crc,
        )
        # join() materialises the workspace-aliased incompressible view
        # before the workspace is reused for the next chunk.
        meta_bytes = meta.encode()
        blob = b"".join((meta_bytes, encoded.compressed, incompressible))
        stage_start = _time.perf_counter() if enabled else 0.0
        # Offsets are container-relative (the sink may not start at 0).
        self._index_entries.append(
            ChunkIndexRecord(
                payload_offset=self._bytes_written + len(meta_bytes),
                compressed_size=len(encoded.compressed),
                incompressible_size=len(incompressible),
                n_elements=int(arr.size),
            )
        )
        self._sink.write(blob)
        self._bytes_written += len(blob)
        self._n_elements += int(arr.size)
        self._n_chunks += 1
        if enabled:
            tracer.add(
                "write", _time.perf_counter() - stage_start,
                bytes_out=len(blob),
            )
            self._improvable_chunks += 1 if analysis.improvable else 0
            self._raw_bytes_in += view.nbytes
            self._solver_bytes += solver_in
            self._noise_bytes += len(incompressible)
            self._instruments.record_chunk_outcome(
                improvable=analysis.improvable,
                solver_bytes=solver_in,
                raw_bytes=len(incompressible),
                stored_bytes=len(blob),
                seconds=_time.perf_counter() - wall_start,
            )
            self._wall_seconds += _time.perf_counter() - wall_start
        return len(blob)

    def close(self) -> None:
        """Patch the header with final counts, append the chunk-index
        footer, flush and (when opened via :meth:`open`) atomically
        publish the file."""
        if self._closed:
            return
        self._ensure_header()  # empty stream: header with zero chunks
        end = self._sink.tell()
        self._sink.seek(self._header_offset)
        encoded = self._build_header().encode()
        if len(encoded) != self._header_size:
            raise ContainerFormatError(
                f"final header is {len(encoded)} bytes, placeholder was "
                f"{self._header_size}"
            )
        self._sink.write(encoded)
        self._sink.seek(end)
        # The footer is the last thing written: a crash before this
        # point leaves a footer-less (but salvageable) chunk chain,
        # never a misleading index.
        footer = ContainerFooter(entries=tuple(self._index_entries)).encode()
        self._sink.write(footer)
        self._bytes_written += len(footer)
        self._sink.flush()
        if self._owned:
            os.fsync(self._sink.fileno())
            self._sink.close()
            if self._temp_path is not None:
                os.replace(self._temp_path, self._final_path)
        self._closed = True
        if self._metrics.enabled:
            self._instruments.runs.inc(1, operation="compress")
            self._instruments.input_bytes.inc(
                self._raw_bytes_in, operation="compress"
            )
            self._instruments.output_bytes.inc(
                self._bytes_written, operation="compress"
            )
            self._last_report = PipelineReport(
                operation="compress",
                codec_name=(
                    self._codec.name if self._codec is not None else None
                ),
                linearization=(
                    self._linearization.value
                    if self._linearization is not None else None
                ),
                n_chunks=self._n_chunks,
                improvable_chunks=self._improvable_chunks,
                undetermined_chunks=self._n_chunks - self._improvable_chunks,
                solver_bytes=self._solver_bytes,
                raw_bytes=self._noise_bytes,
                input_bytes=self._raw_bytes_in,
                output_bytes=self._bytes_written,
                stage_seconds=self._stream_tracer.stage_seconds(),
                wall_seconds=self._wall_seconds,
            )

    def abort(self) -> None:
        """Discard the stream: close the handle, delete any temp file.

        Only meaningful for writers created with :meth:`open`; for a
        caller-provided sink the handle is left untouched (the caller
        owns it).  Idempotent, and a no-op after ``close()``.
        """
        if self._closed:
            return
        self._closed = True
        if not self._owned:
            return
        try:
            self._sink.close()
        finally:
            if self._temp_path is not None and os.path.exists(self._temp_path):
                os.unlink(self._temp_path)

    def __enter__(self) -> "StreamingWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # An exception mid-stream must not publish a half-written
        # container: owned writers roll back, caller-owned sinks keep
        # the legacy close-on-exit behaviour.
        if exc_type is not None and self._owned:
            self.abort()
        else:
            self.close()


def _bounded_readahead(
    chunks: Iterable[np.ndarray], depth: int
) -> Iterator[np.ndarray]:
    """Produce ``chunks`` on a helper thread through a bounded queue.

    The queue depth is the backpressure bound: at most ``depth`` chunks
    are in flight between the producer and the writer, so a slow sink
    (e.g. one busy degrading faulty chunks) stalls production instead
    of buffering the stream in memory.  A producer exception is
    re-raised at the consuming end; abandoning the generator stops the
    producer promptly.

    (Thin wrapper over the pipelined engine's
    :func:`~repro.core.pipeline_engine.bounded_relay`, kept under the
    streaming name for callers and tests.)
    """
    return bounded_relay(chunks, depth, name="isobar-stream-readahead")


def stream_compress(
    chunks: Iterable[np.ndarray],
    sink_path: str | os.PathLike,
    dtype: np.dtype,
    config: IsobarConfig | None = None,
    *,
    atomic: bool = True,
    metrics: MetricsRegistry | None = None,
    readahead_chunks: int = 0,
) -> int:
    """Compress an iterable of chunks into a container file.

    Returns the total bytes written.  Memory use is bounded by one
    chunk regardless of the stream length.  With ``atomic=True`` (the
    default) the destination path is populated by a single atomic
    rename on success, so a crash or error mid-stream never leaves a
    half-written container at ``sink_path``.  ``metrics`` optionally
    aggregates the stream's stage timings and chunk outcomes into an
    existing registry.

    ``readahead_chunks > 0`` produces chunks on a helper thread through
    a queue of that depth, overlapping chunk production with
    compression while bounding the in-flight buffer — the queue is the
    backpressure valve when the writer slows down (e.g. while the
    resilience layer retries and degrades faulty chunks).  0 (the
    default) consumes the iterable inline, exactly as before.
    """
    if readahead_chunks < 0:
        raise InvalidInputError(
            f"readahead_chunks must be >= 0, got {readahead_chunks}"
        )
    writer = StreamingWriter.open(
        sink_path, dtype, config, atomic=atomic, metrics=metrics
    )
    source = (
        _bounded_readahead(chunks, readahead_chunks)
        if readahead_chunks > 0
        else chunks
    )
    try:
        for chunk in source:
            writer.write_chunk(chunk)
        writer.close()
    except BaseException:
        writer.abort()
        raise
    return writer.bytes_written


def _stream_salvage(
    path: str | os.PathLike,
    errors: str,
    *,
    to_eof: bool,
) -> Iterator[np.ndarray]:
    """Lenient / crash-recovery read path: scan chunks via the salvage
    scanner.  Loads the file into memory (recovery is not a hot path)."""
    from repro.core.salvage import scan_chunks

    with open(path, "rb") as source:
        data = source.read()
    header, offset = ContainerHeader.decode(data)
    codec = get_codec(header.codec_name)
    ordinal = 0
    for event in scan_chunks(data, header, offset, codec, to_eof=to_eof):
        if event.kind == "gap":
            # A gap that runs to EOF on an unclosed stream is the
            # crashed writer's unfinished final chunk — tolerating it
            # is the whole point; anything else honours the policy.
            if to_eof and event.end == len(data):
                return
            if errors == "raise":
                raise ContainerFormatError(
                    f"chunk {ordinal} at byte offset {event.start}: "
                    f"unreadable chunk record: {event.cause}"
                )
            ordinal += 1
            continue
        meta = event.meta
        compressed = data[event.payload_offset:event.payload_offset
                          + meta.compressed_size]
        incompressible = data[event.payload_offset
                              + meta.compressed_size:event.end]
        try:
            chunk = decode_chunk_payload(
                header, codec, meta, compressed, incompressible,
                chunk_index=ordinal, byte_offset=event.start,
            )
        except IsobarError:
            if errors == "raise":
                raise
            if errors == "zero_fill":
                yield np.zeros(int(meta.n_elements), dtype=header.dtype)
            ordinal += 1
            continue
        yield chunk
        ordinal += 1


def stream_decompress(
    path: str | os.PathLike,
    *,
    errors: str = "raise",
    tolerate_unclosed: bool = False,
    metrics: MetricsRegistry | None = None,
    readahead_chunks: int = 0,
) -> Iterator[np.ndarray]:
    """Yield the original chunks of a container file, one at a time.

    Verifies each chunk's CRC before yielding; memory use is bounded by
    one chunk on the strict path (``1 + readahead_chunks`` with
    readahead).

    Parameters
    ----------
    errors:
        ``"raise"`` (default) aborts on the first damaged chunk;
        ``"salvage-skip"`` drops damaged chunks; ``"salvage-zero"``
        substitutes zero-element chunks of the declared length (legacy
        spellings ``"skip"`` / ``"zero_fill"`` keep working).  The
        lenient modes read the whole file into memory to allow
        resynchronization.
    tolerate_unclosed:
        Recover a stream whose final header patch never happened (the
        writer crashed before ``close()``): when the header still
        carries the zero-chunk placeholder but payload bytes follow,
        chunks are discovered by forward scan instead of trusting the
        header count.  A partial final chunk (killed mid-write) is
        dropped; every fully written chunk is recovered.
    metrics:
        Optional registry; the strict path records per-chunk ``decode``
        stage timings and the decoded-chunk counter as the generator is
        consumed.
    readahead_chunks:
        ``> 0`` reads and decodes chunks on a helper thread through a
        bounded queue of that depth, overlapping file I/O + decode with
        whatever the consumer does per chunk.  0 (the default) decodes
        inline, exactly as before.  Applies to the strict path only;
        the salvage paths stay serial (recovery is not a hot path).
    """
    if readahead_chunks < 0:
        raise InvalidInputError(
            f"readahead_chunks must be >= 0, got {readahead_chunks}"
        )
    # Canonical policy vocabulary shared by every decoder; _stream_salvage
    # speaks the salvage decoder's internal names.
    salvage_policy = salvage_policy_for(errors)
    with open(path, "rb") as source:
        prefix = source.read(1 << 16)
        if not prefix and tolerate_unclosed:
            # Writer died before anything durable was written.
            return
        header, offset = ContainerHeader.decode(prefix)
        source.seek(0, os.SEEK_END)
        file_size = source.tell()
        tail = b""
        if header.n_chunks == 0 and file_size > offset:
            # Could be a crashed writer — or a closed *empty* stream,
            # which legitimately carries a zero-entry index footer
            # after its header.  Distinguish by looking for that footer.
            source.seek(max(offset, file_size - 4096))
            tail = source.read()

    unclosed = header.n_chunks == 0 and file_size > offset
    if unclosed:
        location = locate_footer(tail)
        if (
            location.ok
            and location.footer is not None
            and location.footer.n_chunks == 0
            and file_size - (len(tail) - location.start) == offset
        ):
            return  # closed empty stream: nothing to yield
    if unclosed and not tolerate_unclosed:
        raise ContainerFormatError(
            f"header declares 0 chunks but {file_size - offset} payload "
            "bytes follow: the stream was never closed (crashed "
            "writer?); pass tolerate_unclosed=True to recover it"
        )
    if unclosed or salvage_policy != "raise":
        yield from _stream_salvage(
            path, salvage_policy, to_eof=unclosed
        )
        return

    registry = NULL_REGISTRY if metrics is None else metrics
    instruments = PipelineInstruments(registry)
    tracer = Tracer(registry) if registry.enabled else NULL_TRACER

    def _decode_chunks() -> Iterator[np.ndarray]:
        with open(path, "rb") as source:
            source.seek(offset)
            codec = get_codec(header.codec_name)
            width = header.element_width
            for index in range(header.n_chunks):
                # Chunk metadata has bounded size; read generously then
                # seek to the payload start.
                meta_start = source.tell()
                meta_buf = source.read(64 + (width + 7) // 8)
                meta, consumed = ChunkMetadata.decode(meta_buf, 0, width)
                source.seek(meta_start + consumed)
                compressed = source.read(meta.compressed_size)
                incompressible = source.read(meta.incompressible_size)
                if (
                    len(compressed) != meta.compressed_size
                    or len(incompressible) != meta.incompressible_size
                ):
                    raise TruncatedContainerError(
                        f"chunk {index} at byte offset {meta_start}: "
                        "container truncated mid-chunk"
                    )
                decode_start = (
                    _time.perf_counter() if registry.enabled else 0.0
                )
                chunk = decode_chunk_payload(
                    header, codec, meta, compressed, incompressible,
                    chunk_index=index, byte_offset=meta_start,
                )
                if registry.enabled:
                    tracer.add(
                        "decode", _time.perf_counter() - decode_start,
                        bytes_in=len(compressed) + len(incompressible),
                        bytes_out=chunk.nbytes,
                    )
                    instruments.chunks_decoded.inc()
                yield chunk

    if readahead_chunks > 0:
        yield from bounded_relay(
            _decode_chunks(), readahead_chunks,
            name="isobar-stream-decode",
        )
    else:
        yield from _decode_chunks()
