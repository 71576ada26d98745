"""Streaming file-to-file compression (constant-memory in-situ path).

Extreme-scale arrays do not fit in memory (Section II-D); the streaming
writer consumes an element iterator — e.g.
:func:`repro.datasets.loaders.stream_raw_chunks` — and emits a standard
ISOBAR container incrementally, holding only one chunk at a time, on
the in-memory chunk engine's decide step and per-chunk encoder
(:class:`~repro.core.pipeline.IsobarCompressor`).  The reader streams
chunks back out the same way.

Because the container's global header records the chunk count, which is
unknown until the stream ends, the writer reserves the header and
patches it on ``close()`` — the emitted file is byte-identical to the
in-memory pipeline's output for the same configuration and decision.

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
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from repro.analysis.bytefreq import element_width
from repro.codecs.base import Codec, get_codec
from repro.core.exceptions import (
    ContainerFormatError,
    InvalidInputError,
    TruncatedContainerError,
)
from repro.core.metadata import ChunkMetadata, ContainerHeader, locate_footer
from repro.core.pipeline import (
    ChunkReport,
    IsobarCompressor,
    _degradation_from_reports,
    decode_chunk_payload,
    index_footer_from_reports,
)
from repro.core.pipeline_engine import bounded_relay
from repro.core.preferences import IsobarConfig, salvage_policy_for
from repro.core.resilience import DegradationReport
from repro.core.selector import SelectorDecision
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

    The writer runs on the in-memory chunk engine: the first chunk
    drives :class:`~repro.core.pipeline.IsobarCompressor`'s decide step
    (codec and linearization for the whole stream), and every chunk
    goes through its per-chunk encoder, inline — each chunk is in the
    sink when ``write_chunk`` returns.  The writer itself only owns
    the sink, the header patch, the index footer and the atomic
    ``open``/``abort``/``close``.  ``close()`` seeks back and patches
    the header with the final element/chunk counts, so the sink must
    be seekable.

    With ``collect_metrics=True`` (or a shared ``metrics`` registry)
    every ``write_chunk`` records the analyze/partition/solve/write
    stages and chunk outcomes, and ``close()`` publishes a
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
        self._engine = IsobarCompressor(
            config, collect_metrics=collect_metrics, metrics=metrics
        )
        # One tracer for the whole stream: the report sums its stages.
        self._tracer = self._engine._tracer()
        self._wall_seconds = 0.0
        # Set by the first chunk's decision.
        self._decision: SelectorDecision | None = None
        self._codec: Codec | None = None
        self._reports: list[ChunkReport] = []
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
        return self._engine.metrics

    @property
    def last_report(self) -> PipelineReport | None:
        """The stream's :class:`~repro.observability.PipelineReport`,
        published by ``close()`` when metrics are enabled."""
        return self._engine.last_report

    @property
    def degradation(self) -> DegradationReport:
        """Fault-containment record of the chunks written so far."""
        return _degradation_from_reports(self._reports)

    def _build_header(self) -> ContainerHeader:
        n_elements = sum(report.n_elements for report in self._reports)
        return self._engine._header(
            self._decision or self._engine._fallback_decision(False),
            self._dtype, (n_elements,), n_elements, len(self._reports),
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
        enabled = self._engine.collect_metrics
        wall_start = _time.perf_counter() if enabled else 0.0
        decision, codec = self._decision, self._codec
        analysis = trial = None
        if decision is None or codec is None:
            # Stream chunks need not be config.chunk_elements long, so
            # the decision analyzes this whole first chunk; the encoder
            # reuses that analysis (and the winning trial) for it.
            lead = self._engine._decide(arr, self._tracer, arr.size)
            decision = self._decision = lead.decision
            codec = self._codec = lead.codec
            analysis, trial = lead.analysis, lead.trial
            self._ensure_header()
        blob, report = self._engine._compress_chunk(
            len(self._reports), arr, decision, codec, self._tracer,
            analysis=analysis, trial=trial,
        )
        stage_start = _time.perf_counter() if enabled else 0.0
        self._sink.write(blob)
        self._bytes_written += len(blob)
        self._reports.append(report)
        if enabled:
            self._tracer.add(
                "write", _time.perf_counter() - stage_start,
                bytes_out=len(blob),
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
        header = self._build_header()
        encoded = header.encode()
        if len(encoded) != self._header_size:
            raise ContainerFormatError(
                f"final header is {len(encoded)} bytes, placeholder was "
                f"{self._header_size}"
            )
        self._sink.write(encoded)
        self._sink.seek(end)
        # The footer is the last thing written: a crash before this
        # point leaves a footer-less (but salvageable) chunk chain,
        # never a misleading index.  Its offsets are container-relative
        # (the sink may not start at 0).
        footer = index_footer_from_reports(
            self._header_size, self._reports
        ).encode()
        self._sink.write(footer)
        self._bytes_written += len(footer)
        self._sink.flush()
        if self._owned:
            os.fsync(self._sink.fileno())
            self._sink.close()
            if self._temp_path is not None:
                os.replace(self._temp_path, self._final_path)
        self._closed = True
        if self._engine.collect_metrics:
            self._engine._publish_run(
                "compress", header,
                sum(report.raw_bytes for report in self._reports),
                self._bytes_written, self._tracer.stage_seconds(),
                self._wall_seconds, self._reports,
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
        bounded_relay(chunks, readahead_chunks, name="isobar-stream-readahead")
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
    """Lenient / crash-recovery read path: salvage's scan and per-chunk
    decode loop.  Loads the file into memory (recovery is not a hot
    path)."""
    from repro.core.salvage import decode_scan_events, scan_chunks

    with open(path, "rb") as source:
        data = source.read()
    header, offset = ContainerHeader.decode(data)
    codec = get_codec(header.codec_name)
    events = list(scan_chunks(data, header, offset, codec, to_eof=to_eof))
    if to_eof and events and events[-1].kind == "gap" \
            and events[-1].end == len(data):
        # A gap that runs to EOF on an unclosed stream is the crashed
        # writer's unfinished final chunk — tolerating it is the whole
        # point; anything else honours the policy.
        events.pop()
    for outcome, chunk in decode_scan_events(
        data, header, codec, events, errors
    ):
        if chunk is not None:
            yield chunk
        elif outcome.status == "corrupt" and errors == "zero_fill":
            yield np.zeros(outcome.n_elements, dtype=header.dtype)


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
