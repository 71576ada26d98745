"""Streaming file-to-file compression (bounded-memory in-situ path).

Extreme-scale arrays do not fit in memory (Section II-D); the streaming
writer consumes an element iterator — e.g.
:func:`repro.datasets.loaders.stream_raw_chunks` — and emits a standard
ISOBAR container incrementally on the in-memory chunk engine
(:class:`~repro.core.pipeline.IsobarCompressor`): its decide step, its
per-chunk encoder and, with ``n_workers > 1``, its block runner.  It
holds one chunk at a time inline, ``1 + max_inflight`` pipelined.  The
reader streams chunks back out through the engine's decode loop the
same way.

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
import queue
import time as _time
import weakref
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from repro.analysis.bytefreq import element_width
from repro.codecs.base import get_codec
from repro.core.exceptions import ContainerFormatError, InvalidInputError
from repro.core.metadata import (
    ContainerFooter,
    ContainerHeader,
    iter_chunk_records,
)
from repro.core.pipeline import (
    ChunkReport,
    DecodeJob,
    EncodedBlob,
    IsobarCompressor,
    _degradation_from_reports,
    _Lead,
    index_footer_from_reports,
)
from repro.core.pipeline_engine import PipelinedBlockRunner, RunnerStats
from repro.core.preferences import IsobarConfig, salvage_policy_for
from repro.core.resilience import DegradationReport
from repro.core.salvage import decode_scan_events, scan_chunks
from repro.observability.registry import MetricsRegistry
from repro.observability.report import PipelineReport

__all__ = ["StreamingWriter", "stream_compress", "stream_decompress"]

#: What a closed stream with no chunks holds after its header.
_EMPTY_FOOTER = ContainerFooter(entries=()).encode()


class StreamingWriter:
    """Incrementally write an ISOBAR container to a binary file object.

    Usage::

        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, dtype=np.float64)
            for chunk in chunks:
                writer.write_chunk(chunk)
            writer.close()

    The writer runs on :class:`~repro.core.pipeline.IsobarCompressor`
    with the same ``n_workers`` and ``max_inflight``: the first chunk
    drives its decide step (codec and linearization for the whole
    stream) on the caller's thread, and every chunk goes through its
    per-chunk encoder.  With one worker (the default) that runs inline
    and each chunk is in the sink when ``write_chunk`` returns.  With
    ``n_workers > 1`` every chunk, chunk 0 included, is copied and
    encoded on the engine's block runner; ``write_chunk`` writes the
    blocks that have finished, in order, and blocks only while
    ``max_inflight`` chunks are in flight, so memory is bounded by
    ``1 + max_inflight`` chunks and ``close()`` is the point where the
    file is durable.  A failed block cancels the run as in the
    in-memory engine; the chunk error (pipelined, it may surface in a
    later ``write_chunk`` or in ``close()``) aborts the writer.  The
    file is byte-identical for every worker count.

    The writer itself only owns the sink, the header patch, the index
    footer and the atomic ``open``/``abort``/``close``; ``close()``
    seeks back to patch the header, so the sink must be seekable.
    With ``collect_metrics=True`` (or a shared ``metrics`` registry)
    every chunk records the analyze/partition/solve/write stages and
    its outcome, and ``close()`` publishes a
    :class:`~repro.observability.PipelineReport` as
    :attr:`last_report`, whose wall time covers only the time spent
    inside the writer.
    """

    def __init__(
        self,
        sink: BinaryIO,
        dtype: np.dtype,
        config: IsobarConfig | None = None,
        *,
        n_workers: int = 1,
        max_inflight: int | None = None,
        collect_metrics: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        self._sink = sink
        self._dtype = np.dtype(dtype)
        element_width(self._dtype)  # validate
        self._engine = IsobarCompressor(
            config, n_workers, max_inflight=max_inflight,
            collect_metrics=collect_metrics, metrics=metrics,
        )
        # One tracer for the whole stream: the report sums its stages.
        self._tracer = self._engine._tracer()
        self._wall_seconds = 0.0
        # Set by the first chunk: the decision, the queue of chunks the
        # engine's encode loop reads, that loop's ordered outcomes, its
        # runner (None inline) and the finalizer ending the queue.
        self._lead: _Lead | None = None
        self._jobs: "queue.SimpleQueue[np.ndarray | None] | None" = None
        self._outcomes: Iterator[EncodedBlob] | None = None
        self._runner: PipelinedBlockRunner | None = None
        self._end_jobs: weakref.finalize | None = None
        self._pending = 0  # chunks queued but not yet written
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
        n_workers: int = 1,
        max_inflight: int | None = None,
        collect_metrics: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> "StreamingWriter":
        """Open a writer that manages its own file at ``path``.

        With ``atomic=True`` (the default) chunks are written to a
        temporary file next to the destination and ``close()`` fsyncs
        and atomically renames it into place — ``path`` never holds a
        half-written container, even if the process crashes mid-stream.
        A failed (a failing ``close()`` included) or aborted write
        leaves ``path`` untouched and discards the temp file.
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
                n_workers=n_workers, max_inflight=max_inflight,
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
    def last_runner_stats(self) -> RunnerStats | None:
        """The block runner's accounting (``None`` when inline)."""
        return self._engine.last_runner_stats

    @property
    def degradation(self) -> DegradationReport:
        """Fault-containment record of the chunks written so far."""
        return _degradation_from_reports(self._reports)

    def _build_header(self) -> ContainerHeader:
        n_elements = sum(report.n_elements for report in self._reports)
        return self._engine._header(
            self._engine._fallback_decision(False) if self._lead is None
            else self._lead.decision,
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

    def _start(self, first: np.ndarray) -> None:
        """Decide on the first chunk (stream chunks need not be
        ``chunk_elements`` long, so it is analyzed whole and chunk 0
        reuses that analysis and the winning trial), write the
        placeholder header and start the engine's encode loop."""
        engine = self._engine
        lead = self._lead = engine._decide(first, self._tracer, first.size)
        self._ensure_header()
        jobs = self._jobs = queue.SimpleQueue()

        def queued() -> Iterator[np.ndarray]:
            while (chunk := jobs.get()) is not None:
                yield chunk

        if engine.n_workers > 1:
            self._runner = engine._runner("isobar-stream")
        self._outcomes = engine._encode_chunks(
            queued(), lead, self._tracer, self._runner
        )
        # The end marker stops the loop on close() or abort(), or when
        # an abandoned writer is collected (no runner thread refers
        # back to the writer, so none keeps it alive).
        self._end_jobs = weakref.finalize(self, jobs.put, None)

    def _drain(self, limit: int) -> int:
        """Write finished chunks in order, waiting while more than
        ``limit`` are pending; returns the bytes written."""
        assert self._outcomes is not None
        written = 0
        while self._pending and (
            self._pending > limit
            or (self._runner is not None and self._runner.ready())
        ):
            self._pending -= 1
            blob, report = next(self._outcomes)
            stage_start = _time.perf_counter()
            self._sink.write(blob)
            if self.metrics is not None:
                self._tracer.add(
                    "write", _time.perf_counter() - stage_start,
                    bytes_out=len(blob),
                )
            self._bytes_written += len(blob)
            self._reports.append(report)
            written += len(blob)
        return written

    def write_chunk(self, chunk: np.ndarray) -> int:
        """Compress and append one chunk; returns the chunk bytes written
        to the sink during the call — this chunk's record inline, the
        records of the earlier chunks that finished meanwhile when
        pipelined (``close()`` writes the rest).  A chunk error aborts
        the writer."""
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
        wall_start = _time.perf_counter()
        if self._engine.n_workers > 1:
            # The caller may reuse its buffer (an in-situ step
            # overwriting its field) before a worker encodes it.
            arr = arr.copy()
        try:
            if self._jobs is None:
                self._start(arr)
            assert self._jobs is not None
            limit = 0 if self._runner is None else self._runner.max_inflight
            written = self._drain(limit - 1)
            self._jobs.put(arr)
            self._pending += 1
            written += self._drain(limit)
        except BaseException:
            self.abort()
            raise
        self._wall_seconds += _time.perf_counter() - wall_start
        return written

    def close(self) -> None:
        """Drain the chunks in flight, patch the header with final
        counts, append the chunk-index footer, flush and (when opened
        via :meth:`open`) atomically publish the file.  If any step
        fails (a chunk error deferred from the runner included), the
        writer is aborted and the error re-raised."""
        if self._closed:
            return
        wall_start = _time.perf_counter()
        try:
            if self._outcomes is not None:
                self._drain(0)
                self._stop()
            self._ensure_header()  # empty stream: header with zero chunks
            end = self._sink.tell()
            self._sink.seek(self._header_offset)
            header = self._build_header()
            encoded = header.encode()
            if len(encoded) != self._header_size:
                raise ContainerFormatError(
                    f"final header is {len(encoded)} bytes, placeholder "
                    f"was {self._header_size}"
                )
            self._sink.write(encoded)
            self._sink.seek(end)
            # The footer is the last thing written: a crash before this
            # point leaves a footer-less (but salvageable) chunk chain,
            # never a misleading index.  Its offsets are
            # container-relative (the sink may not start at 0).
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
        except BaseException:
            self.abort()
            raise
        self._closed = True
        if self._engine.collect_metrics:
            self._wall_seconds += _time.perf_counter() - wall_start
            self._engine._publish_run(
                "compress", header,
                sum(report.raw_bytes for report in self._reports),
                self._bytes_written, self._tracer.stage_seconds(),
                self._wall_seconds, self._reports,
            )

    def _stop(self) -> None:
        """End the encode loop and join its runner's threads."""
        if self._end_jobs is not None:
            self._end_jobs()
        if self._outcomes is not None:
            self._outcomes.close()  # type: ignore[attr-defined]
            self._outcomes = None

    def abort(self) -> None:
        """Discard the stream: stop the runner, close the handle, delete
        any temp file.  A caller-provided sink is left open (the caller
        owns it).  Idempotent, and a no-op after ``close()``."""
        if self._closed:
            return
        self._closed = True
        try:
            self._stop()
        finally:
            if self._owned:
                try:
                    self._sink.close()
                finally:
                    if self._temp_path is not None and os.path.exists(
                        self._temp_path
                    ):
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


def _max_inflight(readahead_chunks: int) -> int | None:
    """The engine's in-flight bound for ``readahead_chunks`` (0: default)."""
    if readahead_chunks < 0:
        raise InvalidInputError(
            f"readahead_chunks must be >= 0, got {readahead_chunks}"
        )
    return readahead_chunks or None


def stream_compress(
    chunks: Iterable[np.ndarray],
    sink_path: str | os.PathLike,
    dtype: np.dtype,
    config: IsobarConfig | None = None,
    *,
    atomic: bool = True,
    metrics: MetricsRegistry | None = None,
    n_workers: int = 1,
    readahead_chunks: int = 0,
) -> int:
    """Compress an iterable of chunks into a container file.

    Returns the total bytes written.  With ``atomic=True`` (the
    default) the destination path is populated by a single atomic
    rename on success, so a crash or error mid-stream never leaves a
    half-written container at ``sink_path``.  ``metrics`` optionally
    aggregates the stream's stage timings and chunk outcomes into an
    existing registry.  ``n_workers > 1`` encodes on the engine's block
    runner (see :class:`StreamingWriter`) while the iterable produces
    the next chunk, with ``readahead_chunks`` as its in-flight bound
    (0: the engine default); memory is then bounded by
    ``1 + readahead_chunks`` chunks, else by one.
    """
    with StreamingWriter.open(
        sink_path, dtype, config, atomic=atomic, metrics=metrics,
        n_workers=n_workers, max_inflight=_max_inflight(readahead_chunks),
    ) as writer:
        for chunk in chunks:
            writer.write_chunk(chunk)
    return writer.bytes_written


def stream_decompress(
    path: str | os.PathLike,
    *,
    errors: str = "raise",
    tolerate_unclosed: bool = False,
    metrics: MetricsRegistry | None = None,
    n_workers: int = 1,
    readahead_chunks: int = 0,
) -> Iterator[np.ndarray]:
    """Yield the original chunks of a container file, one at a time.

    Verifies each chunk's CRC before yielding.  The strict path walks
    the file with :func:`~repro.core.metadata.iter_chunk_records` and
    decodes with the in-memory engine's decode loop: inline with one
    worker (the default), else on its block runner with at most
    ``readahead_chunks`` chunks (0: the engine default) decoded ahead
    of the consumer.  Memory is bounded by ``1 + readahead_chunks``
    chunks (one inline); abandoning the iterator stops the runner and
    closes the file.

    Parameters
    ----------
    errors:
        ``"raise"`` (default) aborts on the first damaged chunk;
        ``"salvage-skip"`` drops damaged chunks; ``"salvage-zero"``
        substitutes zero-element chunks of the declared length (legacy
        spellings ``"skip"`` / ``"zero_fill"`` keep working).  The
        lenient modes yield exactly what ``repro.decompress(data,
        errors=...)`` returns for the file's bytes, flattened (zero
        fill included), reading one record, payload or resync window
        at a time and decoding serially.
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
    """
    max_inflight = _max_inflight(readahead_chunks)
    # Canonical policy vocabulary shared by every decoder; the salvage
    # loop speaks the salvage decoder's internal names.
    salvage_policy = salvage_policy_for(errors)
    with open(path, "rb") as source:
        prefix = source.read(1 << 16)
        if not prefix and tolerate_unclosed:
            # Writer died before anything durable was written.
            return
        header, offset = ContainerHeader.decode(prefix)
        file_size = source.seek(0, os.SEEK_END)
        unclosed = header.n_chunks == 0 and file_size > offset
        if unclosed:
            # Could be a crashed writer — or a closed *empty* stream,
            # whose header is followed by just a zero-entry footer.
            source.seek(offset)
            if source.read(len(_EMPTY_FOOTER) + 1) == _EMPTY_FOOTER:
                return  # closed empty stream: nothing to yield
            if not tolerate_unclosed:
                raise ContainerFormatError(
                    f"header declares 0 chunks but {file_size - offset} "
                    "payload bytes follow: the stream was never closed "
                    "(crashed writer?); pass tolerate_unclosed=True to "
                    "recover it"
                )
        elif salvage_policy == "raise":
            engine = IsobarCompressor(
                n_workers=n_workers, max_inflight=max_inflight, metrics=metrics
            )

            def jobs() -> Iterator[DecodeJob]:
                for record in iter_chunk_records(source, header, offset):
                    yield record, *record.payloads(source), None

            yield from engine._decode_records(
                header, jobs(), engine._tracer()
            )
            return
        # Lenient and crash-recovery reads: salvage's scan and lenient
        # decode loop over the open file, one record or payload at a time.
        codec = get_codec(header.codec_name)
        events = list(
            scan_chunks(source, header, offset, codec, to_eof=unclosed)
        )
        if unclosed and events and events[-1].kind == "gap" \
                and events[-1].end == file_size:
            # A gap that runs to EOF on an unclosed stream is the crashed
            # writer's unfinished final chunk — tolerating it is the
            # whole point; anything else honours the policy.
            events.pop()
        for _, piece in decode_scan_events(
            source, header, codec, events, salvage_policy
        ):
            if piece is not None and piece.size:
                yield piece
