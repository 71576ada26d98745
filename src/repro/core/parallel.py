"""Pipelined parallel chunk compression (a natural in-situ extension).

Chunks are compressed independently in the ISOBAR workflow (Section
II-D), so the work maps onto the pipelined block-worker engine
(:mod:`repro.core.pipeline_engine`): a bounded feed queue of chunk
jobs, ``n_workers`` workers running the codec calls, sequence-numbered
ordered reassembly, and a ``max_inflight`` backpressure bound so huge
streams never buffer more than a fixed number of blocks.

Worker *threads* scale the hot paths whose C cores release the GIL —
numpy byte-column histograms and the zlib/bz2/lzma/isal solvers.  For
pure-python solvers (``codec.releases_gil`` is false) the engine
routes the codec calls to a shared process pool with shared-memory
payload transfer instead (:mod:`repro.codecs.procpool`), falling back
to in-thread execution for ad-hoc codecs that a fresh process could
not resolve (chaos wrappers, test doubles) — so fault-injection
behaves identically in serial and parallel modes.

:class:`ParallelIsobarCompressor` produces byte-for-byte the same
container format as :class:`~repro.core.pipeline.IsobarCompressor`
(chunks are reassembled in submission order regardless of worker
completion order), so streams are interchangeable between the serial
and parallel implementations in both directions.

With ``collect_metrics=True`` the workers record into one shared,
thread-safe tracer and registry, so per-stage seconds and chunk
counters equal the serial pipeline's totals for the same input (CPU
time is summed across workers; only the wall clock shrinks).  The
engine additionally exports queue-depth / in-flight gauges and
per-worker wait-time counters (see ``docs/observability.md``).
"""

from __future__ import annotations

import numpy as np

from repro.codecs.base import Codec, get_codec
from repro.codecs.procpool import worker_codec_for
from repro.core.analyzer import AnalysisResult
from repro.core.chunking import plan_chunks
from repro.core.exceptions import (
    ConfigurationError,
    ContainerFormatError,
    TruncatedContainerError,
)
from repro.core.metadata import ChunkMetadata, ContainerHeader
from repro.core.pipeline import (
    ChunkReport,
    CompressionResult,
    IsobarCompressor,
    _degradation_from_reports,
    decode_chunk_payload,
    index_footer_from_reports,
)
from repro.core.pipeline_engine import PipelinedBlockRunner, RunnerStats
from repro.core.preferences import (
    IsobarConfig,
    normalize_errors,
    salvage_policy_for,
)
from repro.core.selector import SelectorDecision
from repro.observability.registry import MetricsRegistry
from repro.observability.trace import AnyTracer, Tracer

__all__ = ["ParallelIsobarCompressor"]

#: One decoded chunk record from the sequential metadata walk:
#: (index, record_offset, metadata, compressed, incompressible, target).
_ChunkItem = tuple[int, int, ChunkMetadata, bytes, bytes, "np.ndarray | None"]


class ParallelIsobarCompressor(IsobarCompressor):
    """ISOBAR pipeline with pipelined per-chunk parallelism.

    Parameters
    ----------
    config:
        Workflow configuration (as for the serial compressor).
    n_workers:
        Pipeline worker count; 1 degenerates to serial execution.
    max_inflight:
        Backpressure bound: maximum chunk blocks fed to workers but not
        yet reassembled.  Defaults to ``max(2 * n_workers, 4)``.  Peak
        buffered memory is roughly ``max_inflight`` chunk payloads on
        top of the input/output arrays.
    collect_metrics / metrics:
        As for the serial compressor; workers aggregate into one
        thread-safe registry, so counters match a serial run's.
    """

    def __init__(
        self,
        config: IsobarConfig | None = None,
        n_workers: int = 4,
        *,
        max_inflight: int | None = None,
        collect_metrics: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be positive, got {n_workers}"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        super().__init__(
            config, collect_metrics=collect_metrics, metrics=metrics
        )
        self._n_workers = n_workers
        self._max_inflight = max_inflight
        #: Engine accounting from the most recent parallel run (None
        #: until a multi-chunk parallel path has executed); tests use
        #: ``peak_inflight`` to assert the backpressure bound held.
        self.last_runner_stats: RunnerStats | None = None

    @property
    def n_workers(self) -> int:
        """Configured pipeline worker count."""
        return self._n_workers

    @property
    def max_inflight(self) -> int | None:
        """Configured backpressure bound (None = engine default)."""
        return self._max_inflight

    def _runner(self, name: str) -> PipelinedBlockRunner:
        runner: PipelinedBlockRunner = PipelinedBlockRunner(
            self._n_workers,
            max_inflight=self._max_inflight,
            name=name,
            instruments=(
                self._instruments if self._metrics.enabled else None
            ),
        )
        self.last_runner_stats = runner.stats
        return runner

    def compress_detailed(self, values: np.ndarray) -> CompressionResult:
        """Compress with per-chunk parallelism; same container output."""
        import time

        from repro.analysis.bytefreq import element_width

        wall_start = time.perf_counter()
        tracer = self._tracer()
        arr = np.asarray(values)
        element_width(arr.dtype)
        flat = arr.reshape(-1)

        select_start = time.perf_counter()
        decision, trial, codec, lead_analysis, lead_seconds = self._decide(
            flat, tracer
        )
        select_seconds = time.perf_counter() - select_start - lead_seconds
        tracer.add("select", select_seconds)

        spans = plan_chunks(flat.size, self._config.chunk_elements)
        chunks = [flat[span.start:span.stop] for span in spans]

        if self._n_workers == 1 or len(chunks) <= 1:
            outcomes = [
                self._compress_chunk(
                    i, chunk, decision, codec, tracer,
                    analysis=lead_analysis if i == 0 else None,
                    trial=trial if i == 0 else None,
                )
                for i, chunk in enumerate(chunks)
            ]
        else:
            outcomes = self._compress_chunks_parallel(
                chunks, decision, codec, tracer, lead_analysis
            )

        merge_start = time.perf_counter()
        blobs = [blob for blob, _ in outcomes]
        reports = tuple(report for _, report in outcomes)
        header = ContainerHeader(
            dtype=arr.dtype,
            n_elements=flat.size,
            shape=arr.shape,
            codec_name=decision.codec_name,
            linearization=decision.linearization,
            preference=self._config.preference,
            tau=self._config.tau,
            chunk_elements=self._config.chunk_elements,
            n_chunks=len(blobs),
        )
        header_bytes = header.encode()
        footer_bytes = index_footer_from_reports(
            len(header_bytes), list(reports)
        ).encode()
        payload = header_bytes + b"".join(blobs) + footer_bytes
        tracer.add(
            "merge", time.perf_counter() - merge_start,
            bytes_out=len(payload),
        )
        result = CompressionResult(
            payload=payload,
            header=header,
            decision=decision,
            chunks=reports,
            analyze_seconds=lead_seconds
            + sum(r.analyze_seconds for r in reports),
            compress_seconds=sum(r.compress_seconds for r in reports),
            select_seconds=select_seconds,
            degradation=_degradation_from_reports(reports),
            footer_bytes=len(footer_bytes),
        )
        if self._metrics.enabled:
            self._finish_compress_run(
                result, tracer, time.perf_counter() - wall_start
            )
        return result

    def _compress_chunks_parallel(
        self,
        chunks: list[np.ndarray],
        decision: SelectorDecision,
        codec: Codec,
        tracer: AnyTracer,
        lead_analysis: AnalysisResult | None = None,
    ) -> list[tuple[bytes, ChunkReport]]:
        """Run chunk compression through the pipelined engine, in order.

        Workers call the codec through :func:`worker_codec_for` — the
        codec itself when its C core releases the GIL, a process-pool
        proxy for registered pure-python codecs, unchanged otherwise.
        A failing chunk never poisons the engine: under a resilience
        policy the chunk is retried serially with the *original* codec
        (the resilient encoder degrades it instead of failing), so one
        poisoned chunk costs one serial retry, never the run.  Without
        a policy (or when the serial retry fails too) the runner is
        cancelled — running workers finish their block, queued blocks
        never start (``cancel_futures`` semantics) — and the original
        exception propagates.
        """
        policy = self._config.resilience
        worker_codec = worker_codec_for(codec, self._n_workers)
        runner = self._runner("isobar-compress")

        def _job(seq: int, chunk: np.ndarray) -> tuple[bytes, ChunkReport]:
            return self._compress_chunk(
                seq, chunk, decision, worker_codec, tracer,
                analysis=lead_analysis if seq == 0 else None,
            )

        outcomes: list[tuple[bytes, ChunkReport]] = []
        for block in runner.run(chunks, _job):
            if block.error is None:
                assert block.value is not None
                outcomes.append(block.value)
                continue
            if (
                policy is None
                or policy.strict
                or not isinstance(block.error, Exception)
            ):
                runner.cancel()
                raise block.error
            try:
                outcomes.append(
                    self._compress_chunk(
                        block.seq, chunks[block.seq], decision, codec,
                        tracer,
                        analysis=lead_analysis if block.seq == 0 else None,
                    )
                )
            except Exception:
                runner.cancel()
                raise
        return outcomes

    def decompress(self, data: bytes, *, errors: str = "raise") -> np.ndarray:
        """Parallel decompression of the standard container format.

        Chunk records are walked sequentially (offsets depend on stored
        sizes), then payload decoding fans out across the pool, each
        worker landing its chunk in a disjoint slice of one
        preallocated result.  With ``errors="salvage-skip"`` or
        ``"salvage-zero"`` the lenient salvage decoder takes over
        (serially — recovery is not a hot path).
        """
        import time

        errors = normalize_errors(errors)
        if errors != "raise":
            from repro.core.salvage import salvage_decompress

            return salvage_decompress(
                data, policy=salvage_policy_for(errors),
                metrics=self._metrics,
            ).values

        wall_start = time.perf_counter()
        tracer = self._tracer()
        header, offset = ContainerHeader.decode(data)
        codec = get_codec(header.codec_name)
        width = header.element_width

        flat = np.empty(header.n_elements, dtype=header.dtype)
        cursor = 0
        chunk_slices = []
        for index in range(header.n_chunks):
            record_offset = offset
            meta, offset = ChunkMetadata.decode(data, offset, width)
            end_comp = offset + meta.compressed_size
            end_incomp = end_comp + meta.incompressible_size
            if end_incomp > len(data):
                raise TruncatedContainerError(
                    f"chunk {index} at byte offset {record_offset}: "
                    "container truncated inside chunk payload"
                )
            end_cursor = cursor + meta.n_elements
            target = (
                flat[cursor:end_cursor] if end_cursor <= flat.size else None
            )
            chunk_slices.append((index, record_offset, meta,
                                 data[offset:end_comp],
                                 data[end_comp:end_incomp],
                                 target))
            offset = end_incomp
            cursor = end_cursor

        decode_tracer = tracer if self._metrics.enabled else None
        if self._n_workers == 1 or len(chunk_slices) <= 1:
            decoder = _ChunkDecoder(header, codec, decode_tracer)
            for item in chunk_slices:
                decoder(item)
        else:
            decoder = _ChunkDecoder(
                header,
                worker_codec_for(codec, self._n_workers),
                decode_tracer,
            )
            # Workers decode straight into disjoint slices of the
            # preallocated result, so ordered reassembly is free; the
            # ordered consumption loop exists to surface a damaged
            # chunk's original exception immediately and cancel queued
            # decode work instead of letting the engine run on.
            runner = self._runner("isobar-decompress")

            def _decode(seq: int, item: _ChunkItem) -> np.ndarray:
                return decoder(item)

            for block in runner.run(chunk_slices, _decode):
                if block.error is not None:
                    runner.cancel()
                    raise block.error
        self._instruments.chunks_decoded.inc(header.n_chunks)

        merge_start = time.perf_counter()
        if cursor != header.n_elements:
            raise ContainerFormatError(
                f"container reassembled {cursor} elements, header "
                f"declares {header.n_elements}"
            )
        tracer.add(
            "merge", time.perf_counter() - merge_start, bytes_out=flat.nbytes
        )
        if self._metrics.enabled:
            self._finish_decompress_run(
                header, len(data), flat.nbytes, tracer,
                time.perf_counter() - wall_start,
            )
        n_shape = 1
        for dim in header.shape:
            n_shape *= dim
        if header.shape and n_shape == header.n_elements:
            return flat.reshape(header.shape)
        return flat


class _ChunkDecoder:
    """Callable decoding one indexed chunk record from the walk.

    Each record carries its own disjoint output slice of the shared
    preallocated result, so workers never contend for memory (``None``
    for chunks overflowing the declared total — those decode to scratch
    and the caller reports the element-count mismatch).
    """

    def __init__(
        self,
        header: ContainerHeader,
        codec: Codec,
        tracer: Tracer | None = None,
    ):
        self._header = header
        self._codec = codec
        self._tracer = tracer

    def __call__(self, item: _ChunkItem) -> np.ndarray:
        import time

        index, record_offset, meta, compressed, incompressible, target = item
        start = 0.0 if self._tracer is None else time.perf_counter()
        chunk = decode_chunk_payload(
            self._header,
            self._codec,
            meta,
            compressed,
            incompressible,
            chunk_index=index,
            byte_offset=record_offset,
            out=target,
        )
        if self._tracer is not None:
            self._tracer.add(
                "decode", time.perf_counter() - start,
                bytes_in=len(compressed) + len(incompressible),
            )
        return chunk
