"""The ISOBAR-compress workflow (Algorithm 1) over chunked inputs.

:class:`IsobarCompressor` is the package's one chunk engine, and it
wires the components together exactly as Figure 2 draws them:

1. the EUPA-selector picks the solver and linearization from a timed
   sample (once per stream — Section II-F shows the choice is stable
   across a whole simulation);
2. each chunk runs through the ISOBAR-analyzer;
3. improvable chunks are partitioned — compressible byte-columns go
   through the solver, incompressible ones are stored raw;
4. undetermined chunks pass to the solver whole;
5. the merger writes one self-describing container: global header,
   then per chunk its metadata, solver output and raw noise bytes
   (Figure 7).

Steps 2-4 are one per-chunk job.  It runs inline with one worker (the
default) or a single chunk, and on the pipelined block engine
(:mod:`repro.core.pipeline_engine`) with ``n_workers > 1``; the
streaming writer (:mod:`repro.core.stream`) calls the same decide step
and job for each chunk it is handed.  Every mode writes byte-identical
containers.

Decompression replays the container without re-analysis; every chunk
carries a CRC32 of its raw bytes, so corruption surfaces as
:class:`~repro.core.exceptions.ChecksumError` instead of silent damage.
Strict decoding is the default; ``decompress(data, errors="skip")`` or
``errors="zero_fill"`` instead delegates to the lenient salvage decoder
(:mod:`repro.core.salvage`), which resynchronizes over damaged regions
and returns everything recoverable.

Both directions can be observed: ``IsobarCompressor(collect_metrics=
True)`` records per-stage wall-clock, chunk outcomes and byte routing
into a :class:`~repro.observability.MetricsRegistry` and summarises
each run as a :class:`~repro.observability.PipelineReport` (see
``docs/observability.md``); the default leaves null instruments on the
hot path.
"""

from __future__ import annotations

import threading
import time
import warnings
import zlib as _zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.analysis.bytefreq import byte_view, element_width, matrix_to_elements
from repro.codecs.base import Codec, get_codec
from repro.core.analyzer import AnalysisResult, analyze, analyze_matrix
from repro.core.chunking import iter_chunks
from repro.core.exceptions import (
    ChecksumError,
    CodecError,
    ConfigurationError,
    ContainerFormatError,
    InvalidInputError,
    IsobarError,
    SelectorError,
)
from repro.core.metadata import (
    ChunkIndexRecord,
    ChunkMetadata,
    ChunkMode,
    ChunkRecord,
    ContainerFooter,
    ContainerHeader,
    iter_chunk_records,
)
from repro.core.partitioner import partition, reassemble_matrix
from repro.core.pipeline_engine import PipelinedBlockRunner, RunnerStats
from repro.core.preferences import (
    IsobarConfig,
    Linearization,
    Preference,
    normalize_errors,
    salvage_policy_for,
)
from repro.core.resilience import (
    DegradationEvent,
    DegradationReport,
    ResiliencePolicy,
)
from repro.core.selector import (
    SelectorDecision,
    WinningTrial,
    resolve_selector,
)
from repro.core.workspace import ChunkWorkspace
from repro.observability.instruments import PipelineInstruments
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.observability.report import PipelineReport
from repro.observability.trace import NULL_TRACER, AnyTracer, Tracer

__all__ = [
    "ChunkReport",
    "CompressionResult",
    "EncodedChunk",
    "IsobarCompressor",
    "decode_chunk_payload",
    "encode_chunk_payload",
    "index_footer_from_reports",
    "isobar_compress",
    "isobar_decompress",
]


def _writable_byte_view(out: np.ndarray) -> np.ndarray | None:
    """``out`` as an ``(N, w)`` uint8 matrix, or ``None`` if ineligible.

    Eligible outputs are C-contiguous little-endian element arrays —
    the common case — letting decoders reassemble chunks directly into
    a preallocated result instead of staging through a fresh matrix.
    """
    if (
        out.flags.c_contiguous
        and out.flags.writeable
        and out.dtype == out.dtype.newbyteorder("<")
    ):
        return out.view(np.uint8).reshape(out.size, out.dtype.itemsize)
    return None


def decode_chunk_payload(
    header: ContainerHeader,
    codec: Codec,
    meta: ChunkMetadata,
    compressed: bytes,
    incompressible: bytes,
    *,
    chunk_index: int | None = None,
    byte_offset: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Decode one chunk's payload streams back into an element array.

    This is the single authoritative chunk decoder shared by the chunk
    engine, the streaming reader, the random-access reader, fsck and the
    salvage scanner.  Every failure — solver error, stream-length
    mismatch, CRC mismatch — is re-raised as an :class:`IsobarError`
    whose message carries the chunk index and absolute byte offset when
    the caller provides them, so corruption reports always point at the
    damaged region instead of a bare ``zlib`` error code.

    ``out``, when given, must be a 1-D array of ``header.dtype`` with
    ``meta.n_elements`` elements; the chunk is decoded into it and
    ``out`` is returned, so callers can assemble a whole container in a
    single preallocated buffer without a concatenation pass.
    """
    where = ""
    if chunk_index is not None:
        where = f"chunk {chunk_index}"
        if byte_offset is not None:
            where += f" at byte offset {byte_offset}"
        where += ": "
    if out is not None and out.size != meta.n_elements:
        raise InvalidInputError(
            f"{where}out buffer holds {out.size} elements, chunk "
            f"declares {meta.n_elements}"
        )
    try:
        if meta.mode is ChunkMode.PARTITIONED:
            # Degraded-to-raw chunks carry an all-False mask and an
            # empty solver stream; skip the solver for them (stdlib
            # zlib rejects empty streams, and there is nothing to do).
            comp_stream = codec.decompress(compressed) if compressed else b""
            matrix_out = _writable_byte_view(out) if out is not None else None
            matrix = reassemble_matrix(
                comp_stream,
                incompressible,
                meta.mask,
                header.linearization,
                meta.n_elements,
                out=matrix_out,
            )
            if matrix_out is not None:
                chunk = out
            else:
                chunk = matrix_to_elements(matrix, header.dtype)
            # The matrix is C-contiguous little-endian — exactly the
            # chunk's raw byte stream — so the CRC reads it in place.
            raw = matrix
        elif meta.mode in (ChunkMode.FALLBACK_ZLIB, ChunkMode.PASSTHROUGH):
            what = "chunk payload"
            if meta.mode is ChunkMode.FALLBACK_ZLIB:
                # Resilience fallback: a standard stdlib-zlib stream of
                # the raw little-endian chunk bytes, independent of the
                # container's registered codec.
                what = "zlib-fallback payload"
                try:
                    raw = _zlib.decompress(compressed)
                except _zlib.error as exc:
                    raise CodecError(f"{what} undecodable: {exc}") from exc
            else:
                raw = codec.decompress(compressed)
            expected = meta.n_elements * header.element_width
            if len(raw) != expected:
                raise ContainerFormatError(
                    f"{what} decodes to {len(raw)} bytes, expected {expected}"
                )
            chunk = np.frombuffer(
                raw, dtype=header.dtype.newbyteorder("<")
            ).astype(header.dtype, copy=False)
        else:
            # Unreachable for well-formed metadata; guards against a
            # future ChunkMode member missing its decode branch.
            raise ContainerFormatError(f"unhandled chunk mode {meta.mode!r}")
    except CodecError as exc:
        raise CodecError(f"{where}{exc}") from exc
    except ChecksumError:
        raise
    except IsobarError as exc:
        # Stream-length / reassembly inconsistencies become format
        # errors: the payload structure does not match its metadata.
        raise ContainerFormatError(f"{where}{exc}") from exc
    if _zlib.crc32(raw) != meta.raw_crc32:
        raise ChecksumError(
            f"{where}chunk CRC mismatch (stored {meta.raw_crc32:#010x}, "
            f"computed {_zlib.crc32(raw):#010x})"
        )
    if out is not None and chunk is not out:
        # Ineligible out buffers (byte-swapped dtype, strided) still
        # honour the contract: copy the decoded chunk into place.
        out[...] = chunk
        return out
    return chunk


def _little_endian_bytes(chunk: np.ndarray) -> bytes:
    """Raw chunk bytes in platform-independent little-endian order."""
    le = chunk.astype(chunk.dtype.newbyteorder("<"), copy=False)
    return np.ascontiguousarray(le).tobytes()


def _buffer_nbytes(raw: bytes | np.ndarray) -> int:
    """Byte length of a raw-chunk buffer (bytes or uint8 matrix view)."""
    return raw.nbytes if isinstance(raw, np.ndarray) else len(raw)


def _buffer_bytes(raw: bytes | np.ndarray) -> bytes:
    """Materialise a raw-chunk buffer as ``bytes`` (solver input)."""
    return raw.tobytes() if isinstance(raw, np.ndarray) else raw


@dataclass(frozen=True)
class EncodedChunk:
    """One chunk's encoded payload streams plus resilience accounting.

    Produced by :func:`encode_chunk_payload` — the compress-side
    counterpart of :func:`decode_chunk_payload` shared by the serial
    pipeline, the parallel workers and the streaming writer.
    """

    mode: ChunkMode
    mask: np.ndarray
    compressed: bytes
    #: May be a ``memoryview`` into a :class:`ChunkWorkspace` buffer —
    #: only valid until the workspace's next chunk; callers materialise
    #: it into the container record before reuse.
    incompressible: bytes | memoryview
    #: Uncompressed bytes that went through a solver (0 for raw chunks).
    solver_bytes: int
    partition_seconds: float
    solve_seconds: float
    #: ``codec.name`` on the healthy path, else ``"zlib-fallback"``/``"raw"``.
    encoding: str
    degraded: bool
    #: Degradation cause (``"error"``) or None.
    cause: str | None = None
    #: Message of the primary-codec error, when there was one.
    error: str | None = None


def _fallback_streams(
    chunk: np.ndarray,
    raw: bytes | np.ndarray,
    linearization: Linearization,
    try_zlib: bool,
) -> tuple[ChunkMode, np.ndarray, bytes, bytes, int, str]:
    """Degraded encodings: stdlib zlib first (when ``try_zlib``), raw
    passthrough last.

    Both reuse existing container vocabulary: ``FALLBACK_ZLIB`` is a
    standard zlib stream of the raw little-endian bytes, and the raw
    form is a ``PARTITIONED`` chunk with an all-False mask — exactly
    how the paper stores an all-incompressible chunk (Section II-B) —
    so every released decoder already round-trips it.
    """
    all_false = np.zeros(chunk.dtype.itemsize, dtype=bool)
    if try_zlib:
        try:
            compressed = _zlib.compress(raw, 6)
            return (
                ChunkMode.FALLBACK_ZLIB, all_false, compressed, b"",
                _buffer_nbytes(raw), "zlib-fallback",
            )
        # isobar: ignore[ISO005] last-resort degrade path: any zlib failure
        except Exception:  # noqa: BLE001 - falls through to raw passthrough
            pass
    part = partition(chunk, all_false, linearization)
    return (
        ChunkMode.PARTITIONED, all_false, b"", part.incompressible, 0, "raw",
    )


def encode_chunk_payload(
    chunk: np.ndarray,
    raw: bytes | np.ndarray,
    analysis: AnalysisResult,
    linearization: Linearization,
    codec: Codec,
    *,
    policy: ResiliencePolicy | None = None,
    chunk_index: int = 0,
    tracer: AnyTracer = NULL_TRACER,
    workspace: ChunkWorkspace | None = None,
    trial: WinningTrial | None = None,
) -> EncodedChunk:
    """Encode one analyzed chunk into its container payload streams.

    On the healthy path this reproduces Algorithm 1's two branches
    byte-for-byte: improvable chunks are partitioned and their signal
    columns solved, undetermined chunks pass to the solver whole.

    ``raw`` is the chunk's little-endian byte stream — either ``bytes``
    or, on the zero-copy hot path, the chunk's own ``(N, w)`` uint8
    view (:func:`repro.analysis.bytefreq.byte_view`).  A
    :class:`~repro.core.workspace.ChunkWorkspace` routes the partition
    gathers through reusable buffers; the returned chunk's
    ``incompressible`` stream then aliases the workspace and must be
    consumed before its next use.

    With a :class:`~repro.core.resilience.ResiliencePolicy` the solver
    call is fault-contained: one try, and on an error or a round-trip
    mismatch the chunk *degrades* at once through the fallback chain —
    stdlib ``zlib``, then raw passthrough — instead of failing the run.
    This is the only place a chunk degrades, and its verdict depends
    only on the chunk's bytes and the configuration: a second try would
    fail too, and no earlier chunk, clock or worker thread enters it,
    so every mode writes the same container.  A strict policy raises
    :class:`~repro.core.exceptions.CodecError` instead.

    ``trial`` is the selector's winning trial (see
    :class:`~repro.core.selector.WinningTrial`).  Its output replaces
    the chunk's codec call when it was made by this codec object on
    exactly this chunk's solver input; verification applies to it
    unchanged, and its codec time counts as the chunk's solve time.
    """
    raw_nbytes = _buffer_nbytes(raw)
    partition_seconds = 0.0
    stage_start = time.perf_counter()
    if analysis.improvable:
        if workspace is not None and isinstance(raw, np.ndarray):
            payload, incompressible = workspace.partition_streams(
                raw, analysis.mask, linearization
            )
        else:
            part = partition(chunk, analysis.mask, linearization)
            payload = part.compressible
            incompressible = part.incompressible
        partition_seconds = time.perf_counter() - stage_start
        tracer.add("partition", partition_seconds, bytes_in=raw_nbytes)
        mode = ChunkMode.PARTITIONED
    else:
        # The solver may be pure Python, so it receives real bytes.
        payload = _buffer_bytes(raw)
        incompressible = b""
        mode = ChunkMode.PASSTHROUGH

    reused = (
        trial
        if trial is not None
        and trial.codec is codec
        and trial.solver_input == payload
        else None
    )

    solve_start = time.perf_counter()
    try:
        if reused is not None:
            # The trial ran this very solve inside the selector.  Its
            # codec time is this chunk's solve time, so the solve stage
            # and ``solve_seconds`` still cover the solve.
            compressed = reused.compressed
            solve_start -= reused.compress_seconds
            stage_start -= reused.compress_seconds
        else:
            compressed = codec.compress(payload)
        if policy is not None and policy.verify_roundtrip:
            restored = codec.decompress(compressed)
            if restored != payload:
                raise CodecError(
                    f"{codec.name}: round-trip verification failed "
                    f"({len(restored)} bytes back, {len(payload)} expected)"
                )
    except Exception as exc:  # noqa: BLE001 - containment boundary
        tracer.add("solve", time.perf_counter() - solve_start,
                   bytes_in=len(payload))
        if policy is None:
            raise
        if policy.strict:
            raise CodecError(
                f"chunk {chunk_index}: {codec.name} failed after one try: "
                f"{exc}"
            ) from exc
        error = exc
    else:
        tracer.add(
            "solve", time.perf_counter() - solve_start,
            bytes_in=len(payload), bytes_out=len(compressed),
        )
        return EncodedChunk(
            mode=mode,
            mask=analysis.mask,
            compressed=compressed,
            incompressible=incompressible,
            solver_bytes=len(payload),
            partition_seconds=partition_seconds,
            solve_seconds=time.perf_counter() - stage_start
            - partition_seconds,
            encoding=codec.name,
            degraded=False,
        )

    # The primary codec failed: degrade.
    solve_start = time.perf_counter()
    fb_mode, fb_mask, fb_comp, fb_incomp, fb_solver, fb_name = (
        _fallback_streams(chunk, raw, linearization, policy.fallback_zlib)
    )
    if policy.fallback_zlib:
        tracer.add(
            "solve", time.perf_counter() - solve_start,
            bytes_in=raw_nbytes, bytes_out=len(fb_comp),
        )
    return EncodedChunk(
        mode=fb_mode,
        mask=fb_mask,
        compressed=fb_comp,
        incompressible=fb_incomp,
        solver_bytes=fb_solver,
        partition_seconds=partition_seconds,
        solve_seconds=time.perf_counter() - stage_start - partition_seconds,
        encoding=fb_name,
        degraded=True,
        cause="error",
        error=str(error),
    )


@dataclass(frozen=True)
class ChunkReport:
    """Per-chunk accounting produced by :meth:`IsobarCompressor.compress_detailed`."""

    index: int
    n_elements: int
    mode: ChunkMode
    improvable: bool
    htc_bytes_percent: float
    raw_bytes: int
    stored_bytes: int
    analyze_seconds: float
    compress_seconds: float
    #: Uncompressed bytes routed through the solver (all of ``raw_bytes``
    #: for passthrough chunks, only the signal columns when partitioned).
    solver_bytes: int = 0
    #: Noise-column bytes stored verbatim (0 for passthrough chunks).
    noise_bytes: int = 0
    #: Size of this chunk's metadata record (container framing, not
    #: payload) — ``stored_bytes`` minus solver output and noise.
    metadata_bytes: int = 0
    #: Final encoding: the codec name, ``"zlib-fallback"`` or ``"raw"``.
    encoding: str = ""
    #: True when the chunk fell back to a degraded encoding.
    degraded: bool = False
    #: Degradation cause (``error``) or None.
    cause: str | None = None
    #: Primary-codec error message, when there was one.
    error: str | None = None


def index_footer_from_reports(
    header_nbytes: int,
    reports: tuple[ChunkReport, ...] | list[ChunkReport],
) -> ContainerFooter:
    """Build the chunk-index footer from per-chunk accounting.

    Each :class:`ChunkReport` already records the chunk's framing and
    payload split (``stored_bytes`` / ``metadata_bytes`` /
    ``noise_bytes``), so the absolute payload offsets fall out of a
    running sum — no second pass over the encoded blobs.
    """
    entries = []
    offset = header_nbytes
    for report in reports:
        compressed = (
            report.stored_bytes - report.metadata_bytes - report.noise_bytes
        )
        entries.append(
            ChunkIndexRecord(
                payload_offset=offset + report.metadata_bytes,
                compressed_size=compressed,
                incompressible_size=report.noise_bytes,
                n_elements=report.n_elements,
            )
        )
        offset += report.stored_bytes
    return ContainerFooter(entries=tuple(entries))


@dataclass(frozen=True)
class CompressionResult:
    """Full outcome of one compression run, with measured statistics."""

    payload: bytes
    header: ContainerHeader
    decision: SelectorDecision
    chunks: tuple[ChunkReport, ...]
    analyze_seconds: float
    compress_seconds: float
    select_seconds: float
    #: Fault-containment record: every degraded chunk.
    degradation: DegradationReport = field(default_factory=DegradationReport)
    #: Size of the trailing chunk-index footer (container framing).
    footer_bytes: int = 0

    @property
    def original_bytes(self) -> int:
        """Uncompressed input size in bytes."""
        return self.header.n_elements * self.header.element_width

    @property
    def compressed_bytes(self) -> int:
        """Size of the produced container."""
        return len(self.payload)

    @property
    def ratio(self) -> float:
        """Compression ratio (Eq. 1) including all container overhead."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes

    @property
    def container_overhead_bytes(self) -> int:
        """Container framing: the global header, every per-chunk
        metadata record, and the trailing index footer — bytes that
        exist only for the format, not for the data."""
        return (
            len(self.header.encode())
            + sum(chunk.metadata_bytes for chunk in self.chunks)
            + self.footer_bytes
        )

    @property
    def stored_payload_bytes(self) -> int:
        """Solver output plus verbatim noise bytes actually stored —
        ``compressed_bytes`` with the container framing subtracted."""
        return self.compressed_bytes - self.container_overhead_bytes

    @property
    def payload_ratio(self) -> float:
        """Compression ratio against the stored payload alone — the
        overhead-free accounting the paper's Table 5 uses."""
        if self.stored_payload_bytes <= 0:
            return float("inf")
        return self.original_bytes / self.stored_payload_bytes

    @property
    def improvable(self) -> bool:
        """True when at least one chunk took the partitioned path."""
        return any(chunk.improvable for chunk in self.chunks)

    @property
    def solver_bytes(self) -> int:
        """Uncompressed bytes routed through the solver, summed."""
        return sum(chunk.solver_bytes for chunk in self.chunks)

    @property
    def noise_bytes(self) -> int:
        """Incompressible bytes stored verbatim, summed."""
        return sum(chunk.noise_bytes for chunk in self.chunks)

    @property
    def degraded(self) -> bool:
        """True when at least one chunk fell back to a degraded encoding."""
        return not self.degradation.clean


def _degradation_from_reports(
    reports: tuple[ChunkReport, ...] | list[ChunkReport],
) -> DegradationReport:
    """Fold per-chunk accounting into one run-level degradation record."""
    events = tuple(
        DegradationEvent(
            chunk_index=r.index,
            cause=r.cause or "error",
            encoding=r.encoding,
            error=r.error,
        )
        for r in reports
        if r.degraded
    )
    return DegradationReport(events=events)


class _Lead(NamedTuple):
    """A run's one selector decision, plus what chunk 0 reuses from it."""

    #: The decision, without its trial.
    decision: SelectorDecision
    codec: Codec
    #: The analysis of the lead sample, which *is* chunk 0 (``None``
    #: for an empty input).
    analysis: AnalysisResult | None
    #: The selector's winning trial, for chunk 0 only.
    trial: WinningTrial | None
    analyze_seconds: float
    select_seconds: float


#: One chunk's container record and its report, as the encoder emits it.
EncodedBlob = tuple[bytes, ChunkReport]
#: One chunk for the decode loop: its record, solver payload, noise
#: payload and the slice to decode into (``None``: a new array).
DecodeJob = tuple[ChunkRecord, bytes, bytes, np.ndarray | None]


class IsobarCompressor:
    """End-to-end ISOBAR-compress preconditioner + solver pipeline.

    The package's one chunk engine: in-memory compression and
    decompression, :class:`~repro.core.parallel.ParallelIsobarCompressor`
    and :class:`~repro.core.stream.StreamingWriter` all run their chunks
    through the same decide step and per-chunk encoder, so every mode
    writes byte-identical containers.

    Parameters
    ----------
    config:
        Workflow configuration; defaults mirror the paper (tau = 1.42,
        375 000-element chunks, zlib/bzip2 candidates, ratio
        preference).
    n_workers:
        Chunk workers.  1 (the default) runs every chunk inline on the
        calling thread; above that, multi-chunk inputs run on the
        pipelined block engine
        (:class:`~repro.core.pipeline_engine.PipelinedBlockRunner`).
        A single chunk always runs inline.
    max_inflight:
        Backpressure bound of the engine: maximum chunk blocks fed to
        workers but not yet reassembled.  Defaults to
        ``max(2 * n_workers, 4)``.  Peak buffered memory is roughly
        ``max_inflight`` chunk payloads on top of the input/output
        arrays.
    collect_metrics:
        When true, every run records per-stage timings, chunk outcomes
        and byte routing into :attr:`metrics` and summarises itself as
        :attr:`last_report`.  The default leaves shared null
        instruments on the hot path (no measurable overhead).  Workers
        record into one thread-safe tracer and registry, so counters
        do not depend on ``n_workers``.
    metrics:
        An existing :class:`~repro.observability.MetricsRegistry` to
        record into (shared registries aggregate across compressors);
        implies ``collect_metrics=True``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.pipeline import IsobarCompressor
    >>> data = np.linspace(0.0, 1.0, 10_000)
    >>> compressor = IsobarCompressor()
    >>> blob = compressor.compress(data)
    >>> restored = compressor.decompress(blob)
    >>> bool(np.array_equal(restored, data))
    True
    """

    def __init__(
        self,
        config: IsobarConfig | None = None,
        n_workers: int = 1,
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
        self._config = config or IsobarConfig()
        self._n_workers = n_workers
        self._max_inflight = max_inflight
        if metrics is not None:
            self._metrics = metrics
        elif collect_metrics:
            self._metrics = MetricsRegistry()
        else:
            self._metrics = NULL_REGISTRY
        self._instruments = PipelineInstruments(self._metrics)
        # config.selector names the strategy ("eupa" default, another
        # registered name or an instance); every strategy shares the
        # EUPA candidate space and decision record.
        self._selector = resolve_selector(
            self._config,
            metrics=self._metrics if self._metrics.enabled else None,
        )
        self._last_report: PipelineReport | None = None
        #: Engine accounting from the most recent run on the block
        #: runner (None until one has executed); tests use
        #: ``peak_inflight`` to assert the backpressure bound held.
        self.last_runner_stats: RunnerStats | None = None
        # Reusable partition scratch, one per worker thread.
        self._workspaces = threading.local()

    def _workspace(self) -> ChunkWorkspace:
        """This thread's reusable chunk-encoding workspace."""
        workspace = getattr(self._workspaces, "workspace", None)
        if workspace is None:
            workspace = ChunkWorkspace()
            self._workspaces.workspace = workspace
        return workspace

    @property
    def config(self) -> IsobarConfig:
        """The active workflow configuration."""
        return self._config

    @property
    def n_workers(self) -> int:
        """Configured chunk worker count."""
        return self._n_workers

    @property
    def max_inflight(self) -> int | None:
        """Configured backpressure bound (None = engine default)."""
        return self._max_inflight

    @property
    def collect_metrics(self) -> bool:
        """Whether this compressor records observability data."""
        return self._metrics.enabled

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The registry accumulating across runs (``None`` if disabled)."""
        return self._metrics if self._metrics.enabled else None

    @property
    def last_report(self) -> PipelineReport | None:
        """The most recent run's :class:`~repro.observability.PipelineReport`
        (``None`` until an instrumented run completes)."""
        return self._last_report

    def _tracer(self) -> AnyTracer:
        """A fresh per-run tracer, or the shared null tracer."""
        if self._metrics.enabled:
            return Tracer(self._metrics)
        return NULL_TRACER

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

    def _inline(self, n_chunks: int) -> bool:
        """Whether a run of ``n_chunks`` chunks skips the block runner."""
        return self._n_workers == 1 or n_chunks <= 1

    # -- compression ------------------------------------------------------

    def compress(self, values: np.ndarray) -> bytes:
        """Compress ``values`` into a self-contained ISOBAR container."""
        return self.compress_detailed(values).payload

    def compress_detailed(self, values: np.ndarray) -> CompressionResult:
        """Compress ``values`` and return payload plus full statistics."""
        wall_start = time.perf_counter()
        tracer = self._tracer()
        arr = np.asarray(values)
        element_width(arr.dtype)  # validates dtype kind
        flat = arr.reshape(-1)

        lead = self._decide(flat, tracer)
        chunks = [
            chunk for _, chunk in iter_chunks(flat, self._config.chunk_elements)
        ]
        outcomes = list(self._encode_chunks(
            chunks, lead, tracer,
            None if self._inline(len(chunks))
            else self._runner("isobar-compress"),
        ))

        merge_start = time.perf_counter()
        reports = tuple(report for _, report in outcomes)
        header = self._header(
            lead.decision, arr.dtype, arr.shape, flat.size, len(reports)
        )
        header_bytes = header.encode()
        footer_bytes = index_footer_from_reports(
            len(header_bytes), reports
        ).encode()
        payload = b"".join(
            [header_bytes, *(blob for blob, _ in outcomes), footer_bytes]
        )
        tracer.add(
            "merge", time.perf_counter() - merge_start,
            bytes_out=len(payload),
        )
        result = CompressionResult(
            payload=payload,
            header=header,
            decision=lead.decision,
            chunks=reports,
            analyze_seconds=lead.analyze_seconds
            + sum(r.analyze_seconds for r in reports),
            compress_seconds=sum(r.compress_seconds for r in reports),
            select_seconds=lead.select_seconds,
            degradation=_degradation_from_reports(reports),
            footer_bytes=len(footer_bytes),
        )
        if self._metrics.enabled:
            self._publish_run(
                "compress", header, result.original_bytes, len(payload),
                tracer.stage_seconds(), time.perf_counter() - wall_start,
                reports,
            )
        return result

    def _header(
        self,
        decision: SelectorDecision,
        dtype: np.dtype,
        shape: tuple[int, ...],
        n_elements: int,
        n_chunks: int,
    ) -> ContainerHeader:
        """The global header this compressor writes for one container."""
        return ContainerHeader(
            dtype=dtype,
            n_elements=n_elements,
            shape=shape,
            codec_name=decision.codec_name,
            linearization=decision.linearization,
            preference=self._config.preference,
            tau=self._config.tau,
            chunk_elements=self._config.chunk_elements,
            n_chunks=n_chunks,
        )

    def _publish_run(
        self,
        operation: str,
        header: ContainerHeader,
        input_bytes: int,
        output_bytes: int,
        stage_seconds: dict[str, float],
        wall_seconds: float,
        reports: Sequence[ChunkReport] = (),
    ) -> None:
        """Record run-level metrics and build the per-run report
        (``reports`` carries a compress run's per-chunk verdicts)."""
        improvable = sum(1 for r in reports if r.improvable)
        self._instruments.runs.inc(1, operation=operation)
        self._instruments.input_bytes.inc(input_bytes, operation=operation)
        self._instruments.output_bytes.inc(output_bytes, operation=operation)
        self._last_report = PipelineReport(
            operation=operation,
            codec_name=header.codec_name,
            linearization=header.linearization.value,
            n_chunks=header.n_chunks,
            improvable_chunks=improvable,
            undetermined_chunks=len(reports) - improvable,
            solver_bytes=sum(r.solver_bytes for r in reports),
            raw_bytes=sum(r.noise_bytes for r in reports),
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            stage_seconds=stage_seconds,
            wall_seconds=wall_seconds,
        )

    def _fallback_decision(self, improvable: bool) -> SelectorDecision:
        """The configured (or first-candidate) codec, row order unless
        configured: the decision when there is nothing to sample, or
        when every candidate evaluation failed under a resilience
        policy (chunk-level containment then degrades the chunks if
        the codec keeps failing)."""
        return SelectorDecision(
            codec_name=self._config.codec or self._config.candidate_codecs[0],
            linearization=self._config.linearization or Linearization.ROW,
            preference=self._config.preference,
            improvable=improvable,
            candidates=(),
            sample_elements=0,
        )

    def _decide(
        self,
        flat: np.ndarray,
        tracer: AnyTracer = NULL_TRACER,
        lead_elements: int | None = None,
    ) -> _Lead:
        """Run the selector on the lead chunk's analysis.

        The lead chunk is ``flat[:lead_elements]`` (default: one
        configured chunk); it is chunk 0, so its analysis and the
        selector's winning trial are reused there.  A stream passes its
        first chunk's own length, since stream chunks need not match
        the configured size.  The analysis is recorded as the
        ``analyze`` stage and the rest as ``select``.
        """
        analysis = None
        analyze_seconds = 0.0
        start = time.perf_counter()
        if flat.size == 0:
            decision = self._fallback_decision(improvable=False)
        else:
            lead = flat[: lead_elements or self._config.chunk_elements]
            analysis = analyze(lead, tau=self._config.tau)
            analyze_seconds = time.perf_counter() - start
            tracer.add("analyze", analyze_seconds, bytes_in=lead.nbytes)
            try:
                decision = self._selector.select(flat, analysis=analysis)
            except SelectorError:
                if self._config.resilience is None:
                    raise
                decision = self._fallback_decision(analysis.improvable)
        select_seconds = time.perf_counter() - start - analyze_seconds
        tracer.add("select", select_seconds)
        return _Lead(
            decision.without_trial(), get_codec(decision.codec_name),
            analysis, decision.trial, analyze_seconds, select_seconds,
        )

    def _run_jobs(
        self,
        jobs: Iterable[Any],
        fn: Callable[[int, Any], Any],
        runner: PipelinedBlockRunner | None,
    ) -> Iterator[Any]:
        """Lazily yield ``fn(seq, job)`` for every job, in order: the
        one chunk loop of every mode.  Inline without a ``runner``; on
        it (threads start now), workers run at most ``max_inflight``
        jobs ahead.  A failed block never poisons the engine: the
        runner is cancelled (queued jobs never start) and the error
        raised in order, as the inline loop raises it."""
        if runner is None:
            return (fn(seq, job) for seq, job in enumerate(jobs))
        blocks = runner.run(jobs, fn)

        def settled() -> Iterator[Any]:
            assert runner is not None
            try:
                for block in blocks:
                    if block.error is not None:
                        runner.cancel()
                        raise block.error
                    yield block.value
            finally:
                blocks.close()

        return settled()

    def _encode_chunks(
        self,
        chunks: Iterable[np.ndarray],
        lead: _Lead,
        tracer: AnyTracer,
        runner: PipelinedBlockRunner | None,
    ) -> Iterator[EncodedBlob]:
        """Encode chunks lazily, in order (see :meth:`_run_jobs`), under
        the lead decision; chunk 0 reuses the lead analysis and the
        selector's winning trial."""

        def encode(seq: int, chunk: np.ndarray) -> EncodedBlob:
            return self._compress_chunk(
                seq, chunk, lead.decision, lead.codec, tracer,
                analysis=lead.analysis if seq == 0 else None,
                trial=lead.trial if seq == 0 else None,
            )

        return self._run_jobs(chunks, encode, runner)

    def _compress_chunk(
        self,
        index: int,
        chunk: np.ndarray,
        decision: SelectorDecision,
        codec: Codec,
        tracer: AnyTracer = NULL_TRACER,
        analysis: AnalysisResult | None = None,
        trial: WinningTrial | None = None,
    ) -> tuple[bytes, ChunkReport]:
        """Encode one chunk into its container record: the per-chunk
        job of every mode (inline, block runner and stream writer)."""
        # Zero-copy on the hot path: for little-endian contiguous input
        # this views the chunk's own bytes (no per-chunk matrix copy);
        # the CRC reads the view in place.
        view = byte_view(chunk)
        crc = _zlib.crc32(view)

        if analysis is None:
            analyze_start = time.perf_counter()
            analysis = analyze_matrix(view, tau=self._config.tau)
            analyze_seconds = time.perf_counter() - analyze_start
            tracer.add("analyze", analyze_seconds, bytes_in=view.nbytes)
        else:
            # Hoisted: the caller already analyzed this chunk (the
            # selector's lead sample) and attributed the time.
            analyze_seconds = 0.0

        encoded = encode_chunk_payload(
            chunk, view, analysis, decision.linearization, codec,
            policy=self._config.resilience,
            chunk_index=index,
            tracer=tracer,
            workspace=self._workspace(),
            trial=trial,
        )
        compress_seconds = encoded.partition_seconds + encoded.solve_seconds

        meta = ChunkMetadata(
            n_elements=chunk.size,
            mode=encoded.mode,
            mask=encoded.mask,
            compressed_size=len(encoded.compressed),
            incompressible_size=len(encoded.incompressible),
            raw_crc32=crc,
        )
        # join() materialises the workspace-aliased incompressible view
        # before the workspace is reused for the next chunk.
        meta_bytes = meta.encode()
        blob = b"".join((meta_bytes, encoded.compressed, encoded.incompressible))
        report = ChunkReport(
            index=index,
            n_elements=int(chunk.size),
            mode=encoded.mode,
            improvable=analysis.improvable,
            htc_bytes_percent=analysis.htc_bytes_percent,
            raw_bytes=view.nbytes,
            stored_bytes=len(blob),
            metadata_bytes=len(meta_bytes),
            analyze_seconds=analyze_seconds,
            compress_seconds=compress_seconds,
            solver_bytes=encoded.solver_bytes,
            noise_bytes=len(encoded.incompressible),
            encoding=encoded.encoding,
            degraded=encoded.degraded,
            cause=encoded.cause,
            error=encoded.error,
        )
        if self._metrics.enabled:
            self._instruments.record_chunk_outcome(
                improvable=analysis.improvable,
                solver_bytes=encoded.solver_bytes,
                raw_bytes=len(encoded.incompressible),
                stored_bytes=len(blob),
                seconds=analyze_seconds + compress_seconds,
            )
            if encoded.degraded:
                self._instruments.chunks_degraded.inc(
                    1, cause=encoded.cause or "error"
                )
        return blob, report

    # -- decompression ----------------------------------------------------

    def _decode_records(
        self,
        header: ContainerHeader,
        jobs: Iterable[DecodeJob],
        tracer: AnyTracer,
    ) -> Iterator[np.ndarray]:
        """The decode loop of :meth:`decompress` and
        :func:`~repro.core.stream.stream_decompress`: the jobs' chunks
        in chain order, through :meth:`_run_jobs` (a damaged chunk
        raises its located error in order)."""
        decoded = self._instruments.chunks_decoded
        codec = get_codec(header.codec_name)

        def decode(_seq: int, job: DecodeJob) -> np.ndarray:
            record, compressed, incompressible, target = job
            start = time.perf_counter()
            chunk = decode_chunk_payload(
                header, codec, record.meta, compressed, incompressible,
                chunk_index=record.index, byte_offset=record.offset,
                out=target,
            )
            tracer.add(
                "decode", time.perf_counter() - start,
                bytes_in=len(compressed) + len(incompressible),
            )
            decoded.inc()
            return chunk

        runner = (
            None if self._inline(header.n_chunks)
            else self._runner("isobar-decompress")
        )
        return self._run_jobs(jobs, decode, runner)

    def decompress(self, data: bytes, *, errors: str = "raise") -> np.ndarray:
        """Restore the exact original array from a container.

        Chunk records are walked lazily, in order, and each one is
        decoded straight into its disjoint slice of one preallocated
        result — inline, or on the block runner, where at most
        ``max_inflight`` records are ahead of the consumer.

        Parameters
        ----------
        data:
            A serialized ISOBAR container.
        errors:
            ``"raise"`` (default) aborts on the first damaged chunk;
            ``"salvage-skip"`` and ``"salvage-zero"`` (legacy spellings
            ``"skip"`` / ``"zero_fill"``) delegate to
            :func:`repro.core.salvage.salvage_decompress` and return
            whatever could be recovered (skipping lost chunks, or
            substituting zero elements for them, respectively).
            Salvage decodes serially.
        """
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
        flat = np.empty(header.n_elements, dtype=header.dtype)

        def walk() -> Iterator[DecodeJob]:
            cursor = 0
            for record in iter_chunk_records(data, header, offset):
                end = cursor + record.meta.n_elements
                # A chunk overflowing the declared total still decodes
                # (into a scratch array), so a damaged chunk is reported
                # before the element-count mismatch after the walk.
                yield (
                    record, *record.payloads(data),
                    flat[cursor:end] if end <= flat.size else None,
                )
                cursor = end
            if cursor != header.n_elements:
                raise ContainerFormatError(
                    f"container reassembled {cursor} elements, header "
                    f"declares {header.n_elements}"
                )

        for _ in self._decode_records(header, walk(), tracer):
            pass

        merge_start = time.perf_counter()
        n_shape = 1
        for dim in header.shape:
            n_shape *= dim
        if header.shape and n_shape == header.n_elements:
            flat = flat.reshape(header.shape)
        tracer.add(
            "merge", time.perf_counter() - merge_start, bytes_out=flat.nbytes
        )
        if self._metrics.enabled:
            self._publish_run(
                "decompress", header, len(data), flat.nbytes,
                tracer.stage_seconds(), time.perf_counter() - wall_start,
            )
        return flat


# Deprecated aliases warn once per process, not once per call — the
# one-liners sit in tight loops in older scripts.
_DEPRECATION_WARNED: set[str] = set()
_DEPRECATION_LOCK = threading.Lock()


def _warn_deprecated(name: str, replacement: str) -> None:
    with _DEPRECATION_LOCK:
        if name in _DEPRECATION_WARNED:
            return
        _DEPRECATION_WARNED.add(name)
    warnings.warn(
        f"{name}() is deprecated; use {replacement} instead",
        DeprecationWarning,
        stacklevel=3,
    )


def _reset_deprecation_warnings() -> None:
    """Testing hook: re-arm the once-per-process deprecation warnings."""
    with _DEPRECATION_LOCK:
        _DEPRECATION_WARNED.clear()


def isobar_compress(
    values: np.ndarray,
    preference: Preference | str = Preference.RATIO,
    *,
    codec: str | None = None,
    linearization: Linearization | str | None = None,
    config: IsobarConfig | None = None,
) -> bytes:
    """Deprecated alias of :func:`repro.compress`.

    One-call ISOBAR compression with the paper's defaults.  Retained
    for backwards compatibility; emits a :class:`DeprecationWarning`
    (once per process) and forwards to the facade.
    """
    _warn_deprecated("isobar_compress", "repro.compress")
    from repro.api import compress

    return compress(
        values,
        preference=preference,
        codec=codec,
        linearization=linearization,
        config=config,
    )


def isobar_decompress(data: bytes, *, errors: str = "raise") -> np.ndarray:
    """Deprecated alias of :func:`repro.decompress`.

    ``errors`` selects the damage policy: ``"raise"`` (strict,
    default), ``"salvage-skip"`` or ``"salvage-zero"`` (lenient salvage
    decode — see :func:`repro.core.salvage.salvage_decompress`); the
    legacy ``"skip"`` / ``"zero_fill"`` spellings keep working.
    """
    _warn_deprecated("isobar_decompress", "repro.decompress")
    from repro.api import decompress

    return decompress(data, errors=errors)
