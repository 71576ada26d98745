"""The ISOBAR-compress workflow (Algorithm 1) over chunked inputs.

:class:`IsobarCompressor` wires the components together exactly as
Figure 2 draws them:

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

import numpy as np

from repro.analysis.bytefreq import byte_view, element_width, matrix_to_elements
from repro.codecs.base import Codec, get_codec
from repro.core.analyzer import AnalysisResult, analyze, analyze_matrix
from repro.core.chunking import iter_chunks
from repro.core.exceptions import (
    ChecksumError,
    ChunkTimeoutError,
    CodecError,
    ContainerFormatError,
    InvalidInputError,
    IsobarError,
    SelectorError,
    TruncatedContainerError,
)
from repro.core.metadata import (
    ChunkIndexRecord,
    ChunkMetadata,
    ChunkMode,
    ContainerFooter,
    ContainerHeader,
)
from repro.core.partitioner import partition, reassemble_matrix
from repro.core.preferences import (
    IsobarConfig,
    Linearization,
    Preference,
    normalize_errors,
    salvage_policy_for,
)
from repro.core.resilience import (
    BreakerBoard,
    BreakerState,
    DegradationEvent,
    DegradationReport,
    ResiliencePolicy,
    call_with_deadline,
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

    This is the single authoritative chunk decoder shared by the serial
    pipeline, the parallel decoder, the streaming reader, the validator
    and the salvage scanner.  Every failure — solver error, stream-length
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
        elif meta.mode is ChunkMode.FALLBACK_ZLIB:
            # Resilience fallback: a standard stdlib-zlib stream of the
            # raw little-endian chunk bytes, independent of the
            # container's registered codec.
            try:
                raw = _zlib.decompress(compressed)
            except _zlib.error as exc:
                raise CodecError(
                    f"zlib-fallback payload undecodable: {exc}"
                ) from exc
            expected = meta.n_elements * header.element_width
            if len(raw) != expected:
                raise ContainerFormatError(
                    f"zlib-fallback payload decodes to {len(raw)} bytes, "
                    f"expected {expected}"
                )
            chunk = np.frombuffer(
                raw, dtype=header.dtype.newbyteorder("<")
            ).astype(header.dtype, copy=False)
        elif meta.mode is ChunkMode.PASSTHROUGH:
            raw = codec.decompress(compressed)
            expected = meta.n_elements * header.element_width
            if len(raw) != expected:
                raise ContainerFormatError(
                    f"chunk payload decodes to {len(raw)} bytes, "
                    f"expected {expected}"
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
    #: Primary-codec attempts actually made (0 when the breaker was open).
    attempts: int
    #: Attempts beyond the first.
    retries: int
    #: Degradation cause (``"error"``/``"timeout"``/``"breaker_open"``).
    cause: str | None = None
    #: Message of the last primary-codec error, when there was one.
    error: str | None = None


def _fallback_streams(
    chunk: np.ndarray,
    raw: bytes | np.ndarray,
    linearization: Linearization,
    deadline: float | None,
) -> tuple[ChunkMode, np.ndarray, bytes, bytes, int, str]:
    """Degraded encodings: stdlib zlib first, raw passthrough last.

    Both reuse existing container vocabulary: ``FALLBACK_ZLIB`` is a
    standard zlib stream of the raw little-endian bytes, and the raw
    form is a ``PARTITIONED`` chunk with an all-False mask — exactly
    how the paper stores an all-incompressible chunk (Section II-B) —
    so every released decoder already round-trips it.
    """
    all_false = np.zeros(chunk.dtype.itemsize, dtype=bool)
    try:
        compressed = call_with_deadline(
            lambda data: _zlib.compress(data, 6), raw, deadline
        )
        return (
            ChunkMode.FALLBACK_ZLIB, all_false, compressed, b"",
            _buffer_nbytes(raw), "zlib-fallback",
        )
    # isobar: ignore[ISO005] last-resort degrade path: any zlib failure
    except Exception:  # noqa: BLE001 - falls through to raw passthrough
        part = partition(chunk, all_false, linearization)
        return (
            ChunkMode.PARTITIONED, all_false, b"", part.incompressible,
            0, "raw",
        )


def encode_chunk_payload(
    chunk: np.ndarray,
    raw: bytes | np.ndarray,
    analysis: AnalysisResult,
    linearization: Linearization,
    codec: Codec,
    *,
    policy: ResiliencePolicy | None = None,
    breakers: BreakerBoard | None = None,
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
    call is fault-contained: it is retried (with backoff) under an
    optional per-chunk deadline, gated by the codec's circuit breaker,
    and on exhaustion the chunk *degrades* through the fallback chain —
    stdlib ``zlib``, then raw passthrough — instead of failing the run.
    A strict policy raises :class:`~repro.core.exceptions.CodecError`
    once the primary codec is exhausted.

    ``trial`` is the selector's winning trial (see
    :class:`~repro.core.selector.WinningTrial`).  Its output replaces
    the first attempt's codec call when it was made by this codec
    object on exactly this chunk's solver input, within the chunk
    deadline; the breaker, verification and attempt accounting apply
    to it unchanged, and its codec time counts as that attempt's solve
    time.
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

    deadline = policy.chunk_deadline_seconds if policy is not None else None
    breaker = (
        breakers.for_codec(codec.name)
        if policy is not None and breakers is not None
        else None
    )
    max_attempts = policy.max_attempts if policy is not None else 1
    reused = (
        trial
        if trial is not None
        and trial.codec is codec
        and (deadline is None or trial.compress_seconds <= deadline)
        and trial.solver_input == payload
        else None
    )

    attempts = 0
    cause: str | None = None
    last_error: BaseException | None = None
    if breaker is None or breaker.allow():
        while attempts < max_attempts:
            if attempts and policy is not None:
                # Retry n waits the policy's (optionally jittered)
                # exponential backoff; the chunk index tokenises the
                # jitter stream so concurrent chunks decorrelate.
                policy.pause_before_retry(attempts, token=chunk_index)
            attempts += 1
            solve_start = time.perf_counter()
            try:
                if reused is not None:
                    # The trial ran this very solve inside the selector.
                    # Its codec time is this attempt's solve time, so
                    # the solve stage and ``solve_seconds`` still cover
                    # the chunk's solve.
                    compressed = reused.compressed
                    solve_start -= reused.compress_seconds
                    stage_start -= reused.compress_seconds
                    reused = None
                else:
                    compressed = call_with_deadline(
                        codec.compress, payload, deadline
                    )
                if policy is not None and policy.verify_roundtrip:
                    restored = call_with_deadline(
                        codec.decompress, compressed, deadline
                    )
                    if restored != payload:
                        raise CodecError(
                            f"{codec.name}: round-trip verification failed "
                            f"({len(restored)} bytes back, "
                            f"{len(payload)} expected)"
                        )
            except ChunkTimeoutError as exc:
                tracer.add("solve", time.perf_counter() - solve_start,
                           bytes_in=len(payload))
                if policy is None:
                    raise
                if breaker is not None:
                    breaker.record_failure()
                cause, last_error = "timeout", exc
                continue
            except Exception as exc:  # noqa: BLE001 - containment boundary
                tracer.add("solve", time.perf_counter() - solve_start,
                           bytes_in=len(payload))
                if policy is None:
                    raise
                if breaker is not None:
                    breaker.record_failure()
                cause, last_error = "error", exc
                continue
            tracer.add(
                "solve", time.perf_counter() - solve_start,
                bytes_in=len(payload), bytes_out=len(compressed),
            )
            if breaker is not None:
                breaker.record_success()
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
                attempts=attempts,
                retries=attempts - 1,
            )
    else:
        cause = "breaker_open"

    # Primary codec exhausted (or short-circuited by its breaker).
    assert policy is not None
    if policy.strict:
        if last_error is not None:
            raise CodecError(
                f"chunk {chunk_index}: {codec.name} failed after "
                f"{attempts} attempt(s): {last_error}"
            ) from last_error
        raise CodecError(
            f"chunk {chunk_index}: {codec.name} circuit breaker is open"
        )
    if not policy.fallback_zlib:
        all_false = np.zeros(chunk.dtype.itemsize, dtype=bool)
        raw_part = partition(chunk, all_false, linearization)
        fb_mode, fb_mask, fb_comp, fb_incomp, fb_solver, fb_name = (
            ChunkMode.PARTITIONED, all_false, b"", raw_part.incompressible,
            0, "raw",
        )
    else:
        solve_start = time.perf_counter()
        fb_mode, fb_mask, fb_comp, fb_incomp, fb_solver, fb_name = (
            _fallback_streams(chunk, raw, linearization, deadline)
        )
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
        attempts=attempts,
        retries=max(attempts - 1, 0),
        cause=cause,
        error=str(last_error) if last_error is not None else None,
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
    #: Primary-codec attempts made (0 when the breaker short-circuited).
    attempts: int = 1
    #: Attempts beyond the first.
    retries: int = 0
    #: Degradation cause (``error``/``timeout``/``breaker_open``) or None.
    cause: str | None = None
    #: Last primary-codec error message, when there was one.
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
    #: Fault-containment record: every degraded chunk plus retry totals.
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
            attempts=r.attempts,
            encoding=r.encoding,
            error=r.error,
        )
        for r in reports
        if r.degraded
    )
    return DegradationReport(
        events=events, retries=sum(r.retries for r in reports)
    )


class IsobarCompressor:
    """End-to-end ISOBAR-compress preconditioner + solver pipeline.

    Parameters
    ----------
    config:
        Workflow configuration; defaults mirror the paper (tau = 1.42,
        375 000-element chunks, zlib/bzip2 candidates, ratio
        preference).
    collect_metrics:
        When true, every run records per-stage timings, chunk outcomes
        and byte routing into :attr:`metrics` and summarises itself as
        :attr:`last_report`.  The default leaves shared null
        instruments on the hot path (no measurable overhead).
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
        *,
        collect_metrics: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        self._config = config or IsobarConfig()
        if metrics is not None:
            self._metrics = metrics
        elif collect_metrics:
            self._metrics = MetricsRegistry()
        else:
            self._metrics = NULL_REGISTRY
        self._instruments = PipelineInstruments(self._metrics)
        # config.selector names the strategy ("eupa" default, "learned",
        # "cached" or an instance); every strategy shares the EUPA
        # candidate space and decision record.
        self._selector = resolve_selector(
            self._config,
            metrics=self._metrics if self._metrics.enabled else None,
        )
        self._last_report: PipelineReport | None = None
        # One breaker board for the compressor's lifetime: breaker
        # state persists across runs, the way an always-on ingest path
        # needs it to.  The gauge callback is a no-op when metrics are
        # disabled (null gauge).
        self._breakers = BreakerBoard(
            self._config.resilience,
            on_state_change=self._record_breaker_state,
        )
        # Reusable partition scratch, one per worker thread (the
        # parallel subclass compresses chunks concurrently).
        self._workspaces = threading.local()

    def _workspace(self) -> ChunkWorkspace:
        """This thread's reusable chunk-encoding workspace."""
        workspace = getattr(self._workspaces, "workspace", None)
        if workspace is None:
            workspace = ChunkWorkspace()
            self._workspaces.workspace = workspace
        return workspace

    def _record_breaker_state(
        self, codec_name: str, state: BreakerState
    ) -> None:
        self._instruments.breaker_state.set(
            state.gauge_value, codec=codec_name
        )

    @property
    def config(self) -> IsobarConfig:
        """The active workflow configuration."""
        return self._config

    @property
    def breakers(self) -> BreakerBoard:
        """The per-codec circuit breakers guarding this compressor."""
        return self._breakers

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

        select_start = time.perf_counter()
        decision, trial, codec, lead_analysis, lead_seconds = self._decide(
            flat, tracer
        )
        select_seconds = time.perf_counter() - select_start - lead_seconds
        tracer.add("select", select_seconds)

        chunk_blobs: list[bytes] = []
        reports: list[ChunkReport] = []
        total_analyze = lead_seconds
        total_compress = 0.0
        for span, chunk in iter_chunks(flat, self._config.chunk_elements):
            # The selector's lead sample is exactly chunk 0, so its
            # analysis (and, when it matches, its winning trial) is
            # reused instead of re-running the analyzer and the solver.
            blob, report = self._compress_chunk(
                span.index, chunk, decision, codec, tracer,
                analysis=lead_analysis if span.index == 0 else None,
                trial=trial if span.index == 0 else None,
            )
            chunk_blobs.append(blob)
            reports.append(report)
            total_analyze += report.analyze_seconds
            total_compress += report.compress_seconds

        merge_start = time.perf_counter()
        header = ContainerHeader(
            dtype=arr.dtype,
            n_elements=flat.size,
            shape=arr.shape,
            codec_name=decision.codec_name,
            linearization=decision.linearization,
            preference=self._config.preference,
            tau=self._config.tau,
            chunk_elements=self._config.chunk_elements,
            n_chunks=len(chunk_blobs),
        )
        header_bytes = header.encode()
        footer_bytes = index_footer_from_reports(
            len(header_bytes), reports
        ).encode()
        payload = header_bytes + b"".join(chunk_blobs) + footer_bytes
        tracer.add(
            "merge", time.perf_counter() - merge_start,
            bytes_out=len(payload),
        )
        result = CompressionResult(
            payload=payload,
            header=header,
            decision=decision,
            chunks=tuple(reports),
            analyze_seconds=total_analyze,
            compress_seconds=total_compress,
            select_seconds=select_seconds,
            degradation=_degradation_from_reports(reports),
            footer_bytes=len(footer_bytes),
        )
        if self._metrics.enabled:
            self._finish_compress_run(
                result, tracer, time.perf_counter() - wall_start
            )
        return result

    def _finish_compress_run(
        self, result: CompressionResult, tracer: AnyTracer,
        wall_seconds: float,
    ) -> None:
        """Record run-level metrics and build the per-run report."""
        improvable = sum(1 for c in result.chunks if c.improvable)
        self._instruments.runs.inc(1, operation="compress")
        self._instruments.input_bytes.inc(
            result.original_bytes, operation="compress"
        )
        self._instruments.output_bytes.inc(
            result.compressed_bytes, operation="compress"
        )
        self._last_report = PipelineReport(
            operation="compress",
            codec_name=result.decision.codec_name,
            linearization=result.decision.linearization.value,
            n_chunks=len(result.chunks),
            improvable_chunks=improvable,
            undetermined_chunks=len(result.chunks) - improvable,
            solver_bytes=result.solver_bytes,
            raw_bytes=result.noise_bytes,
            input_bytes=result.original_bytes,
            output_bytes=result.compressed_bytes,
            stage_seconds=tracer.stage_seconds(),
            wall_seconds=wall_seconds,
        )

    def _decide(
        self, flat: np.ndarray, tracer: AnyTracer = NULL_TRACER
    ) -> tuple[
        SelectorDecision, WinningTrial | None, Codec,
        AnalysisResult | None, float,
    ]:
        """Run the selector on the leading chunk's analysis.

        Returns the decision without its trial, the trial on its own
        (for chunk 0 only; it never outlives the call), the codec, the
        lead chunk's analysis (reusable verbatim for chunk 0, which
        *is* the lead sample) and the seconds that analysis took —
        attributed to the ``analyze`` stage here so the select stage
        only accounts for the sampling race itself.
        """
        if flat.size == 0:
            # Empty stream: nothing to sample; fall back to configured
            # or first-candidate codec with row linearization.
            codec_name = self._config.codec or self._config.candidate_codecs[0]
            linearization = self._config.linearization or Linearization.ROW
            decision = SelectorDecision(
                codec_name=codec_name,
                linearization=linearization,
                preference=self._config.preference,
                improvable=False,
                candidates=(),
                sample_elements=0,
            )
            return decision, None, get_codec(codec_name), None, 0.0
        lead = flat[: min(flat.size, self._config.chunk_elements)]
        analyze_start = time.perf_counter()
        analysis = analyze(lead, tau=self._config.tau)
        lead_seconds = time.perf_counter() - analyze_start
        tracer.add("analyze", lead_seconds, bytes_in=lead.nbytes)
        try:
            decision = self._selector.select(flat, analysis=analysis)
        except SelectorError:
            # Every candidate evaluation failed.  Under a resilience
            # policy the run must still proceed: fall back to the
            # configured (or first-candidate) codec — chunk-level
            # containment will degrade its chunks if it keeps failing.
            if self._config.resilience is None:
                raise
            codec_name = self._config.codec or self._config.candidate_codecs[0]
            linearization = self._config.linearization or Linearization.ROW
            decision = SelectorDecision(
                codec_name=codec_name,
                linearization=linearization,
                preference=self._config.preference,
                improvable=analysis.improvable,
                candidates=(),
                sample_elements=0,
            )
        return (
            decision.without_trial(), decision.trial,
            get_codec(decision.codec_name), analysis, lead_seconds,
        )

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
            breakers=self._breakers,
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
            attempts=encoded.attempts,
            retries=encoded.retries,
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
            if encoded.retries:
                self._instruments.chunk_retries.inc(encoded.retries)
            if encoded.degraded:
                self._instruments.chunks_degraded.inc(
                    1, cause=encoded.cause or "error"
                )
        return blob, report

    # -- decompression ----------------------------------------------------

    def decompress(self, data: bytes, *, errors: str = "raise") -> np.ndarray:
        """Restore the exact original array from a container.

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
        codec = get_codec(header.codec_name)
        width = header.element_width

        # Chunks decode straight into one preallocated result; no
        # per-chunk array plus concatenation pass.
        flat = np.empty(header.n_elements, dtype=header.dtype)
        cursor = 0
        decode_start = time.perf_counter()
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
            compressed = data[offset:end_comp]
            incompressible = data[end_comp:end_incomp]
            offset = end_incomp
            end_cursor = cursor + meta.n_elements
            # A chunk overflowing the declared total still decodes (into
            # a scratch array) so the element-count mismatch is reported
            # as the format error below, matching the legacy behaviour.
            target = flat[cursor:end_cursor] if end_cursor <= flat.size else None
            decode_chunk_payload(
                header,
                codec,
                meta,
                compressed,
                incompressible,
                chunk_index=index,
                byte_offset=record_offset,
                out=target,
            )
            cursor = end_cursor
        tracer.add(
            "decode", time.perf_counter() - decode_start, bytes_in=offset
        )
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

    def _finish_decompress_run(
        self,
        header: ContainerHeader,
        input_bytes: int,
        output_bytes: int,
        tracer: AnyTracer,
        wall_seconds: float,
    ) -> None:
        """Record run-level decode metrics and build the per-run report."""
        self._instruments.runs.inc(1, operation="decompress")
        self._instruments.input_bytes.inc(input_bytes, operation="decompress")
        self._instruments.output_bytes.inc(output_bytes, operation="decompress")
        self._last_report = PipelineReport(
            operation="decompress",
            codec_name=header.codec_name,
            linearization=header.linearization.value,
            n_chunks=header.n_chunks,
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            stage_seconds=tracer.stage_seconds(),
            wall_seconds=wall_seconds,
        )


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
