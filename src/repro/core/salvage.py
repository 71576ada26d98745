"""Corruption-tolerant salvage decoding of ISOBAR containers.

Every chunk in an ISOBAR container is independently decodable: it
carries its own metadata record (behind a ``CHNK`` magic), its own
payload extents and a CRC32 of its raw bytes.  The strict decoders
deliberately abort on the first damaged byte — but for archival
recovery that throws away every *healthy* chunk behind the damage.

This module is the lenient counterpart:

* :func:`scan_chunks` walks the chunk chain structurally and, when a
  record is unreadable, **resynchronizes** by scanning forward for the
  next plausible ``CHNK`` magic (validating candidates against their
  own CRC so a stray ``CHNK`` inside compressed payload is rejected);
* :func:`salvage_decompress` decodes everything recoverable under a
  per-chunk error policy — ``"raise"`` (strict), ``"skip"`` (drop lost
  chunks) or ``"zero_fill"`` (substitute zero elements so surviving
  data keeps its absolute position);
* :class:`SalvageReport` records, per damaged region, the chunk index,
  the absolute byte range and the root cause, so operators know exactly
  what was lost and why.

The same scanner drives :func:`repro.core.fsck.fsck` (which reports
*all* findings instead of stopping at the first), and
:func:`decode_scan_events` — the lenient per-chunk decode loop — is
shared with the salvage and crash recovery paths of
:func:`repro.core.stream.stream_decompress`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.codecs.base import Codec, get_codec
from repro.core.exceptions import (
    ConfigurationError,
    ContainerFormatError,
    IsobarError,
    TruncatedContainerError,
)
from repro.core.metadata import (
    _CHUNK_MAGIC,
    ChunkMetadata,
    ContainerHeader,
    locate_footer,
)
from repro.core.pipeline import decode_chunk_payload
from repro.observability.instruments import PipelineInstruments
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.observability.trace import NULL_TRACER, Tracer

__all__ = [
    "SALVAGE_POLICIES",
    "ScanEvent",
    "ChunkOutcome",
    "SalvageReport",
    "SalvageResult",
    "scan_chunks",
    "decode_scan_events",
    "salvage_decompress",
]

#: Recognised per-chunk error policies for lenient decoding.
SALVAGE_POLICIES = ("raise", "skip", "zero_fill")

#: How many ``CHNK`` magic candidates a resync inspects before settling
#: for the first structurally-plausible one (bounds worst-case cost on
#: payloads that happen to contain many magic byte strings).
_RESYNC_CANDIDATE_LIMIT = 64


def _check_policy(policy: str) -> str:
    # The canonical decoder spellings ("salvage-skip"/"salvage-zero",
    # see repro.core.preferences.ERROR_POLICIES) are accepted here too,
    # so salvage_decompress shares the unified errors= vocabulary.
    policy = {"salvage-skip": "skip", "salvage-zero": "zero_fill"}.get(
        policy, policy
    )
    if policy not in SALVAGE_POLICIES:
        raise ConfigurationError(
            f"unknown salvage policy {policy!r}; "
            f"expected one of {', '.join(SALVAGE_POLICIES)}"
        )
    return policy


@dataclass(frozen=True)
class ScanEvent:
    """One structural region discovered by :func:`scan_chunks`.

    ``kind`` is ``"chunk"`` for a parseable chunk record (payload not
    yet decoded — it may still be corrupt) or ``"gap"`` for a byte
    range where the chunk chain was unreadable and had to be skipped.
    """

    kind: str  # "chunk" | "gap"
    start: int  # absolute byte offset of the record / damaged region
    end: int  # absolute byte offset one past the region
    meta: ChunkMetadata | None = None
    payload_offset: int | None = None
    cause: str | None = None
    resynced: bool = False  # found by magic scan after damage


def _probe_candidate(
    data: bytes,
    pos: int,
    header: ContainerHeader,
    codec: Codec | None,
) -> tuple[bool, bool]:
    """Judge a resync candidate: ``(structurally_ok, crc_validated)``."""
    try:
        meta, payload_offset = ChunkMetadata.decode(
            data, pos, header.element_width
        )
    except IsobarError:
        return False, False
    payload_end = payload_offset + meta.compressed_size + meta.incompressible_size
    if payload_end > len(data):
        return False, False
    # A fabricated record (stray "CHNK" bytes inside a payload) can
    # still park absurd-but-in-bounds field values; sanity-bound the
    # element count against the header's own geometry.
    limit = max(header.chunk_elements, header.n_elements, 1)
    if not 0 < meta.n_elements <= limit:
        return False, False
    if codec is None:
        return True, False
    try:
        decode_chunk_payload(
            header,
            codec,
            meta,
            data[payload_offset:payload_offset + meta.compressed_size],
            data[payload_offset + meta.compressed_size:payload_end],
        )
    except IsobarError:
        return True, False
    return True, True


def _resync(
    data: bytes,
    start: int,
    header: ContainerHeader,
    codec: Codec | None,
) -> int | None:
    """Find the next plausible chunk record at or after ``start``.

    Prefers the first candidate whose payload decodes and CRC-verifies
    (certainly a real chunk); falls back to the first structurally
    plausible candidate (a real chunk whose payload is itself damaged).
    Returns ``None`` when no candidate survives — the rest of the
    stream is lost.
    """
    fallback: int | None = None
    inspected = 0
    pos = data.find(_CHUNK_MAGIC, start)
    while pos != -1 and inspected < _RESYNC_CANDIDATE_LIMIT:
        structurally_ok, validated = _probe_candidate(data, pos, header, codec)
        if validated:
            return pos
        if structurally_ok and fallback is None:
            fallback = pos
        inspected += 1
        pos = data.find(_CHUNK_MAGIC, pos + 1)
    return fallback


def scan_chunks(
    data: bytes,
    header: ContainerHeader,
    offset: int,
    codec: Codec | None = None,
    *,
    to_eof: bool = False,
) -> Iterator[ScanEvent]:
    """Structurally walk the chunk chain, resynchronizing over damage.

    Yields one :class:`ScanEvent` per chunk record or damaged gap, in
    byte order.  Payloads are *not* decoded (except internally, to
    vet resync candidates); callers decide what to do with each region.

    ``to_eof=True`` ignores the header's declared chunk count and scans
    until the end of ``data`` — the recovery mode for streams whose
    final header patch never happened (crashed writer).

    A validated chunk-index footer at EOF delimits the scan: the walk
    (and any final damage gap) stops at the footer boundary instead of
    misreading the index as a destroyed chunk region.
    """
    n_expected = None if to_eof else header.n_chunks
    chain_end = len(data)
    location = locate_footer(data)
    if location.ok:
        chain_end = location.start
    found = 0
    resynced = False
    while offset < chain_end and (n_expected is None or found < n_expected):
        try:
            meta, payload_offset = ChunkMetadata.decode(
                data, offset, header.element_width
            )
            payload_end = (
                payload_offset + meta.compressed_size + meta.incompressible_size
            )
            if payload_end > chain_end:
                raise TruncatedContainerError(
                    "container truncated inside chunk payload"
                )
        except IsobarError as exc:
            candidate = _resync(data, offset + 1, header, codec)
            if candidate is None or candidate >= chain_end:
                yield ScanEvent(
                    kind="gap",
                    start=offset,
                    end=chain_end,
                    cause=str(exc),
                    resynced=resynced,
                )
                return
            yield ScanEvent(
                kind="gap",
                start=offset,
                end=candidate,
                cause=str(exc),
                resynced=resynced,
            )
            offset = candidate
            resynced = True
            continue
        yield ScanEvent(
            kind="chunk",
            start=offset,
            end=payload_end,
            meta=meta,
            payload_offset=payload_offset,
            resynced=resynced,
        )
        resynced = False
        found += 1
        offset = payload_end


@dataclass(frozen=True)
class ChunkOutcome:
    """Fate of one chunk (or one damaged multi-chunk region)."""

    index: int  # ordinal of the (first) chunk covered by this region
    status: str  # "recovered" | "corrupt" | "lost"
    start: int  # absolute byte offset
    end: int  # absolute byte offset one past the region
    n_elements: int  # elements covered (estimated for lost gaps)
    n_chunks: int = 1  # chunks covered (estimated for lost gaps)
    estimated: bool = False  # counts inferred rather than read
    cause: str | None = None

    @property
    def byte_range(self) -> tuple[int, int]:
        """Absolute ``[start, end)`` byte range of this region."""
        return (self.start, self.end)


@dataclass
class SalvageReport:
    """Everything :func:`salvage_decompress` learned about a container."""

    policy: str
    header: ContainerHeader | None = None
    outcomes: list[ChunkOutcome] = field(default_factory=list)
    total_bytes: int = 0
    unclosed: bool = False  # recovered via a to-EOF scan (crashed writer)

    @property
    def recovered(self) -> list[ChunkOutcome]:
        """Regions decoded bit-exactly (CRC verified)."""
        return [o for o in self.outcomes if o.status == "recovered"]

    @property
    def damaged(self) -> list[ChunkOutcome]:
        """Regions that could not be recovered (corrupt or lost)."""
        return [o for o in self.outcomes if o.status != "recovered"]

    @property
    def recovered_chunks(self) -> int:
        """Number of chunks recovered bit-exactly."""
        return sum(o.n_chunks for o in self.recovered)

    @property
    def lost_chunks(self) -> int:
        """Number of chunks (possibly estimated) that were not recovered."""
        return sum(o.n_chunks for o in self.damaged)

    @property
    def recovered_elements(self) -> int:
        """Elements restored bit-exactly."""
        return sum(o.n_elements for o in self.recovered)

    @property
    def lost_elements(self) -> int:
        """Elements lost to damage (estimated for structural gaps)."""
        return sum(o.n_elements for o in self.damaged)

    @property
    def complete(self) -> bool:
        """True when every chunk was recovered and nothing was damaged."""
        return not self.damaged

    def summary_lines(self) -> list[str]:
        """Human-readable report body (mirrors the fsck report's style)."""
        lines = []
        if self.header is not None:
            lines.append(
                f"header: {self.header.dtype}, "
                f"{self.header.n_elements} elements, "
                f"{self.header.n_chunks} chunks, "
                f"codec {self.header.codec_name}"
            )
        if self.unclosed:
            lines.append(
                "stream was never closed (crashed writer); chunks "
                "recovered by forward scan"
            )
        lines.append(
            f"policy {self.policy}: recovered {self.recovered_chunks} chunks "
            f"({self.recovered_elements} elements), lost {self.lost_chunks} "
            f"chunks ({self.lost_elements} elements)"
        )
        for outcome in self.damaged:
            approx = "~" if outcome.estimated else ""
            lines.append(
                f"[{outcome.status}] chunk {approx}{outcome.index}: bytes "
                f"[{outcome.start}, {outcome.end}), {approx}"
                f"{outcome.n_elements} elements: {outcome.cause}"
            )
        lines.append("RESULT: " + ("COMPLETE" if self.complete else "PARTIAL"))
        return lines


@dataclass(frozen=True)
class SalvageResult:
    """Recovered elements plus the full damage accounting."""

    values: np.ndarray
    report: SalvageReport


def _estimate_gaps(
    events: list[ScanEvent],
    header: ContainerHeader,
) -> dict[int, tuple[int, int]]:
    """Estimate ``(n_elements, n_chunks)`` for each gap event.

    The chunk chain stores no chunk ordinals, so a destroyed region's
    contents must be inferred from the header geometry: whatever part
    of the declared element count is not covered by parseable records
    is distributed across the gaps (evenly, remainder to the first).
    """
    known = sum(e.meta.n_elements for e in events if e.kind == "chunk")
    gap_positions = [i for i, e in enumerate(events) if e.kind == "gap"]
    estimates: dict[int, tuple[int, int]] = {}
    if not gap_positions:
        return estimates
    deficit = max(int(header.n_elements) - int(known), 0)
    base, remainder = divmod(deficit, len(gap_positions))
    for rank, position in enumerate(gap_positions):
        n_elements = base + (remainder if rank == 0 else 0)
        if header.chunk_elements > 0 and n_elements > 0:
            n_chunks = max(
                1, round(n_elements / header.chunk_elements)
            )
        else:
            n_chunks = 1
        estimates[position] = (n_elements, n_chunks)
    return estimates


def decode_scan_events(
    data: bytes,
    header: ContainerHeader,
    codec: Codec,
    events: list[ScanEvent],
    policy: str,
) -> Iterator[tuple[ChunkOutcome, np.ndarray | None]]:
    """Decode scanned regions leniently: one ``(outcome, chunk)`` per event.

    The per-event loop shared by :func:`salvage_decompress` and the
    salvage paths of :func:`repro.core.stream.stream_decompress`.
    ``chunk`` is ``None`` for a lost gap or a corrupt chunk, whose
    outcome carries the cause; under ``policy="raise"`` the first
    damaged region raises instead, located by chunk and byte offset.
    """
    gap_estimates = _estimate_gaps(events, header)
    ordinal = 0
    for position, event in enumerate(events):
        if event.kind == "gap":
            if policy == "raise":
                raise ContainerFormatError(
                    f"chunk {ordinal} at byte offset {event.start}: "
                    f"unreadable chunk record: {event.cause}"
                )
            n_elements, n_chunks = gap_estimates[position]
            yield ChunkOutcome(
                index=ordinal,
                status="lost",
                start=event.start,
                end=event.end,
                n_elements=n_elements,
                n_chunks=n_chunks,
                estimated=True,
                cause=event.cause,
            ), None
            ordinal += n_chunks
            continue
        meta = event.meta
        compressed_end = event.payload_offset + meta.compressed_size
        try:
            chunk = decode_chunk_payload(
                header,
                codec,
                meta,
                data[event.payload_offset:compressed_end],
                data[compressed_end:event.end],
                chunk_index=ordinal,
                byte_offset=event.start,
            )
        except IsobarError as exc:
            if policy == "raise":
                raise
            yield ChunkOutcome(
                index=ordinal,
                status="corrupt",
                start=event.start,
                end=event.end,
                n_elements=int(meta.n_elements),
                cause=str(exc),
            ), None
        else:
            yield ChunkOutcome(
                index=ordinal,
                status="recovered",
                start=event.start,
                end=event.end,
                n_elements=int(meta.n_elements),
            ), chunk
        ordinal += 1


def salvage_decompress(
    data: bytes,
    policy: str = "skip",
    *,
    to_eof: bool = False,
    metrics: MetricsRegistry | None = None,
) -> SalvageResult:
    """Decode everything recoverable from a (possibly damaged) container.

    Parameters
    ----------
    data:
        A serialized ISOBAR container, possibly corrupted or truncated.
        The global header must still be readable — a container whose
        header is destroyed is not salvageable (nothing records the
        dtype or solver) and raises like the strict decoder.
    policy:
        ``"raise"`` — abort on the first damaged chunk (strict
        semantics, but with a report when nothing is damaged);
        ``"skip"`` — drop damaged chunks, return the surviving elements
        concatenated in order;
        ``"zero_fill"`` — return the full declared element count with
        zeros substituted for every damaged region, so surviving data
        keeps its absolute position.
    to_eof:
        Ignore the header's declared chunk count and scan to the end of
        ``data`` — recovers streams whose final header patch never
        happened (see ``stream_decompress(..., tolerate_unclosed=True)``).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; when
        given, chunk fates accumulate under
        ``isobar_salvage_chunks_total{status=}`` /
        ``isobar_salvage_elements_total{status=}`` and the scan /
        decode / merge stages are timed (``docs/observability.md``).

    Returns
    -------
    SalvageResult
        ``values`` (the recovered array) and ``report`` (a
        :class:`SalvageReport` identifying every damaged chunk's index,
        byte range and root cause).
    """
    policy = _check_policy(policy)
    registry = NULL_REGISTRY if metrics is None else metrics
    tracer = Tracer(registry) if registry.enabled else NULL_TRACER
    header, offset = ContainerHeader.decode(data)
    codec = get_codec(header.codec_name)

    scan_start = _time.perf_counter()
    events = list(scan_chunks(data, header, offset, codec, to_eof=to_eof))
    tracer.add(
        "scan", _time.perf_counter() - scan_start, bytes_in=len(data)
    )
    report = SalvageReport(
        policy=policy,
        header=header,
        total_bytes=len(data),
        unclosed=to_eof,
    )
    decode_start = _time.perf_counter()
    pieces = list(decode_scan_events(data, header, codec, events, policy))
    tracer.add("decode", _time.perf_counter() - decode_start)
    report.outcomes = [outcome for outcome, _ in pieces]

    merge_start = _time.perf_counter()
    values = _assemble(pieces, header, policy, to_eof=to_eof)
    tracer.add(
        "merge", _time.perf_counter() - merge_start, bytes_out=values.nbytes
    )
    if registry.enabled:
        instruments = PipelineInstruments(registry)
        for outcome in report.outcomes:
            instruments.salvage_chunks.inc(
                outcome.n_chunks, status=outcome.status
            )
            element_status = (
                "recovered" if outcome.status == "recovered" else "lost"
            )
            if outcome.n_elements:
                instruments.salvage_elements.inc(
                    outcome.n_elements, status=element_status
                )
        instruments.runs.inc(1, operation="salvage")
        instruments.input_bytes.inc(len(data), operation="salvage")
        instruments.output_bytes.inc(values.nbytes, operation="salvage")
    return SalvageResult(values=values, report=report)


def _assemble(
    pieces: list[tuple[ChunkOutcome, np.ndarray | None]],
    header: ContainerHeader,
    policy: str,
    *,
    to_eof: bool,
) -> np.ndarray:
    """Combine recovered chunks into the output array per policy."""
    recovered = [chunk for _, chunk in pieces if chunk is not None]
    damage_free = all(chunk is not None for _, chunk in pieces)

    if policy != "zero_fill":
        if recovered:
            flat = np.concatenate(recovered).astype(header.dtype, copy=False)
        else:
            flat = np.empty(0, dtype=header.dtype)
        # Only a fully intact, fully declared container can be restored
        # to its original shape; a skip-decoded partial array stays flat.
        if (
            damage_free
            and not to_eof
            and flat.size == header.n_elements
            and header.shape
            and int(np.prod(header.shape, dtype=np.int64)) == header.n_elements
        ):
            return flat.reshape(header.shape)
        return flat

    # zero_fill: allocate the full declared extent (or, for unclosed
    # streams with a zeroed placeholder header, the scanned extent) and
    # place every recovered chunk at its absolute element offset.
    total = sum(outcome.n_elements for outcome, _ in pieces)
    size = max(int(header.n_elements), int(total))
    out = np.zeros(size, dtype=header.dtype)
    cursor = 0
    for outcome, chunk in pieces:
        if chunk is not None and cursor < size:
            stop = min(cursor + chunk.size, size)
            out[cursor:stop] = np.asarray(chunk, dtype=header.dtype)[
                : stop - cursor
            ]
        cursor += outcome.n_elements
    if (
        header.shape
        and int(np.prod(header.shape, dtype=np.int64)) == size
    ):
        return out.reshape(header.shape)
    return out
