"""Corruption-tolerant salvage decoding of ISOBAR containers.

Every chunk in an ISOBAR container is independently decodable: it
carries its own metadata record (behind a ``CHNK`` magic), its own
payload extents and a CRC32 of its raw bytes.  The strict decoders
deliberately abort on the first damaged byte — but for archival
recovery that throws away every *healthy* chunk behind the damage.

This module is the lenient counterpart, over container bytes or a
seekable file (read one record, payload or search window at a time):

* :func:`scan_chunks` walks the chunk chain with the one chain walk,
  :func:`~repro.core.metadata.iter_chunk_records`, and, when a record
  is unreadable, **resynchronizes** by scanning forward for the next
  plausible ``CHNK`` magic (vetting each candidate by walking its one
  record and decoding it, so a stray ``CHNK`` inside compressed payload
  is rejected) and restarts the walk there;
* :func:`decode_scan_events` is the one lenient decode loop: it decodes
  the scanned regions and yields the output pieces and each region's
  :class:`ChunkOutcome`;
* :func:`salvage_decompress` concatenates those pieces under a
  per-chunk error policy — ``"raise"`` (strict), ``"skip"`` (drop lost
  chunks) or ``"zero_fill"`` (substitute zero elements so surviving
  data keeps its absolute position);
* :class:`SalvageReport` records, per damaged region, the chunk index,
  the absolute byte range and the root cause, so operators know exactly
  what was lost and why.

The scanner and the loop also drive :func:`repro.core.fsck.fsck` (which
reports *all* findings instead of stopping at the first) and the
lenient and crash recovery paths of
:func:`repro.core.stream.stream_decompress`, which yield from an open
file exactly the pieces :func:`salvage_decompress` concatenates.
"""

from __future__ import annotations

import math
import os
import time as _time
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator

import numpy as np

from repro.codecs.base import Codec, get_codec
from repro.core.exceptions import (
    ConfigurationError,
    ContainerFormatError,
    IsobarError,
)
from repro.core.metadata import (
    _CHUNK_MAGIC,
    ChunkMetadata,
    ChunkRecord,
    ContainerHeader,
    _in_memory,
    iter_chunk_records,
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
#: Bytes a resync reads at a time while searching a file for a magic.
_RESYNC_WINDOW = 1 << 16


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
    record: ChunkRecord | None = None  # the chunk's record (chunks only)
    cause: str | None = None
    resynced: bool = False  # found by magic scan after damage

    @property
    def meta(self) -> ChunkMetadata | None:
        """The chunk's metadata record (``None`` for a gap)."""
        return None if self.record is None else self.record.meta


def _find_magic(source: bytes | BinaryIO, pos: int) -> int:
    """Offset of the first ``CHNK`` magic at or after ``pos`` (-1: none),
    searching a file one window at a time."""
    if _in_memory(source):
        return source.find(_CHUNK_MAGIC, pos)
    while True:
        source.seek(pos)
        window = source.read(_RESYNC_WINDOW)
        hit = window.find(_CHUNK_MAGIC)
        if hit != -1:
            return pos + hit
        if len(window) < _RESYNC_WINDOW:
            return -1
        # Overlap the windows so a magic split across them is found.
        pos += len(window) - len(_CHUNK_MAGIC) + 1


def _probe_candidate(
    source: bytes | BinaryIO,
    pos: int,
    header: ContainerHeader,
    codec: Codec | None,
) -> tuple[bool, bool]:
    """Judge a resync candidate by walking its one record and decoding
    it: ``(structurally_ok, crc_validated)``."""
    try:
        record = next(iter_chunk_records(source, header, pos, n_chunks=1))
    except IsobarError:
        return False, False
    # A fabricated record (stray "CHNK" bytes inside a payload) can
    # still park absurd-but-in-bounds field values; sanity-bound the
    # element count against the header's own geometry.
    limit = max(header.chunk_elements, header.n_elements, 1)
    if not 0 < record.meta.n_elements <= limit:
        return False, False
    if codec is None:
        return True, False
    try:
        decode_chunk_payload(
            header, codec, record.meta, *record.payloads(source)
        )
    except IsobarError:
        return True, False
    return True, True


def _resync(
    source: bytes | BinaryIO,
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
    pos = _find_magic(source, start)
    for _ in range(_RESYNC_CANDIDATE_LIMIT):
        if pos == -1:
            break
        structurally_ok, validated = _probe_candidate(
            source, pos, header, codec
        )
        if validated:
            return pos
        if structurally_ok and fallback is None:
            fallback = pos
        pos = _find_magic(source, pos + 1)
    return fallback


def scan_chunks(
    source: bytes | BinaryIO,
    header: ContainerHeader,
    offset: int,
    codec: Codec | None = None,
    *,
    to_eof: bool = False,
) -> Iterator[ScanEvent]:
    """Structurally walk the chunk chain, resynchronizing over damage.

    Yields one :class:`ScanEvent` per chunk record or damaged gap, in
    byte order, over container bytes or a seekable binary file (read
    one record, search window or resync candidate at a time).  The
    walk is :func:`~repro.core.metadata.iter_chunk_records`, restarted
    at the resync candidate after each unreadable region.  Payloads are
    *not* decoded (except internally, to vet resync candidates);
    callers decide what to do with each region.

    ``to_eof=True`` ignores the header's declared chunk count and scans
    until the end of the chain — the recovery mode for streams whose
    final header patch never happened (crashed writer).

    A validated chunk-index footer at EOF delimits the scan: the walk
    (and any final damage gap) stops at the footer boundary instead of
    misreading the index as a destroyed chunk region.
    """
    location = locate_footer(source)
    if location.ok:
        chain_end = location.start
    elif _in_memory(source):
        chain_end = len(source)
    else:
        chain_end = source.seek(0, os.SEEK_END)
    remaining = None if to_eof else header.n_chunks
    resynced = False
    while offset < chain_end and remaining != 0:
        try:
            for record in iter_chunk_records(
                source, header, offset, remaining, chain_end
            ):
                yield ScanEvent(
                    "chunk", record.offset, record.end, record,
                    resynced=resynced,
                )
                resynced = False
                offset = record.end
                if remaining is not None:
                    remaining -= 1
        except IsobarError as exc:
            candidate = _resync(source, offset + 1, header, codec)
            if candidate is None or candidate >= chain_end:
                yield ScanEvent(
                    "gap", offset, chain_end, cause=str(exc),
                    resynced=resynced,
                )
                return
            yield ScanEvent(
                "gap", offset, candidate, cause=str(exc), resynced=resynced
            )
            offset = candidate
            resynced = True


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
    known = sum(e.meta.n_elements for e in events if e.meta is not None)
    gap_positions = [i for i, e in enumerate(events) if e.meta is None]
    deficit = max(int(header.n_elements) - int(known), 0)
    base, remainder = divmod(deficit, max(len(gap_positions), 1))
    estimates: dict[int, tuple[int, int]] = {}
    for rank, position in enumerate(gap_positions):
        n_elements = base + (remainder if rank == 0 else 0)
        n_chunks = 1
        if header.chunk_elements > 0:
            n_chunks = max(1, round(n_elements / header.chunk_elements))
        estimates[position] = (n_elements, n_chunks)
    return estimates


def decode_scan_events(
    source: bytes | BinaryIO,
    header: ContainerHeader,
    codec: Codec,
    events: list[ScanEvent],
    policy: str,
) -> Iterator[tuple[ChunkOutcome | None, np.ndarray | None]]:
    """The one lenient decode loop: one ``(outcome, piece)`` per event.

    Payloads are read from ``source`` (bytes or a seekable file) one
    event at a time.  The pieces, concatenated, are the salvaged
    elements: each recovered chunk and, under ``"zero_fill"``, zeros
    for each lost or corrupt region (``None`` under ``"skip"``), then
    a ``(None, zeros)`` pad up to ``header.n_elements``.  Under
    ``"raise"`` the first damaged region raises, located by chunk and
    byte offset.
    """
    gap_estimates = _estimate_gaps(events, header)
    zero_fill = policy == "zero_fill"
    ordinal = 0
    covered = 0
    for position, event in enumerate(events):
        chunk: np.ndarray | None = None
        if event.record is None:
            if policy == "raise":
                raise ContainerFormatError(
                    f"chunk {ordinal} at byte offset {event.start}: "
                    f"unreadable chunk record: {event.cause}"
                )
            n_elements, n_chunks = gap_estimates[position]
            outcome = ChunkOutcome(
                ordinal, "lost", event.start, event.end, n_elements,
                n_chunks, estimated=True, cause=event.cause,
            )
        else:
            n_elements, n_chunks = int(event.record.meta.n_elements), 1
            try:
                chunk = decode_chunk_payload(
                    header, codec, event.record.meta,
                    *event.record.payloads(source),
                    chunk_index=ordinal, byte_offset=event.start,
                )
            except IsobarError as exc:
                if policy == "raise":
                    raise
                outcome = ChunkOutcome(
                    ordinal, "corrupt", event.start, event.end, n_elements,
                    cause=str(exc),
                )
            else:
                outcome = ChunkOutcome(
                    ordinal, "recovered", event.start, event.end, n_elements
                )
        if chunk is None and zero_fill:
            chunk = np.zeros(n_elements, dtype=header.dtype)
        yield outcome, chunk
        ordinal += n_chunks
        covered += n_elements
    if zero_fill and covered < header.n_elements:
        yield None, np.zeros(header.n_elements - covered, dtype=header.dtype)


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
    report.outcomes = [outcome for outcome, _ in pieces if outcome is not None]

    merge_start = _time.perf_counter()
    chunks = [chunk for _, chunk in pieces if chunk is not None]
    values = (
        np.concatenate(chunks) if chunks else np.empty(0)
    ).astype(header.dtype, copy=False)
    # Zero fill keeps every element in place, so the header's shape
    # applies whenever it covers the output; a skip-decoded array only
    # takes it when nothing was lost from a fully declared container.
    if (
        header.shape
        and math.prod(header.shape) == values.size
        and (policy == "zero_fill" or (
            report.complete and not to_eof
            and values.size == header.n_elements
        ))
    ):
        values = values.reshape(header.shape)
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
