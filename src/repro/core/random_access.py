"""Random access into ISOBAR containers (database-style reads).

One reader, :class:`ContainerFile`, serves point and range queries
without decompressing whole streams, over a container held in memory,
a file path or a seekable binary file object.  It opens via the
trailing chunk-index footer in **O(footer)** work (header + footer
reads only, no chain scan) and seeks straight to chunk records.  When
the footer is missing, truncated, CRC-damaged or inconsistent with the
header, it falls back transparently to the structural scan (emitting
``isobar_container_footer_fallback_total{reason=}``), so pre-footer
containers and damaged archives stay readable.
:class:`ContainerReader` is the same reader under its in-memory name.

The query surface —

* ``read_chunk(i)`` — decode exactly one chunk;
* ``read_range(start, stop)`` — decode only the chunks overlapping an
  element range and slice out the requested elements;
* ``element(i)`` — point lookup

— shares one ``errors=`` damage policy and ``cache_chunks=`` LRU
bound.  For ICDE's query workloads this is the payoff of chunked
framing: a range read touches ``O(range / chunk_elements)`` chunks
instead of the whole stream.
"""

from __future__ import annotations

import bisect
import io
import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from repro.codecs.base import Codec, get_codec
from repro.core.exceptions import (
    ConfigurationError,
    ContainerFormatError,
    InvalidInputError,
    IsobarError,
)
from repro.core.metadata import (
    ChunkMetadata,
    ContainerFooter,
    ContainerHeader,
    chunk_record_nbytes,
    iter_chunk_records,
    locate_footer,
)
from repro.core.pipeline import decode_chunk_payload
from repro.core.preferences import normalize_errors
from repro.observability.instruments import PipelineInstruments
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry

__all__ = ["ChunkIndexEntry", "ContainerFile", "ContainerReader"]

#: Bytes read from the start of a file to parse the global header
#: (generous: headers are well under 1 KiB).
_HEADER_PROBE = 4096


@dataclass(frozen=True)
class ChunkIndexEntry:
    """Location of one chunk inside the container byte stream."""

    index: int
    element_start: int
    element_stop: int
    payload_offset: int
    compressed_size: int = 0
    incompressible_size: int = 0

    @property
    def n_elements(self) -> int:
        """Elements covered by this chunk."""
        return self.element_stop - self.element_start

    @property
    def payload_end(self) -> int:
        """Absolute offset one past this chunk's last payload byte."""
        return self.payload_offset + self.compressed_size + self.incompressible_size


def _scan_index(
    source: BinaryIO, header: ContainerHeader, offset: int
) -> list[ChunkIndexEntry]:
    """Build the chunk index by walking the metadata chain (O(n_chunks)).

    The pre-footer open path, still used for footer-less containers and
    as the fallback when a footer cannot be trusted.
    """
    index: list[ChunkIndexEntry] = []
    element_cursor = 0
    for record in iter_chunk_records(source, header, offset):
        meta = record.meta
        index.append(
            ChunkIndexEntry(
                index=record.index,
                element_start=element_cursor,
                element_stop=element_cursor + meta.n_elements,
                payload_offset=record.payload_offset,
                compressed_size=meta.compressed_size,
                incompressible_size=meta.incompressible_size,
            )
        )
        element_cursor += meta.n_elements
    if element_cursor != header.n_elements:
        raise ContainerFormatError(
            f"index covers {element_cursor} elements, header declares "
            f"{header.n_elements}"
        )
    return index


def _footer_index(
    footer: ContainerFooter, header: ContainerHeader, header_end: int,
    chain_end: int,
) -> list[ChunkIndexEntry] | None:
    """Build the chunk index from a validated footer — O(n_entries)
    arithmetic, no payload or record reads.

    Returns ``None`` when the footer disagrees with the header or does
    not tile the chunk region exactly (a stale footer after an append,
    or an index for some other version of the file) — the caller then
    falls back to the structural scan.
    """
    if footer.n_chunks != header.n_chunks:
        return None
    index: list[ChunkIndexEntry] = []
    element_cursor = 0
    cursor = header_end
    record_nbytes = chunk_record_nbytes(header.element_width)
    for i, entry in enumerate(footer.entries):
        if entry.payload_offset - record_nbytes != cursor:
            return None
        index.append(
            ChunkIndexEntry(
                index=i,
                element_start=element_cursor,
                element_stop=element_cursor + entry.n_elements,
                payload_offset=entry.payload_offset,
                compressed_size=entry.compressed_size,
                incompressible_size=entry.incompressible_size,
            )
        )
        element_cursor += entry.n_elements
        cursor = entry.payload_end
    if cursor != chain_end or element_cursor != header.n_elements:
        return None
    return index


class _ChunkCache:
    """LRU memoisation of decoded chunks.

    ``capacity=None`` keeps every decoded chunk (the historical
    behaviour, right for small containers); an integer bounds the
    cache so long-lived range-serving readers cannot grow without
    limit; ``0`` disables caching entirely.
    """

    def __init__(self, capacity: int | None):
        if capacity is not None and capacity < 0:
            raise ConfigurationError(
                f"cache_chunks must be None or >= 0, got {capacity}"
            )
        self._capacity = capacity
        self._entries: OrderedDict[int, np.ndarray] = OrderedDict()

    def get(self, index: int) -> np.ndarray | None:
        chunk = self._entries.get(index)
        if chunk is not None and self._capacity is not None:
            self._entries.move_to_end(index)
        return chunk

    def put(self, index: int, chunk: np.ndarray) -> None:
        if self._capacity == 0:
            return
        self._entries[index] = chunk
        if self._capacity is not None:
            self._entries.move_to_end(index)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class ContainerFile:
    """Random access into a container with O(1) open via the index footer.

    Opening reads only the header prefix and the trailing footer —
    cost proportional to the footer, independent of payload size — and
    each ``read_chunk`` then seeks directly to its record.  When the
    footer cannot be used (missing on pre-footer containers, truncated,
    CRC-failed, or inconsistent with the header) the reader falls back
    transparently to walking the chunk chain, and counts the event
    under ``isobar_container_footer_fallback_total{reason=}``.

    ``source`` is a bytes-like container, a filesystem path or a
    seekable binary file object.  Bytes are wrapped in
    :class:`io.BytesIO`, which shares rather than copies a ``bytes``
    buffer; bytes and path-opened handles are owned and closed by
    :meth:`close` / the context manager, a caller-provided handle stays
    the caller's.  Instances are not thread-safe: they share one seek
    cursor.

    ``errors`` selects the shared damage policy: ``"raise"`` (default)
    propagates the located exception of the first damaged chunk read;
    ``"salvage-skip"`` yields an empty chunk in its place (range reads
    simply drop the lost elements); ``"salvage-zero"`` substitutes zero
    elements of the declared chunk length, keeping element positions
    stable.  Damage to a chunk record or payload surfaces when that
    chunk is read, under this policy.

    ``cache_chunks`` bounds the decoded-chunk memoisation: ``None``
    (default) keeps every decoded chunk, an integer keeps an LRU of at
    most that many, ``0`` disables caching.
    """

    def __init__(
        self,
        source: bytes | bytearray | memoryview | str | os.PathLike | BinaryIO,
        *,
        errors: str = "raise",
        cache_chunks: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        registry = NULL_REGISTRY if metrics is None else metrics
        self._instruments = PipelineInstruments(registry)
        # Arguments are checked before a handle is opened, so a bad
        # one cannot leak it.
        self._errors = normalize_errors(errors)
        self._cache = _ChunkCache(cache_chunks)
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._file: BinaryIO = io.BytesIO(source)
            self._owned = True
        elif isinstance(source, (str, os.PathLike)):
            self._file = open(source, "rb")
            self._owned = True
        else:
            self._file = source
            self._owned = False
        self._closed = False
        self._fallback_reason: str | None = None
        try:
            self._header, self._index = self._open_index()
            self._codec: Codec = get_codec(self._header.codec_name)
        except BaseException:
            if self._owned:
                self._file.close()
            raise
        self._starts = [entry.element_start for entry in self._index]

    def _open_index(self) -> tuple[ContainerHeader, list[ChunkIndexEntry]]:
        prefix = self._pread(0, _HEADER_PROBE)
        header, header_end = ContainerHeader.decode(prefix)
        location = locate_footer(self._file)
        if location.ok:
            assert location.footer is not None
            index = _footer_index(
                location.footer, header, header_end, location.start
            )
            if index is not None:
                return header, index
            reason = "inconsistent"
        else:
            reason = location.status

        # Fallback: the structural scan of the chunk chain, one record
        # read per chunk.  Strictly worse than the footer path
        # (O(n_chunks) reads) but keeps every pre-footer and damaged
        # container readable.
        self._fallback_reason = reason
        self._instruments.footer_fallback.inc(1, reason=reason)
        return header, _scan_index(self._file, header, header_end)

    def _pread(self, offset: int, n_bytes: int) -> bytes:
        self._file.seek(offset)
        return self._file.read(n_bytes)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Release the underlying file handle (owned handles only)."""
        if self._closed:
            return
        self._closed = True
        if self._owned:
            self._file.close()

    def __enter__(self) -> "ContainerFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ----------------------------------------------------

    @property
    def opened_via(self) -> str:
        """``"footer"`` (O(1) open) or ``"scan"`` (fallback walk)."""
        return "scan" if self._fallback_reason is not None else "footer"

    @property
    def fallback_reason(self) -> str | None:
        """Why the footer was unusable (``None`` on the footer path)."""
        return self._fallback_reason

    @property
    def header(self) -> ContainerHeader:
        """The container's global header."""
        return self._header

    @property
    def n_elements(self) -> int:
        """Total elements stored."""
        return self._header.n_elements

    @property
    def n_chunks(self) -> int:
        """Number of chunks in the container."""
        return self._header.n_chunks

    @property
    def cached_chunks(self) -> int:
        """Decoded chunks currently memoised."""
        return len(self._cache)

    def chunk_index(self) -> tuple[ChunkIndexEntry, ...]:
        """The full chunk index (spans and payload offsets)."""
        return tuple(self._index)

    def chunk_for_element(self, position: int) -> ChunkIndexEntry:
        """Index entry of the chunk containing element ``position``."""
        if not 0 <= position < self.n_elements:
            raise InvalidInputError(
                f"element {position} out of range [0, {self.n_elements})"
            )
        i = bisect.bisect_right(self._starts, position) - 1
        return self._index[i]

    # -- decoding ---------------------------------------------------------

    def _load_chunk(self, entry: ChunkIndexEntry) -> np.ndarray:
        """Read one chunk's record and payloads, check the record against
        the index entry, and decode it (one seek, one read)."""
        record_nbytes = chunk_record_nbytes(self._header.element_width)
        record_offset = entry.payload_offset - record_nbytes
        blob = self._pread(
            record_offset,
            record_nbytes + entry.compressed_size + entry.incompressible_size,
        )
        meta, payload_pos = ChunkMetadata.decode(
            blob, 0, self._header.element_width
        )
        if (
            meta.compressed_size != entry.compressed_size
            or meta.incompressible_size != entry.incompressible_size
            or meta.n_elements != entry.n_elements
        ):
            raise ContainerFormatError(
                f"chunk {entry.index} at byte offset {record_offset}: "
                "chunk record disagrees with the chunk index "
                "(container modified after indexing?)"
            )
        compressed_end = payload_pos + entry.compressed_size
        return decode_chunk_payload(
            self._header, self._codec, meta,
            blob[payload_pos:compressed_end], blob[compressed_end:],
            chunk_index=entry.index, byte_offset=record_offset,
        )

    def read_chunk(self, index: int) -> np.ndarray:
        """Decode exactly one chunk (memoised per ``cache_chunks``)."""
        if not 0 <= index < self.n_chunks:
            raise InvalidInputError(
                f"chunk {index} out of range [0, {self.n_chunks})"
            )
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        entry = self._index[index]
        try:
            chunk = self._load_chunk(entry)
        except IsobarError:
            if self._errors == "raise":
                raise
            if self._errors == "salvage-zero":
                chunk = np.zeros(entry.n_elements, dtype=self._header.dtype)
            else:  # salvage-skip: the chunk's elements are simply gone
                chunk = np.empty(0, dtype=self._header.dtype)
        self._cache.put(index, chunk)
        return chunk

    def read_range(self, start: int, stop: int) -> np.ndarray:
        """Decode elements ``[start, stop)``, touching only needed chunks."""
        if not 0 <= start <= stop <= self.n_elements:
            raise InvalidInputError(
                f"range [{start}, {stop}) out of bounds for "
                f"{self.n_elements} elements"
            )
        if start == stop:
            return np.empty(0, dtype=self._header.dtype)
        first = self.chunk_for_element(start).index
        last = self.chunk_for_element(stop - 1).index
        pieces = []
        for i in range(first, last + 1):
            entry = self._index[i]
            chunk = self.read_chunk(i)
            lo = max(start, entry.element_start) - entry.element_start
            hi = min(stop, entry.element_stop) - entry.element_start
            pieces.append(chunk[lo:hi])
        # concatenate() normalises byte order to native; restore the
        # header's exact dtype.
        return np.concatenate(pieces).astype(self._header.dtype, copy=False)

    def element(self, position: int) -> np.generic:
        """Point lookup of a single element.

        Under ``errors="salvage-skip"`` a position inside a damaged
        chunk has no value to return; that read raises
        :class:`~repro.core.exceptions.ContainerFormatError` (use
        ``"salvage-zero"`` to keep point lookups total).
        """
        entry = self.chunk_for_element(position)
        chunk = self.read_chunk(entry.index)
        offset = position - entry.element_start
        if offset >= chunk.size:
            raise ContainerFormatError(
                f"chunk {entry.index}: element {position} was lost to a "
                "damaged chunk (errors='salvage-skip')"
            )
        return chunk[offset]

    def read_all(self) -> np.ndarray:
        """Decode the whole container (equivalent to the pipeline path).

        The result takes the header's shape when it holds exactly the
        declared elements; a ``salvage-skip`` read that lost chunks
        stays flat.
        """
        flat = self.read_range(0, self.n_elements)
        shape = self._header.shape
        if shape and math.prod(shape) == self.n_elements == flat.size:
            return flat.reshape(shape)
        return flat


#: The benchmark's span ledger wraps the read methods through this name.
_RangeReaderBase = ContainerFile


class ContainerReader(ContainerFile):
    """The in-memory spelling of :class:`ContainerFile`:
    ``ContainerReader(data)`` is ``ContainerFile(data)``."""

    # Owned, not inherited: the benchmark's span ledger wraps
    # ``_load_chunk`` on both classes with getattr/setattr, and only a
    # class's own attribute is put back exactly by its uninstall; an
    # alias (ContainerReader = ContainerFile) would be wrapped twice.
    _load_chunk = ContainerFile._load_chunk
