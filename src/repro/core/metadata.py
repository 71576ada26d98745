"""Container metadata: the ``M`` of Algorithm 1, in binary form.

Two records make up an ISOBAR container's bookkeeping (Figure 7):

* :class:`ContainerHeader` — the overall metadata written once by the
  EUPA-selector: element dtype and count, original shape, chosen solver
  and linearization, analyzer tolerance, chunking geometry.
* :class:`ChunkMetadata` — per-chunk metadata from the partitioner:
  element count, processing mode (partitioned vs passthrough), the
  compressibility mask, payload sizes and a CRC of the raw bytes.

Both serialize to compact little-endian structs with explicit magics
and validate on decode, raising :class:`ContainerFormatError` on any
inconsistency rather than fabricating data.

Every reader, strict or lenient, over container bytes or a seekable
file, walks the chain with :func:`iter_chunk_records` and finds the
trailing :class:`ContainerFooter` with :func:`locate_footer`.
"""

from __future__ import annotations

import enum
import os
import struct
import zlib
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterator

import numpy as np

from repro.core.exceptions import ContainerFormatError, TruncatedContainerError
from repro.core.preferences import Linearization, Preference

__all__ = [
    "FORMAT_VERSION",
    "FOOTER_VERSION",
    "ChunkMode",
    "ContainerHeader",
    "ChunkMetadata",
    "ChunkRecord",
    "ChunkIndexRecord",
    "ContainerFooter",
    "FooterLocation",
    "locate_footer",
    "chunk_record_nbytes",
    "iter_chunk_records",
    "encode_mask",
    "decode_mask",
]

FORMAT_VERSION = 1
FOOTER_VERSION = 1

_HEADER_MAGIC = b"ISBR"
_CHUNK_MAGIC = b"CHNK"
_FOOTER_MAGIC = b"ISIX"
_FOOTER_END_MAGIC = b"XISI"
_MAX_NAME = 255
_MAX_DIMS = 16
#: Longest chunk record any byte pattern can declare: magic, fixed
#: fields, a mask of up to 255 bytes and the two payload sizes.
_MAX_RECORD_NBYTES = 4 + struct.calcsize("<QBIB") + 255 + 16

#: Per-entry struct of the index footer:
#: ``(payload_offset, compressed_size, incompressible_size, n_elements)``.
_FOOTER_ENTRY_STRUCT = struct.Struct("<QQQQ")
#: Fixed head of the footer body: version + entry count.
_FOOTER_HEAD_STRUCT = struct.Struct("<HI")
#: Trailer after the body: CRC-32 of the body + total footer length.
_FOOTER_TAIL_STRUCT = struct.Struct("<II")
#: Bytes of trailer + end magic that follow the CRC-covered body.
_FOOTER_TAIL_NBYTES = _FOOTER_TAIL_STRUCT.size + 4
#: Bytes :func:`locate_footer` first reads from the end of a file.
_TAIL_PROBE = 4096

_LINEARIZATION_CODES = {Linearization.ROW: 0, Linearization.COLUMN: 1}
_LINEARIZATION_FROM_CODE = {v: k for k, v in _LINEARIZATION_CODES.items()}
_PREFERENCE_CODES = {Preference.RATIO: 0, Preference.SPEED: 1}
_PREFERENCE_FROM_CODE = {v: k for k, v in _PREFERENCE_CODES.items()}


class ChunkMode(enum.IntEnum):
    """How one chunk was processed (Algorithm 1's two branches, plus
    the resilience layer's degraded fallback encoding)."""

    #: Undetermined chunk: the whole chunk went through the solver.
    PASSTHROUGH = 0
    #: Improvable chunk: compressible columns solved, noise stored raw.
    PARTITIONED = 1
    #: Degraded chunk: the primary solver failed, so the raw chunk
    #: bytes were compressed with stdlib ``zlib`` instead (a standard
    #: zlib stream, independent of the codec registry).  The mask is
    #: all-False and the incompressible stream is empty.  See
    #: :mod:`repro.core.resilience`.
    FALLBACK_ZLIB = 2


def encode_mask(mask: np.ndarray) -> bytes:
    """Pack a boolean column mask into bytes, LSB-first."""
    arr = np.asarray(mask, dtype=bool)
    return np.packbits(arr.astype(np.uint8), bitorder="little").tobytes()


def decode_mask(data: bytes, width: int) -> np.ndarray:
    """Unpack ``width`` mask bits written by :func:`encode_mask`."""
    needed = (width + 7) // 8
    if len(data) < needed:
        raise TruncatedContainerError(
            f"mask needs {needed} bytes for width {width}, have {len(data)}"
        )
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, count=needed), bitorder="little"
    )
    return bits[:width].astype(bool)


def _need(data: bytes, pos: int, n_bytes: int, what: str) -> None:
    """Bounds-check a decode cursor; truncation must never surface as a
    bare ``struct.error`` or ``IndexError``."""
    if len(data) < pos + n_bytes:
        raise TruncatedContainerError(
            f"container truncated inside {what}: need {n_bytes} bytes at "
            f"offset {pos}, have {max(len(data) - pos, 0)}"
        )


@dataclass(frozen=True)
class ContainerHeader:
    """Global container metadata written once per compressed stream."""

    dtype: np.dtype
    n_elements: int
    shape: tuple[int, ...]
    codec_name: str
    linearization: Linearization
    preference: Preference
    tau: float
    chunk_elements: int
    n_chunks: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if len(self.codec_name.encode("utf-8")) > _MAX_NAME:
            raise ContainerFormatError(
                f"codec name too long ({len(self.codec_name)} chars)"
            )
        if len(self.shape) > _MAX_DIMS:
            raise ContainerFormatError(
                f"too many dimensions ({len(self.shape)} > {_MAX_DIMS})"
            )

    @property
    def element_width(self) -> int:
        """Element width ``w`` in bytes."""
        return self.dtype.itemsize

    def encode(self) -> bytes:
        """Serialize to the on-disk header record."""
        dtype_str = self.dtype.str.encode("ascii")
        codec = self.codec_name.encode("utf-8")
        parts = [
            _HEADER_MAGIC,
            struct.pack("<H", FORMAT_VERSION),
            struct.pack("<B", len(dtype_str)),
            dtype_str,
            struct.pack("<Q", self.n_elements),
            struct.pack("<B", len(self.shape)),
            struct.pack(f"<{len(self.shape)}q", *self.shape),
            struct.pack("<B", len(codec)),
            codec,
            struct.pack(
                "<BBdQI",
                _LINEARIZATION_CODES[self.linearization],
                _PREFERENCE_CODES[self.preference],
                self.tau,
                self.chunk_elements,
                self.n_chunks,
            ),
        ]
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["ContainerHeader", int]:
        """Parse a header record; returns ``(header, next_offset)``."""
        if len(data) < offset + 4:
            raise TruncatedContainerError(
                "container truncated inside header magic"
            )
        if data[offset:offset + 4] != _HEADER_MAGIC:
            raise ContainerFormatError("missing ISOBAR container magic")
        pos = offset + 4
        _need(data, pos, 2, "header version")
        (version,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if version != FORMAT_VERSION:
            raise ContainerFormatError(
                f"unsupported container version {version} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        _need(data, pos, 1, "header dtype length")
        dtype_len = data[pos]
        pos += 1
        _need(data, pos, dtype_len, "header dtype string")
        try:
            dtype = np.dtype(data[pos:pos + dtype_len].decode("ascii"))
        except (TypeError, UnicodeDecodeError) as exc:
            raise ContainerFormatError(f"invalid dtype in header: {exc}") from exc
        pos += dtype_len
        _need(data, pos, 9, "header element count")
        (n_elements,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        ndim = data[pos]
        pos += 1
        if ndim > _MAX_DIMS:
            raise ContainerFormatError(f"header declares {ndim} dimensions")
        _need(data, pos, 8 * ndim, "header shape")
        shape = struct.unpack_from(f"<{ndim}q", data, pos)
        pos += 8 * ndim
        _need(data, pos, 1, "header codec length")
        codec_len = data[pos]
        pos += 1
        _need(data, pos, codec_len, "header codec name")
        try:
            codec_name = data[pos:pos + codec_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerFormatError(
                f"invalid codec name in header: {exc}"
            ) from exc
        pos += codec_len
        _need(data, pos, struct.calcsize("<BBdQI"), "header trailer")
        lin_code, pref_code, tau, chunk_elements, n_chunks = struct.unpack_from(
            "<BBdQI", data, pos
        )
        pos += struct.calcsize("<BBdQI")
        if lin_code not in _LINEARIZATION_FROM_CODE:
            raise ContainerFormatError(f"unknown linearization code {lin_code}")
        if pref_code not in _PREFERENCE_FROM_CODE:
            raise ContainerFormatError(f"unknown preference code {pref_code}")
        header = cls(
            dtype=dtype,
            n_elements=n_elements,
            shape=tuple(shape),
            codec_name=codec_name,
            linearization=_LINEARIZATION_FROM_CODE[lin_code],
            preference=_PREFERENCE_FROM_CODE[pref_code],
            tau=tau,
            chunk_elements=chunk_elements,
            n_chunks=n_chunks,
        )
        return header, pos


@dataclass(frozen=True)
class ChunkMetadata:
    """Per-chunk record: mode, mask, payload sizes, integrity check."""

    n_elements: int
    mode: ChunkMode
    mask: np.ndarray
    compressed_size: int
    incompressible_size: int
    raw_crc32: int

    def encode(self) -> bytes:
        """Serialize the chunk record (excluding the payloads)."""
        mask_bytes = encode_mask(self.mask)
        return b"".join(
            [
                _CHUNK_MAGIC,
                struct.pack(
                    "<QBIB",
                    self.n_elements,
                    int(self.mode),
                    self.raw_crc32 & 0xFFFFFFFF,
                    len(mask_bytes),
                ),
                mask_bytes,
                struct.pack("<QQ", self.compressed_size, self.incompressible_size),
            ]
        )

    @classmethod
    def decode(
        cls, data: bytes, offset: int, element_width: int
    ) -> tuple["ChunkMetadata", int]:
        """Parse a chunk record; returns ``(metadata, next_offset)``."""
        if len(data) < offset + 4:
            raise TruncatedContainerError(
                "container truncated inside chunk magic"
            )
        if data[offset:offset + 4] != _CHUNK_MAGIC:
            raise ContainerFormatError("missing chunk magic (corrupt container)")
        pos = offset + 4
        _need(data, pos, struct.calcsize("<QBIB"), "chunk record fields")
        n_elements, mode_code, crc, mask_len = struct.unpack_from("<QBIB", data, pos)
        pos += struct.calcsize("<QBIB")
        try:
            mode = ChunkMode(mode_code)
        except ValueError:
            raise ContainerFormatError(f"unknown chunk mode {mode_code}") from None
        _need(data, pos, mask_len, "chunk mask")
        mask = decode_mask(data[pos:pos + mask_len], element_width)
        pos += mask_len
        if len(data) < pos + 16:
            raise TruncatedContainerError("truncated chunk size fields")
        compressed_size, incompressible_size = struct.unpack_from("<QQ", data, pos)
        pos += 16
        meta = cls(
            n_elements=n_elements,
            mode=mode,
            mask=mask,
            compressed_size=compressed_size,
            incompressible_size=incompressible_size,
            raw_crc32=crc,
        )
        return meta, pos


@dataclass(frozen=True)
class ChunkRecord:
    """One chunk of the chain, as :func:`iter_chunk_records` walks it."""

    index: int
    #: Absolute offset of the chunk's metadata record.
    offset: int
    meta: ChunkMetadata
    #: Absolute offset of the first payload byte (just after the record).
    payload_offset: int

    @property
    def compressed_end(self) -> int:
        """Offset one past the solver stream (start of the noise bytes)."""
        return self.payload_offset + self.meta.compressed_size

    @property
    def end(self) -> int:
        """Offset one past the chunk's last payload byte."""
        return self.compressed_end + self.meta.incompressible_size

    def payloads(self, source: bytes | BinaryIO) -> tuple[bytes, bytes]:
        """The chunk's solver stream and noise bytes, sliced from
        container bytes or read from a seekable binary file."""
        if _in_memory(source):
            return (
                source[self.payload_offset:self.compressed_end],
                source[self.compressed_end:self.end],
            )
        source.seek(self.payload_offset)
        return (
            source.read(self.meta.compressed_size),
            source.read(self.meta.incompressible_size),
        )


def _in_memory(source: bytes | BinaryIO) -> bool:
    return isinstance(source, (bytes, bytearray, memoryview))


def iter_chunk_records(
    source: bytes | BinaryIO,
    header: ContainerHeader,
    offset: int,
    n_chunks: int | None = None,
    chain_end: int | None = None,
) -> Iterator[ChunkRecord]:
    """Walk chunk records starting at ``offset``, lazily, over container
    bytes or a seekable binary file (read one record at a time, so the
    caller may read payloads from it between records).  A payload that
    runs past the chain end raises :class:`TruncatedContainerError`
    naming the chunk (counted from ``offset``) and its record offset.

    Strict readers pass no ``chain_end``: the walk yields exactly
    ``n_chunks`` (default ``header.n_chunks``) records of a chain that
    ends with the source.
    The salvage scanner passes ``chain_end`` (a validated footer's
    start): the walk then stops on reaching it, or after ``n_chunks``
    records when given, and is restarted past damage (see
    :mod:`repro.core.salvage`).
    """
    width = header.element_width
    in_memory = _in_memory(source)
    size = len(source) if in_memory else source.seek(0, os.SEEK_END)
    lenient = chain_end is not None
    if not lenient:
        chain_end = size
        n_chunks = header.n_chunks if n_chunks is None else n_chunks
    index = 0
    while index != n_chunks and not (lenient and offset >= chain_end):
        if in_memory:
            meta, payload_offset = ChunkMetadata.decode(source, offset, width)
        else:
            source.seek(offset)
            window = source.read(_MAX_RECORD_NBYTES)
            meta, consumed = ChunkMetadata.decode(window, 0, width)
            payload_offset = offset + consumed
        record = ChunkRecord(index, offset, meta, payload_offset)
        if record.end > chain_end:
            raise TruncatedContainerError(
                f"chunk {index} at byte offset {offset}: container "
                f"truncated inside chunk payload (payload ends at byte "
                f"{record.end}, chain ends at byte {chain_end})"
            )
        yield record
        offset = record.end
        index += 1


def chunk_record_nbytes(element_width: int) -> int:
    """Size in bytes of one chunk record for the given element width.

    The record layout is fixed given the header (`magic + <QBIB> +
    packed mask + <QQ>`), which is what lets a footer entry store only
    the *payload* offset: the record always starts exactly this many
    bytes earlier.
    """
    mask_len = (element_width + 7) // 8
    return 4 + struct.calcsize("<QBIB") + mask_len + 16


@dataclass(frozen=True)
class ChunkIndexRecord:
    """One index-footer entry: where a chunk's payload lives.

    ``payload_offset`` is the absolute container offset of the first
    payload byte (i.e. just *after* the chunk record);
    ``compressed_size`` / ``incompressible_size`` mirror the record's
    own size fields, and ``n_elements`` lets a reader build element
    spans without touching the chunk chain at all.
    """

    payload_offset: int
    compressed_size: int
    incompressible_size: int
    n_elements: int

    @property
    def payload_end(self) -> int:
        """Absolute offset one past the chunk's last payload byte."""
        return self.payload_offset + self.compressed_size + self.incompressible_size

    def record_offset(self, element_width: int) -> int:
        """Absolute offset of the chunk's metadata record."""
        return self.payload_offset - chunk_record_nbytes(element_width)


@dataclass(frozen=True)
class ContainerFooter:
    """Versioned, CRC-guarded chunk-index footer (bgzip-style).

    Appended after the last chunk so pre-footer readers — which stop
    after ``header.n_chunks`` records — never see it.  Layout::

        body    := "ISIX" u16:version u32:n_entries entry*
        entry   := u64:payload_offset u64:compressed_size
                   u64:incompressible_size u64:n_elements
        trailer := u32:crc32(body) u32:footer_len "XISI"

    ``footer_len`` is the total footer size (body + trailer), so a
    reader seeks ``footer_len`` back from EOF after validating the end
    magic.  Encoding is fully deterministic: rebuilding a footer from
    an undamaged chunk chain reproduces it byte-identically.
    """

    entries: tuple[ChunkIndexRecord, ...]
    version: int = FOOTER_VERSION

    @property
    def n_chunks(self) -> int:
        """Number of chunk entries in the index."""
        return len(self.entries)

    @property
    def n_elements(self) -> int:
        """Total elements covered by the indexed chunks."""
        return sum(entry.n_elements for entry in self.entries)

    def encode(self) -> bytes:
        """Serialize to the on-disk footer (deterministic)."""
        parts = [
            _FOOTER_MAGIC,
            _FOOTER_HEAD_STRUCT.pack(self.version, len(self.entries)),
        ]
        for entry in self.entries:
            parts.append(
                _FOOTER_ENTRY_STRUCT.pack(
                    entry.payload_offset,
                    entry.compressed_size,
                    entry.incompressible_size,
                    entry.n_elements,
                )
            )
        body = b"".join(parts)
        footer_len = len(body) + _FOOTER_TAIL_NBYTES
        return (
            body
            + _FOOTER_TAIL_STRUCT.pack(zlib.crc32(body) & 0xFFFFFFFF, footer_len)
            + _FOOTER_END_MAGIC
        )

    @property
    def encoded_nbytes(self) -> int:
        """Size of :meth:`encode`'s output without building it."""
        return (
            4
            + _FOOTER_HEAD_STRUCT.size
            + len(self.entries) * _FOOTER_ENTRY_STRUCT.size
            + _FOOTER_TAIL_NBYTES
        )


@dataclass(frozen=True)
class FooterLocation:
    """Outcome of :func:`locate_footer`.

    ``status`` is one of:

    * ``"ok"`` — ``footer`` holds the validated index, starting at
      absolute offset ``start``;
    * ``"absent"`` — no footer trailer at EOF (pre-footer container,
      or the footer was truncated away along with its end magic);
    * ``"truncated"`` — the trailer is present but the declared
      ``footer_len`` reaches before the start of the data;
    * ``"malformed"`` — the trailer is present but the body fails
      structural validation (bad leading magic, unknown version,
      length/entry-count disagreement);
    * ``"crc_mismatch"`` — structure parses but the body CRC fails.

    Anything other than ``"ok"`` leaves ``footer`` as ``None`` and
    readers fall back to the structural chunk-chain scan.
    """

    status: str
    footer: "ContainerFooter | None" = None
    start: int = -1
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True when a validated footer was found."""
        return self.status == "ok"


def locate_footer(source: bytes | BinaryIO) -> FooterLocation:
    """Discover and validate an index footer by seeking from EOF.

    ``source`` is the container's bytes (or a slice of them ending at
    EOF; ``start`` is then relative to the slice) or a seekable binary
    file, read from its tail only: one ``_TAIL_PROBE``-byte read covers
    footers of up to ~127 chunks, and a longer one costs exactly one
    more.  Never raises on damage — every failure mode maps to a
    :class:`FooterLocation` status so callers can fall back to the
    structural scan.
    """
    if _in_memory(source):
        return _parse_footer(source)
    size = source.seek(0, os.SEEK_END)
    probe_len = min(size, _TAIL_PROBE)
    source.seek(size - probe_len)
    tail = source.read(probe_len)
    location = _parse_footer(tail)
    if location.status == "truncated" and probe_len < size:
        # The trailer declares a footer longer than the probe — not
        # necessarily damage.  Re-read exactly footer_len bytes and
        # classify again; a genuinely impossible length stays
        # "truncated".
        (footer_len,) = struct.unpack_from("<I", tail, len(tail) - 8)
        if footer_len <= size:
            source.seek(size - footer_len)
            tail = source.read(footer_len)
            location = _parse_footer(tail)
    if location.start < 0:
        return location
    return replace(location, start=location.start + size - len(tail))


def _parse_footer(data: bytes) -> FooterLocation:
    """Classify the footer at the end of ``data`` (see :func:`locate_footer`)."""
    min_len = 4 + _FOOTER_HEAD_STRUCT.size + _FOOTER_TAIL_NBYTES
    if len(data) < min_len:
        return FooterLocation("absent", detail="stream shorter than any footer")
    if data[-4:] != _FOOTER_END_MAGIC:
        return FooterLocation("absent", detail="no footer end magic at EOF")
    crc_stored, footer_len = _FOOTER_TAIL_STRUCT.unpack_from(
        data, len(data) - _FOOTER_TAIL_NBYTES
    )
    if footer_len < min_len or footer_len > len(data):
        return FooterLocation(
            "truncated",
            detail=(
                f"footer declares {footer_len} bytes but only "
                f"{len(data)} are available"
            ),
        )
    start = len(data) - footer_len
    body = data[start:len(data) - _FOOTER_TAIL_NBYTES]
    if body[:4] != _FOOTER_MAGIC:
        return FooterLocation(
            "malformed", start=start, detail="footer leading magic missing"
        )
    version, n_entries = _FOOTER_HEAD_STRUCT.unpack_from(body, 4)
    if version != FOOTER_VERSION:
        return FooterLocation(
            "malformed", start=start,
            detail=f"unsupported footer version {version}",
        )
    expected_body = 4 + _FOOTER_HEAD_STRUCT.size + n_entries * _FOOTER_ENTRY_STRUCT.size
    if expected_body != len(body):
        return FooterLocation(
            "malformed", start=start,
            detail=(
                f"footer declares {n_entries} entries "
                f"({expected_body} body bytes) but spans {len(body)}"
            ),
        )
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        return FooterLocation(
            "crc_mismatch", start=start, detail="footer body CRC-32 mismatch"
        )
    pos = 4 + _FOOTER_HEAD_STRUCT.size
    entries = []
    for _ in range(n_entries):
        payload_offset, compressed, incompressible, n_elements = (
            _FOOTER_ENTRY_STRUCT.unpack_from(body, pos)
        )
        pos += _FOOTER_ENTRY_STRUCT.size
        entries.append(
            ChunkIndexRecord(
                payload_offset=payload_offset,
                compressed_size=compressed,
                incompressible_size=incompressible,
                n_elements=n_elements,
            )
        )
    footer = ContainerFooter(entries=tuple(entries), version=version)
    return FooterLocation("ok", footer=footer, start=start)
