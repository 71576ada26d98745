"""Deterministic fault injection for ISOBAR containers.

Every injector is a pure function ``bytes -> bytes`` (the input is
never mutated) and every random choice is driven by an explicit seed,
so a failing fuzz case reproduces exactly from its ``(fault, seed)``
pair.  The injectors model the corruption classes a real archive
meets:

* **bit flips** — cosmic-ray / disk-rot single-bit damage;
* **byte-range zeroing** — a lost disk sector or NUL-filled hole;
* **truncation** — an interrupted download or a crashed writer;
* **whole-chunk deletion** — a dropped object-store part;
* **magic damage** — header or chunk framing destroyed;
* **index-footer damage** — a torn tail write, a truncation inside the
  footer, a bit-flipped footer CRC, or a stale footer left behind by
  an in-place append.

:func:`inject` is the uniform driver used by the corruption-matrix
tests and the fuzz smoke benchmark: give it a fault name from
:data:`FAULT_TYPES` and a seed, get back the damaged container plus a
human-readable description of exactly what was done to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from repro.core.exceptions import InvalidInputError
from repro.core.metadata import (
    ChunkMetadata,
    ContainerHeader,
    iter_chunk_records,
    locate_footer,
)

__all__ = [
    "FAULT_TYPES",
    "InjectedFault",
    "chunk_chain_end",
    "chunk_extents",
    "corrupt_chunk_magic",
    "corrupt_header_magic",
    "delete_chunk",
    "flip_bit",
    "flip_footer_crc",
    "inject",
    "stale_footer",
    "truncate",
    "truncate_footer",
    "zero_range",
]

#: Names accepted by :func:`inject`, one per corruption class.
FAULT_TYPES = (
    "bit_flip",
    "zero_range",
    "truncate",
    "delete_chunk",
    "chunk_magic",
    "header_magic",
    "torn_tail",
    "truncate_footer",
    "footer_crc",
    "stale_footer",
)

#: Width of the footer trailer's stored CRC-32 field, counted back from
#: EOF: ``crc32`` (4) + ``footer_len`` (4) + end magic (4).
_FOOTER_CRC_OFFSET_FROM_EOF = 12


@dataclass(frozen=True)
class InjectedFault:
    """One applied fault: the damaged bytes plus its provenance."""

    fault: str
    seed: int
    description: str
    data: bytes


# -- primitive injectors --------------------------------------------------


def flip_bit(data: bytes, bit_index: int) -> bytes:
    """Flip one bit; ``bit_index`` counts from bit 0 of byte 0."""
    if not 0 <= bit_index < len(data) * 8:
        raise InvalidInputError(
            f"bit_index {bit_index} out of range for {len(data)} bytes"
        )
    damaged = bytearray(data)
    damaged[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(damaged)


def zero_range(data: bytes, start: int, length: int) -> bytes:
    """Overwrite ``[start, start+length)`` with NUL bytes (clamped)."""
    if start < 0 or length < 0:
        raise InvalidInputError(
            f"zero_range needs non-negative start/length, got "
            f"{start}/{length}"
        )
    stop = min(start + length, len(data))
    damaged = bytearray(data)
    damaged[start:stop] = b"\x00" * max(stop - start, 0)
    return bytes(damaged)


def truncate(data: bytes, keep_bytes: int) -> bytes:
    """Keep only the first ``keep_bytes`` bytes."""
    if keep_bytes < 0:
        raise InvalidInputError(f"keep_bytes must be >= 0, got {keep_bytes}")
    return data[:keep_bytes]


def corrupt_header_magic(data: bytes) -> bytes:
    """Destroy the 4-byte ``ISBR`` container magic."""
    damaged = bytearray(data)
    damaged[0:4] = b"XXXX"[: min(4, len(damaged))]
    return bytes(damaged)


# -- container-aware injectors -------------------------------------------


def chunk_extents(data: bytes) -> list[tuple[int, int]]:
    """Byte extents ``[(start, end), ...]`` of each chunk in a *clean*
    container (record + payloads).  Used to aim structural faults."""
    header, offset = ContainerHeader.decode(data)
    return [
        (record.offset, record.end)
        for record in iter_chunk_records(data, header, offset)
    ]


def chunk_chain_end(data: bytes) -> int:
    """Byte offset one past the last chunk of a *clean* container.

    Equals ``len(data)`` for pre-footer containers and the footer's
    start otherwise.  Tests use this to aim damage at the last chunk's
    payload rather than the (independently repairable) index footer.
    """
    extents = chunk_extents(data)
    if extents:
        return extents[-1][1]
    header, offset = ContainerHeader.decode(data)
    return offset


def _require_chunk(data: bytes, index: int) -> tuple[int, int]:
    extents = chunk_extents(data)
    if not 0 <= index < len(extents):
        raise InvalidInputError(
            f"chunk index {index} out of range for {len(extents)} chunks"
        )
    return extents[index]


def delete_chunk(data: bytes, index: int) -> bytes:
    """Remove chunk ``index`` entirely (record and payloads)."""
    start, end = _require_chunk(data, index)
    return data[:start] + data[end:]


def corrupt_chunk_magic(data: bytes, index: int) -> bytes:
    """Destroy chunk ``index``'s 4-byte ``CHNK`` framing magic."""
    start, _ = _require_chunk(data, index)
    damaged = bytearray(data)
    damaged[start:start + 4] = b"XXXX"
    return bytes(damaged)


# -- footer-aware injectors ----------------------------------------------


def truncate_footer(data: bytes, cut_bytes: int) -> bytes:
    """Cut ``cut_bytes`` off the end, strictly inside the index footer.

    Models a tail write that made it partway through the footer: the
    chunk chain stays intact, but footer discovery fails (the end magic
    or trailer is gone) and readers must fall back to the scan.
    """
    location = locate_footer(data)
    if not location.ok:
        raise InvalidInputError(
            "container has no validated index footer to truncate"
        )
    footer_len = len(data) - location.start
    if not 1 <= cut_bytes < footer_len:
        raise InvalidInputError(
            f"cut_bytes must be in [1, {footer_len}), got {cut_bytes}"
        )
    return data[:len(data) - cut_bytes]


def flip_footer_crc(data: bytes, bit: int) -> bytes:
    """Flip one bit of the footer trailer's stored CRC-32 field.

    The footer stays structurally perfect — magics, length and entries
    all parse — but validation fails, exercising the ``crc_mismatch``
    fallback rather than the structural ones.
    """
    location = locate_footer(data)
    if not location.ok:
        raise InvalidInputError(
            "container has no validated index footer to damage"
        )
    if not 0 <= bit < 32:
        raise InvalidInputError(f"bit must be in [0, 32), got {bit}")
    crc_start = len(data) - _FOOTER_CRC_OFFSET_FROM_EOF
    return flip_bit(data, crc_start * 8 + bit)


def stale_footer(data: bytes, chunk_index: int) -> bytes:
    """Append a copy of chunk ``chunk_index`` without refreshing the
    footer — the signature damage of a naive in-place append.

    The header's element/chunk counts are patched (the append itself is
    structurally valid), but the old footer still indexes the original
    chain: it validates by CRC yet disagrees with the header, so
    readers must detect the inconsistency and fall back to the scan.
    """
    location = locate_footer(data)
    if not location.ok:
        raise InvalidInputError(
            "container has no validated index footer to stale-date"
        )
    start, end = _require_chunk(data, chunk_index)
    header, header_end = ContainerHeader.decode(data)
    meta, _ = ChunkMetadata.decode(data, start, header.element_width)
    n_elements = header.n_elements + meta.n_elements
    patched = _dc_replace(
        header,
        n_elements=n_elements,
        shape=(n_elements,),
        n_chunks=header.n_chunks + 1,
    )
    encoded = patched.encode()
    if len(encoded) != header_end:
        raise InvalidInputError(
            "cannot patch header counts in place "
            f"(shape {header.shape} re-encodes to a different length)"
        )
    return (
        encoded
        + data[header_end:location.start]
        + data[start:end]
        + data[location.start:]
    )


# -- seeded driver --------------------------------------------------------


def inject(data: bytes, fault: str, seed: int) -> InjectedFault:
    """Apply one named fault with all random choices drawn from ``seed``.

    The same ``(data, fault, seed)`` triple always produces the same
    damage.  Structural faults (``delete_chunk``, ``chunk_magic``)
    require a container with at least one chunk, and the footer faults
    (``torn_tail``, ``truncate_footer``, ``footer_crc``,
    ``stale_footer``) require a validated index footer; on input
    without one they degrade to a header-area bit flip so the driver
    stays total.
    """
    if fault not in FAULT_TYPES:
        raise InvalidInputError(
            f"unknown fault {fault!r}; expected one of {', '.join(FAULT_TYPES)}"
        )
    if not data:
        raise InvalidInputError("cannot inject a fault into empty bytes")
    rng = np.random.default_rng(seed)

    if fault == "bit_flip":
        bit = int(rng.integers(0, len(data) * 8))
        return InjectedFault(
            fault, seed, f"flipped bit {bit} (byte {bit // 8})",
            flip_bit(data, bit),
        )
    if fault == "zero_range":
        start = int(rng.integers(0, len(data)))
        length = int(rng.integers(1, max(len(data) // 16, 2)))
        return InjectedFault(
            fault, seed, f"zeroed bytes [{start}, {start + length})",
            zero_range(data, start, length),
        )
    if fault == "truncate":
        keep = int(rng.integers(0, len(data)))
        return InjectedFault(
            fault, seed, f"truncated to {keep} of {len(data)} bytes",
            truncate(data, keep),
        )
    if fault == "header_magic":
        return InjectedFault(
            fault, seed, "destroyed the ISBR header magic",
            corrupt_header_magic(data),
        )

    if fault in ("torn_tail", "truncate_footer", "footer_crc",
                 "stale_footer"):
        location = locate_footer(data)
        if not location.ok:
            bit = int(rng.integers(0, min(len(data), 16) * 8))
            return InjectedFault(
                fault, seed,
                f"no index footer to target; flipped header bit {bit} "
                "instead",
                flip_bit(data, bit),
            )
        footer_len = len(data) - location.start
        if fault == "torn_tail":
            # A tail write that died partway: the cut lands anywhere in
            # the footer or the trailing bytes of the last chunk.
            reach = min(len(data) - 1, footer_len + 64)
            cut = int(rng.integers(1, reach + 1))
            return InjectedFault(
                fault, seed,
                f"torn tail write: truncated the last {cut} bytes "
                f"(footer is {footer_len})",
                truncate(data, len(data) - cut),
            )
        if fault == "truncate_footer":
            cut = int(rng.integers(1, footer_len))
            return InjectedFault(
                fault, seed,
                f"truncated {cut} of the footer's {footer_len} bytes",
                truncate_footer(data, cut),
            )
        if fault == "footer_crc":
            bit = int(rng.integers(0, 32))
            return InjectedFault(
                fault, seed,
                f"flipped bit {bit} of the footer's stored CRC-32",
                flip_footer_crc(data, bit),
            )
        try:
            n_chunks = len(chunk_extents(data))
        except Exception:
            n_chunks = 0
        if n_chunks == 0:
            bit = int(rng.integers(0, min(len(data), 16) * 8))
            return InjectedFault(
                fault, seed,
                f"no chunks to duplicate; flipped header bit {bit} instead",
                flip_bit(data, bit),
            )
        index = int(rng.integers(0, n_chunks))
        try:
            damaged = stale_footer(data, index)
        except InvalidInputError:
            bit = int(rng.integers(0, min(len(data), 16) * 8))
            return InjectedFault(
                fault, seed,
                "header not patchable in place; flipped header bit "
                f"{bit} instead",
                flip_bit(data, bit),
            )
        return InjectedFault(
            fault, seed,
            f"appended a copy of chunk {index} without refreshing the "
            "footer",
            damaged,
        )

    # Structural faults need a chunk to aim at.
    try:
        n_chunks = len(chunk_extents(data))
    except Exception:
        n_chunks = 0
    if n_chunks == 0:
        bit = int(rng.integers(0, min(len(data), 16) * 8))
        return InjectedFault(
            fault, seed,
            f"no chunks to target; flipped header bit {bit} instead",
            flip_bit(data, bit),
        )
    index = int(rng.integers(0, n_chunks))
    if fault == "delete_chunk":
        return InjectedFault(
            fault, seed, f"deleted chunk {index} of {n_chunks}",
            delete_chunk(data, index),
        )
    return InjectedFault(
        fault, seed, f"destroyed chunk {index}'s CHNK magic",
        corrupt_chunk_magic(data, index),
    )
