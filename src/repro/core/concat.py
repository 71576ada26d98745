"""Container concatenation: recompression-free appends.

Time-series archives grow by appending timesteps.  Because ISOBAR
chunks are independent, two containers written with the same dtype,
solver and linearization can be merged by *re-framing alone*: the chunk
records and payloads are copied verbatim and only the global header's
element/chunk counts change.  No payload is decompressed or
recompressed, so concatenation runs at memcpy speed and is exactly
lossless by construction.

Each input's chunk-index footer (if any) is stripped — its offsets are
meaningless after re-framing — and the merged container gets a fresh
footer indexing the combined chain, so the result opens in O(1) like
any directly written container.

Constraints checked before merging (mismatches raise):

* identical dtype (bit-exactness would otherwise be ambiguous);
* identical codec and linearization (chunks must decode uniformly —
  the container format records one solver per stream);
* the merged shape becomes 1-D (original multidimensional shapes are
  not meaningfully concatenable in general).
"""

from __future__ import annotations

from repro.core.exceptions import ContainerFormatError, InvalidInputError
from repro.core.metadata import (
    ChunkIndexRecord,
    ContainerFooter,
    ContainerHeader,
    iter_chunk_records,
    locate_footer,
)

__all__ = ["concat_containers", "split_container_header"]


def split_container_header(data: bytes) -> tuple[ContainerHeader, bytes]:
    """Parse a container into ``(header, chunk_stream_bytes)``.

    Walks the chunk records to validate the stream reaches exactly the
    end of the payload.  A validated chunk-index footer after the last
    chunk is stripped (the merge re-frames the chunks, so per-container
    offsets no longer apply); anything else trailing is rejected to
    keep the merge well-defined.
    """
    header, chunk_start = ContainerHeader.decode(data)
    offset = chunk_start
    elements = 0
    for record in iter_chunk_records(data, header, chunk_start):
        offset = record.end
        elements += record.meta.n_elements
    if elements != header.n_elements:
        raise ContainerFormatError(
            f"chunks cover {elements} elements, header declares "
            f"{header.n_elements}"
        )
    if offset != len(data):
        location = locate_footer(data)
        if not (location.ok and location.start == offset):
            raise ContainerFormatError(
                f"{len(data) - offset} trailing bytes after the last chunk"
            )
    return header, data[chunk_start:offset]


def concat_containers(containers: list[bytes]) -> bytes:
    """Merge containers into one, copying chunk payloads verbatim.

    The result decompresses to the concatenation of the inputs'
    element streams (flattened 1-D) and carries a freshly built
    chunk-index footer over the merged chain.
    """
    if not containers:
        raise InvalidInputError("need at least one container to concatenate")
    parsed = [split_container_header(data) for data in containers]
    first = parsed[0][0]
    for header, _ in parsed[1:]:
        if header.dtype != first.dtype:
            raise InvalidInputError(
                f"dtype mismatch: {header.dtype} vs {first.dtype}"
            )
        if header.codec_name != first.codec_name:
            raise InvalidInputError(
                f"codec mismatch: {header.codec_name} vs {first.codec_name}"
            )
        if header.linearization != first.linearization:
            raise InvalidInputError(
                f"linearization mismatch: {header.linearization.value} vs "
                f"{first.linearization.value}"
            )

    total_elements = sum(header.n_elements for header, _ in parsed)
    total_chunks = sum(header.n_chunks for header, _ in parsed)
    merged_header = ContainerHeader(
        dtype=first.dtype,
        n_elements=total_elements,
        shape=(total_elements,),
        codec_name=first.codec_name,
        linearization=first.linearization,
        preference=first.preference,
        tau=first.tau,
        chunk_elements=first.chunk_elements,
        n_chunks=total_chunks,
    )
    header_bytes = merged_header.encode()

    # Re-index the merged chain for the footer: chunk record layouts
    # are copied verbatim, so each entry is the source entry shifted to
    # its new absolute position.
    entries: list[ChunkIndexRecord] = []
    cursor = len(header_bytes)
    for header, chunk_stream in parsed:
        for record in iter_chunk_records(chunk_stream, header, 0):
            entries.append(
                ChunkIndexRecord(
                    payload_offset=cursor + record.payload_offset,
                    compressed_size=record.meta.compressed_size,
                    incompressible_size=record.meta.incompressible_size,
                    n_elements=record.meta.n_elements,
                )
            )
        cursor += len(chunk_stream)
    footer = ContainerFooter(entries=tuple(entries)).encode()
    return (
        header_bytes
        + b"".join(chunk_stream for _, chunk_stream in parsed)
        + footer
    )
