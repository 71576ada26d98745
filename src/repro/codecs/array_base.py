"""Array codecs: lossless compressors that operate on typed arrays.

FPC and fpzip are not byte-stream compressors — they exploit the
element structure of the data (64-bit doubles, integer columns).
:class:`ArrayCodec` is their contract: a numpy array in, a
self-describing byte string out, with a bit-exact round trip.

A tiny self-describing header (dtype + shape) is provided so every
array codec can rebuild the exact array without out-of-band metadata.
"""

from __future__ import annotations

import abc
import struct

import numpy as np

from repro.core.exceptions import ContainerFormatError, InvalidInputError

__all__ = [
    "ArrayCodec",
    "pack_array_header",
    "unpack_array_header",
]

_HEADER_MAGIC = b"RARR"
_MAX_DIMS = 16


def pack_array_header(array: np.ndarray) -> bytes:
    """Serialize dtype and shape of ``array`` into a compact header."""
    if array.ndim > _MAX_DIMS:
        raise InvalidInputError(
            f"arrays with more than {_MAX_DIMS} dimensions are not supported"
        )
    dtype_str = array.dtype.str.encode("ascii")  # e.g. b"<f8"
    parts = [
        _HEADER_MAGIC,
        struct.pack("<BB", len(dtype_str), array.ndim),
        dtype_str,
        struct.pack(f"<{array.ndim}q", *array.shape),
    ]
    return b"".join(parts)


def unpack_array_header(data: bytes) -> tuple[np.dtype, tuple[int, ...], int]:
    """Parse a header written by :func:`pack_array_header`.

    Returns ``(dtype, shape, header_length)`` so the caller can slice
    off the payload at ``data[header_length:]``.
    """
    if len(data) < 6 or data[:4] != _HEADER_MAGIC:
        raise ContainerFormatError("missing or corrupt array header magic")
    dtype_len, ndim = struct.unpack_from("<BB", data, 4)
    offset = 6
    if len(data) < offset + dtype_len + 8 * ndim:
        raise ContainerFormatError("truncated array header")
    dtype_str = data[offset:offset + dtype_len].decode("ascii")
    offset += dtype_len
    shape = struct.unpack_from(f"<{ndim}q", data, offset)
    offset += 8 * ndim
    try:
        dtype = np.dtype(dtype_str)
    except TypeError as exc:
        raise ContainerFormatError(f"invalid dtype in header: {dtype_str!r}") from exc
    if any(dim < 0 for dim in shape):
        raise ContainerFormatError(f"negative dimension in header shape {shape}")
    return dtype, tuple(shape), offset


class ArrayCodec(abc.ABC):
    """A lossless compressor over typed numpy arrays.

    Implementations must guarantee that :meth:`decode` restores the
    exact dtype, shape and bit pattern produced by :meth:`encode`.
    """

    #: Human-readable codec name used in reports.
    name: str = ""

    @abc.abstractmethod
    def encode(self, array: np.ndarray) -> bytes:
        """Compress ``array`` into a self-describing byte string."""

    @abc.abstractmethod
    def decode(self, data: bytes) -> np.ndarray:
        """Invert :meth:`encode`, restoring the original array exactly."""

    def ratio(self, array: np.ndarray) -> float:
        """Compression ratio achieved on ``array`` (Eq. 1)."""
        arr = np.asarray(array)
        if arr.size == 0:
            raise InvalidInputError(
                f"{self.name}: cannot measure ratio of an empty array"
            )
        return arr.nbytes / len(self.encode(arr))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
