"""Stdlib-backed general-purpose solvers: zlib, bzip2 (bzlib2), lzma.

zlib and bzip2 are the two solvers the paper evaluates (its "zlib" and
"bzlib2"); both Python modules wrap the exact C libraries the authors
used, so compression *ratios* are directly comparable.  lzma is included
as an additional high-ratio solver to demonstrate that the
preconditioner is solver-agnostic.

bzip2 compression calls the libbz2 that CPython's ``_bz2`` links
directly (through :mod:`ctypes`), because only the C API exposes the
block sort's ``workFactor``; the output is byte-identical to
:func:`bz2.compress` (see :class:`Bzip2Codec`).
"""

from __future__ import annotations

import bz2
import ctypes
import functools
import lzma
import zlib
from typing import Any

from repro.codecs.base import Codec
from repro.core.exceptions import CodecError, ConfigurationError

__all__ = [
    "ZlibCodec",
    "Bzip2Codec",
    "LzmaCodec",
    "IsalZlibCodec",
    "bzip2_binding_description",
    "isal_available",
]

# Optional acceleration: python-isal wraps Intel's ISA-L, whose
# igzip-style DEFLATE is several times faster than stdlib zlib while
# producing standard zlib streams.  The dependency is detected once at
# import; absent, the codec transparently runs on stdlib zlib.
try:  # pragma: no cover - exercised only where python-isal is installed
    from isal import isal_zlib as _isal_zlib
except ImportError:
    _isal_zlib = None


def isal_available() -> bool:
    """True when python-isal is importable (``isal-zlib`` accelerates)."""
    return _isal_zlib is not None


class ZlibCodec(Codec):
    """DEFLATE (LZ77 + Huffman) via zlib — the paper's fast solver."""

    # CPython's zlibmodule drops the GIL around deflate/inflate, so
    # worker threads scale this codec.
    releases_gil = True

    def __init__(self, level: int = 6):
        if not 1 <= level <= 9:
            raise ConfigurationError(f"zlib level must be in [1, 9], got {level}")
        self._level = level
        self.name = "zlib" if level == 6 else f"zlib-{level}"

    @property
    def level(self) -> int:
        """Configured compression level (1 fastest .. 9 best)."""
        return self._level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self._level)

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CodecError(f"zlib decompression failed: {exc}") from exc


#: libbz2's ``workFactor``: how much effort the main block sort spends
#: on repetitive input before it switches to the fallback sort.  The
#: bzip2 manual (``BZ2_bzCompressInit``): "the compressed output
#: generated is the same regardless of whether or not the fallback
#: algorithm is used", so this moves speed only.  Chosen by an
#: interleaved sweep against the library default of 30
#: (docs/performance.md, "bzip2 sort budget").
_BZ2_WORK_FACTOR = 7
_BZ_OK = 0
_UINT_MAX = 2**32 - 1


@functools.cache
def _bz2_binding() -> tuple[Any, str]:
    """``BZ2_bzBuffToBuffCompress`` of the libbz2 ``_bz2`` links (None
    when it cannot be bound), plus a description of the backend."""
    try:
        import _bz2

        fn = ctypes.CDLL(_bz2.__file__).BZ2_bzBuffToBuffCompress
    except (ImportError, AttributeError, OSError) as exc:
        return None, f"bz2 module fallback ({type(exc).__name__}: {exc})"
    fn.argtypes = [
        ctypes.c_void_p,                 # dest
        ctypes.POINTER(ctypes.c_uint),   # destLen (in: capacity, out: size)
        ctypes.c_void_p,                 # source
        ctypes.c_uint,                   # sourceLen
        ctypes.c_int,                    # blockSize100k
        ctypes.c_int,                    # verbosity
        ctypes.c_int,                    # workFactor
    ]
    fn.restype = ctypes.c_int
    return fn, f"libbz2 via ctypes (workFactor {_BZ2_WORK_FACTOR})"


def bzip2_binding_description() -> str:
    """How :class:`Bzip2Codec` compresses on this host, for benchmarks."""
    return _bz2_binding()[1]


def _bz2_compress(
    data: bytes, level: int, work_factor: int = _BZ2_WORK_FACTOR
) -> bytes:
    """``bz2.compress(data, level)``, computed with the bounded sort budget.

    Falls back to :func:`bz2.compress` when the library cannot be bound,
    the input's size (plus the output slack) exceeds a ``c_uint``, or
    the call does not return ``BZ_OK``.
    ctypes releases the GIL for the call, so worker threads overlap.
    ``work_factor`` is a parameter only for
    ``benchmarks/run_bzip2_sweep.py``.
    """
    fn = _bz2_binding()[0]
    if fn is None:
        return bz2.compress(data, level)
    data = bytes(data)
    size = len(data)
    # The manual's worst case: 1% larger than the input plus 600 bytes.
    capacity = size + size // 100 + 601
    if capacity > _UINT_MAX:
        return bz2.compress(data, level)
    out = ctypes.create_string_buffer(capacity)
    out_len = ctypes.c_uint(capacity)
    status = fn(
        out, ctypes.byref(out_len), data, size, level, 0, work_factor
    )
    if status != _BZ_OK:
        return bz2.compress(data, level)
    return ctypes.string_at(out, out_len.value)


class Bzip2Codec(Codec):
    """Burrows-Wheeler + Huffman via libbz2 — the paper's high-ratio solver.

    Compression calls libbz2 with a smaller ``workFactor`` than
    :func:`bz2.compress` uses; decompression is :func:`bz2.decompress`.
    Both produce and accept exactly the bytes of the ``bz2`` module.
    """

    releases_gil = True

    def __init__(self, level: int = 9):
        if not 1 <= level <= 9:
            raise ConfigurationError(f"bzip2 level must be in [1, 9], got {level}")
        self._level = level
        self.name = "bzip2" if level == 9 else f"bzip2-{level}"

    @property
    def level(self) -> int:
        """Configured block-size level (1 = 100 kB blocks .. 9 = 900 kB)."""
        return self._level

    def compress(self, data: bytes) -> bytes:
        return _bz2_compress(data, self._level)

    def decompress(self, data: bytes) -> bytes:
        try:
            return bz2.decompress(data)
        except (OSError, ValueError) as exc:
            raise CodecError(f"bzip2 decompression failed: {exc}") from exc


class LzmaCodec(Codec):
    """LZMA via the xz container — a slower, higher-ratio extra solver."""

    releases_gil = True

    def __init__(self, preset: int = 1):
        if not 0 <= preset <= 9:
            raise ConfigurationError(
                f"lzma preset must be in [0, 9], got {preset}"
            )
        self._preset = preset
        self.name = "lzma" if preset == 1 else f"lzma-{preset}"

    @property
    def preset(self) -> int:
        """Configured LZMA preset (0 fastest .. 9 best)."""
        return self._preset

    def compress(self, data: bytes) -> bytes:
        return lzma.compress(data, preset=self._preset)

    def decompress(self, data: bytes) -> bytes:
        try:
            return lzma.decompress(data)
        except lzma.LZMAError as exc:
            raise CodecError(f"lzma decompression failed: {exc}") from exc


class IsalZlibCodec(Codec):
    """DEFLATE via Intel ISA-L when available, stdlib zlib otherwise.

    ISA-L's ``isal_zlib`` emits standard zlib streams, so containers
    written with this codec decode with plain :class:`ZlibCodec` (and
    vice versa) — the acceleration is an implementation detail, never a
    format difference.  On hosts without python-isal the codec is a
    stdlib-zlib solver under the ``isal-zlib`` name, keeping containers
    portable across hosts with and without the accelerator.

    ISA-L supports levels 0-3 (its own scale, trading ratio for speed);
    when falling back, the level maps onto a comparable stdlib level.
    """

    releases_gil = True

    #: ISA-L level -> roughly comparable stdlib zlib level.
    _STDLIB_LEVELS = {0: 1, 1: 2, 2: 6, 3: 9}

    def __init__(self, level: int = 2):
        if level not in self._STDLIB_LEVELS:
            raise ConfigurationError(
                f"isal-zlib level must be in [0, 3], got {level}"
            )
        self._level = level
        self.name = "isal-zlib" if level == 2 else f"isal-zlib-{level}"

    @property
    def level(self) -> int:
        """Configured ISA-L compression level (0 fastest .. 3 best)."""
        return self._level

    @property
    def accelerated(self) -> bool:
        """True when this codec actually runs on ISA-L."""
        return _isal_zlib is not None

    def compress(self, data: bytes) -> bytes:
        if _isal_zlib is not None:
            return _isal_zlib.compress(data, self._level)
        return zlib.compress(data, self._STDLIB_LEVELS[self._level])

    def decompress(self, data: bytes) -> bytes:
        if _isal_zlib is not None:
            try:
                return _isal_zlib.decompress(data)
            except _isal_zlib.error as exc:
                raise CodecError(
                    f"isal-zlib decompression failed: {exc}"
                ) from exc
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CodecError(f"isal-zlib decompression failed: {exc}") from exc
