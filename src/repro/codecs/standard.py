"""Stdlib-backed general-purpose solvers: zlib, bzip2 (bzlib2), lzma.

zlib and bzip2 are the two solvers the paper evaluates (its "zlib" and
"bzlib2"); both Python modules wrap the exact C libraries the authors
used, so compression *ratios* are directly comparable.  lzma is included
as an additional high-ratio solver to demonstrate that the
preconditioner is solver-agnostic.

bzip2 compression calls the libbz2 that CPython's ``_bz2`` links
directly (through :mod:`ctypes`), because only the C API exposes the
block sort's ``workFactor``, which each block gets from how much it
repeats itself (:func:`bzip2_work_factor`).  An input longer than one
bzip2 block is cut where :func:`bz2.compress` starts each block, the
blocks are compressed on their own (with idle engine workers' help,
see :func:`~repro.core.pipeline_engine.share_blocks`) and spliced into
one stream, so the output is byte-identical to :func:`bz2.compress`
for every input (see :class:`Bzip2Codec`).
"""

from __future__ import annotations

import bz2
import ctypes
import functools
import lzma
import zlib
from typing import Any, Iterator, Sequence

import numpy as np

from repro.codecs.base import Codec
from repro.core.exceptions import CodecError, ConfigurationError
from repro.core.pipeline_engine import share_blocks

__all__ = [
    "ZlibCodec",
    "Bzip2Codec",
    "LzmaCodec",
    "IsalZlibCodec",
    "bzip2_binding_description",
    "bzip2_block_starts",
    "bzip2_repeat_share",
    "bzip2_work_factor",
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
#: algorithm is used", so this moves speed only.  A block that does
#: not repeat itself gets 7, from an interleaved sweep against the
#: library default of 30; a block that does gets 1, no main-sort
#: budget, so libbz2 goes straight to the fallback sort instead of
#: first spending the budget and throwing the main sort's work away
#: (docs/performance.md, "bzip2 sort budget").
_BZ2_WORK_FACTOR = 7
_BZ2_REPEAT_WORK_FACTOR = 1
#: A block whose repeat share exceeds this takes the fallback sort
#: straight away.  The blocks of ``benchmarks/run_bzip2_sweep.py``
#: read at most 0.785 or at least 0.946 (seeds 21 and 7321).
_REPEAT_THRESHOLD = 0.9
#: Shorter blocks keep :data:`_BZ2_WORK_FACTOR` without the statistic:
#: libbz2 sorts a block of fewer than 10,000 bytes with the fallback
#: sort whatever the budget.
_REPEAT_MIN_BYTES = 10_000
#: The statistic compares each sampled byte with the 1st .. 16th
#: byte before it ...
_REPEAT_LAGS = 16
#: ... over the whole block up to 64 KiB, else over 16 windows of
#: 4 KiB spread evenly across it.
_REPEAT_WINDOWS = 16
_REPEAT_WINDOW = 4096
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
    return fn, (
        f"libbz2 via ctypes (workFactor {_BZ2_REPEAT_WORK_FACTOR} for blocks "
        f"with repeat share > {_REPEAT_THRESHOLD}, else {_BZ2_WORK_FACTOR})"
    )


def bzip2_binding_description() -> str:
    """How :class:`Bzip2Codec` compresses on this host, for benchmarks."""
    return _bz2_binding()[1]


def _byte_array(data: Any) -> np.ndarray:
    """``data``'s bytes as a uint8 array: a view when it is contiguous."""
    view = memoryview(data)
    if not view.c_contiguous:
        view = memoryview(view.tobytes())
    return np.frombuffer(view, np.uint8)


def _lag_shares(data: Any) -> Iterator[float]:
    """For lags 1..16 in turn, the share of sampled bytes of ``data``
    equal to the byte that lag before them.

    The sample is the whole input up to 64 KiB, else 16 windows of
    4 KiB spread evenly over it; bytes are compared only inside their
    window, so a lag costs about 12 us whatever the input size.
    """
    a = _byte_array(data)
    if a.size <= _REPEAT_WINDOWS * _REPEAT_WINDOW:
        sample = a.reshape(1, -1)
    else:
        step = a.size // _REPEAT_WINDOWS
        sample = a[:_REPEAT_WINDOWS * step].reshape(_REPEAT_WINDOWS, step)
        sample = sample[:, :_REPEAT_WINDOW]
    equal = np.empty(sample.shape, bool)
    for lag in range(1, min(_REPEAT_LAGS, sample.shape[1] - 1) + 1):
        same = equal[:, lag:]
        np.equal(sample[:, lag:], sample[:, :-lag], out=same)
        yield np.count_nonzero(same) / same.size


def bzip2_repeat_share(data: Any) -> float:
    """How much ``data`` repeats itself at a short lag: the largest
    share, over lags 1..16, of sampled bytes equal to the byte that
    lag before them (0.0 for fewer than two bytes)."""
    return max(_lag_shares(data), default=0.0)


def bzip2_work_factor(data: Any) -> int:
    """The ``workFactor`` :class:`Bzip2Codec` gives the block ``data``:
    1 when it repeats itself (:func:`bzip2_repeat_share` above 0.9),
    else 7.

    The first lag above the threshold decides, so a block of runs
    stops after lag 1.  Blocks under 10,000 bytes get 7 without the
    statistic.
    """
    a = _byte_array(data)
    if a.size >= _REPEAT_MIN_BYTES and any(
        share > _REPEAT_THRESHOLD for share in _lag_shares(a)
    ):
        return _BZ2_REPEAT_WORK_FACTOR
    return _BZ2_WORK_FACTOR


def _bz2_compress(data: Any, level: int, work_factor: int) -> bytes:
    """``BZ2_bzBuffToBuffCompress`` of ``data`` with the sort budget
    ``work_factor``: :func:`bz2.compress`'s bytes whenever the input
    makes one block (see :func:`bzip2_block_starts`).

    Falls back to :func:`bz2.compress` when the library cannot be bound,
    the input's size (plus the output slack) exceeds a ``c_uint``, or
    the call does not return ``BZ_OK``.  A contiguous buffer (a block's
    ``memoryview`` slice) reaches libbz2 without a copy.
    ctypes releases the GIL for the call, so worker threads overlap.
    """
    fn = _bz2_binding()[0]
    if fn is None:
        return bz2.compress(data, level)
    source = _byte_array(data)
    size = source.size
    # The manual's worst case: 1% larger than the input plus 600 bytes.
    capacity = size + size // 100 + 601
    if capacity > _UINT_MAX:
        return bz2.compress(data, level)
    out = ctypes.create_string_buffer(capacity)
    out_len = ctypes.c_uint(capacity)
    status = fn(
        out, ctypes.byref(out_len), source.ctypes.data, size, level, 0,
        work_factor,
    )
    if status != _BZ_OK:
        return bz2.compress(data, level)
    return ctypes.string_at(out, out_len.value)


# -- bzip2 blocks ----------------------------------------------------------
#
# bzip2 run-length codes its input first (RLE1): a run of up to 255
# equal bytes becomes its 1-3 bytes, or 4 bytes and a count.  A run is
# added to the block when the byte after it arrives; before each input
# byte, libbz2 closes the block if it holds ``nblockMAX = 100000 *
# level - 19`` bytes, and the run still pending moves on to the next
# block.  :func:`bz2.compress` closes the last block at the end of the
# input, so each block is the RLE1 coding of an input slice that
# starts at a run, and the slice compressed alone is that block.

#: Input bytes per counting segment: 128 words of 0/1 bytes, so no
#: byte lane of a word sum reaches 256.
_SEG = 1024
#: Input bytes per pass of the counting loop (cache-sized scratch).
_SLAB = 256 * _SEG
#: A one in each byte lane of a word (a word sum of 0/1 byte flags
#: holds one count per lane).
_SPLAT = np.uint64(0x0101010101010101)
#: RLE1 bytes of a run of 0, 1, 2, 3 and 4+ bytes.
_PIECE_BYTES = np.array([0, 1, 2, 3, 5], np.int64)
_MAX_RUN = 255
#: A run longer than 255 bytes holds 252+ bytes at run position 4 or
#: more, at least this many of them in one segment.
_LONG_RUN_SEG_BYTES = 126


def _equal_prev(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``a[p] == a[p - 1]`` for each position ``p`` in ``index``; False at
    0 and past the end."""
    p = np.clip(index, 1, a.size - 1)
    same = a[p] == a[p - 1]
    same &= (index >= 1) & (index < a.size)
    return same


def _rle1_bound(a: np.ndarray) -> int:
    """An upper bound on the RLE1 bytes of ``a`` from one equality pass.

    A run of ``k`` bytes codes as at most ``1.25 k`` bytes.  A segment
    whose every byte repeats the byte before it lies inside one run,
    so it meets at most six of its 255-byte pieces: 30 RLE1 bytes.
    Inputs made of long runs (constant byte-columns) prove one block
    here for a third of the full count's cost.
    """
    nseg = a.size // _SEG
    slab = min(_SLAB, nseg * _SEG)
    same = np.empty(slab, bool)
    whole = 0  # segments inside one run
    for start in range(0, nseg * _SEG, slab):
        m = min(slab, nseg * _SEG - start)
        lo = max(start, 1)
        same[0] = False
        np.equal(a[lo:start + m], a[lo - 1:start + m - 1],
                 out=same[lo - start:m])
        words = same[:m].view(np.uint64).reshape(-1, _SEG // 8).sum(axis=1)
        whole += int(np.count_nonzero(words == _SEG // 8 * _SPLAT))
    return 30 * whole + 5 * (a.size - whole * _SEG) // 4 + 1


def _rle1_segments(a: np.ndarray, nseg: int) -> tuple[np.ndarray, np.ndarray]:
    """Per segment: the RLE1 bytes its input bytes add before the 255
    cap, and its bytes at run position 4 or more.

    A byte at run position 0, 1 or 2 adds 1, at 3 adds 2 (a run of 4+
    codes as 5 bytes), later ones 0.  ``e_k`` flags position >= k.
    """
    n = a.size
    size = nseg * _SEG
    slab = min(_SLAB, size)
    c3 = np.empty(nseg, np.uint64)
    c4 = np.empty(nseg, np.uint64)
    # e1 carries three flags of the previous slab in front.
    e1 = np.zeros(slab + 3, bool)
    e2 = np.empty(slab + 2, bool)
    flags = np.empty(slab, bool)
    for start in range(0, size, slab):
        m = min(slab, size - start)
        lo, hi = max(start, 1), min(start + m, n)
        own = e1[3:3 + m]
        own[:] = False
        if hi > lo:
            np.equal(a[lo:hi], a[lo - 1:hi - 1], out=own[lo - start:hi - start])
        np.logical_and(e1[1:3 + m], e1[:2 + m], out=e2[:m + 2])
        segs = slice(start // _SEG, (start + m) // _SEG)
        np.logical_and(e2[2:2 + m], e1[1:1 + m], out=flags[:m])
        c3[segs] = flags[:m].view(np.uint64).reshape(-1, _SEG // 8).sum(axis=1)
        np.logical_and(e2[2:2 + m], e2[:m], out=flags[:m])
        c4[segs] = flags[:m].view(np.uint64).reshape(-1, _SEG // 8).sum(axis=1)
        e1[:3] = e1[m:m + 3]
    n3, n4 = (
        c.view(np.uint8).reshape(-1, 8).sum(axis=1, dtype=np.int64)
        for c in (c3, c4)
    )
    counts = _SEG + n3 - 2 * n4
    counts[-1] -= size - n
    return counts, n4


def _run_starts(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Positions in ``[lo, hi)`` where a run starts, the end included."""
    lo2, hi2 = max(lo, 1), min(hi, a.size)
    parts = [np.zeros(1, np.int64)] if lo <= 0 else []
    if hi2 > lo2:
        parts.append(lo2 + np.flatnonzero(a[lo2:hi2] != a[lo2 - 1:hi2 - 1]))
    if lo <= a.size < hi:
        parts.append(np.full(1, a.size, np.int64))
    return np.concatenate(parts) if parts else np.zeros(0, np.int64)


def _long_run_pieces(
    a: np.ndarray, n4: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where runs longer than 255 bytes restart RLE1, and the RLE1 bytes
    each restart adds (the segment counts see one long run).

    Such a run lies in, or within 130 bytes of, a group of consecutive
    segments with at least 126 bytes at run position 4+; run starts
    lie only in the group's segments that are not wholly one run.
    """
    ids = np.flatnonzero(n4 >= _LONG_RUN_SEG_BYTES)
    if not ids.size:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    gap = ids[1:] != ids[:-1] + 1
    starts, lengths = [], []
    for first, last in zip(
        ids[np.r_[True, gap]].tolist(), ids[np.r_[gap, True]].tolist()
    ):
        broken = first + np.flatnonzero(n4[first:last + 1] < _SEG)
        edges = np.concatenate(
            [_run_starts(a, first * _SEG - 2 * _MAX_RUN, first * _SEG)]
            + [_run_starts(a, i * _SEG, (i + 1) * _SEG) for i in broken.tolist()]
            + [_run_starts(a, (last + 1) * _SEG,
                           (last + 1) * _SEG + 2 * _MAX_RUN)]
        )
        runs = np.diff(edges)
        long = runs > _MAX_RUN
        starts.append(edges[:-1][long])
        lengths.append(runs[long])
    run_start, run_len = np.concatenate(starts), np.concatenate(lengths)
    per_run = (run_len - 1) // _MAX_RUN
    nth = np.arange(per_run.sum()) - np.repeat(np.cumsum(per_run) - per_run, per_run)
    pos = np.repeat(run_start, per_run) + _MAX_RUN * (nth + 1)
    left = np.repeat(run_start + run_len, per_run) - pos
    return pos, _PIECE_BYTES[np.minimum(left, 4)]


def bzip2_block_starts(data: Any, level: int) -> list[int]:
    """The input offsets at which ``bz2.compress(data, level)`` starts a
    block (0 first).

    One O(n) numpy pass counts each segment's RLE1 bytes; each block
    end is then found exactly within one segment.  Inputs too short
    to fill a block (RLE1 grows data by at most 5/4) are not scanned,
    and inputs an equality pass proves to be one block
    (:func:`_rle1_bound`) are not counted.
    """
    a = _byte_array(data)
    n = a.size
    limit = 100_000 * level - 19
    if 5 * n < 4 * limit or _rle1_bound(a) < limit:
        return [0]
    nseg = n // _SEG + 1  # one segment past the end holds no byte
    counts, n4 = _rle1_segments(a, nseg)
    extra_pos, extra_bytes = _long_run_pieces(a, n4)
    if extra_pos.size:
        counts += np.bincount(
            extra_pos // _SEG, weights=extra_bytes, minlength=nseg
        ).astype(np.int64)
    before = np.concatenate(([0], np.cumsum(counts)))  # RLE1 bytes before a segment
    starts = [0]
    filled = 0  # RLE1 bytes before the current block
    while True:
        target = filled + limit
        seg = int(np.searchsorted(before, target)) - 1
        if seg >= nseg:
            return starts
        lo = seg * _SEG
        hi = min(lo + _SEG + 2 * _MAX_RUN, n)
        # RLE1 bytes of each byte in [lo, hi), run restarts included
        e1 = _equal_prev(a, np.arange(lo - 3, hi))
        e2 = e1[1:] & e1[:-1]
        weights = 1 + (e2[2:] & e1[1:-2]).astype(np.int64) - 2 * (e2[2:] & e2[:-2])
        near = (extra_pos >= lo) & (extra_pos < hi)
        np.add.at(weights, extra_pos[near] - lo, extra_bytes[near])
        running = before[seg] + np.cumsum(weights)
        reach = lo + int(np.searchsorted(running, target)) + 1
        # the block closes before the first run (restart) at or after reach
        run_start = ~e1[reach - lo + 3:]
        run_start[extra_pos[near & (extra_pos >= reach)] - reach] = True
        if not run_start.any():
            return starts
        cut = reach + int(np.argmax(run_start))
        filled = int(running[cut - lo - 1])
        starts.append(cut)


_EOS_MAGIC = 0x177245385090  # sqrt(pi): the end-of-stream marker
_EOS_BITS = 48 + 32  # the marker, then the combined CRC


def _block_bits(stream: bytes) -> tuple[int, int, int]:
    """The one block of a one-block bzip2 stream: its bits as an int,
    their count and the block CRC."""
    crc = int.from_bytes(stream[10:14], "big")  # after "BZh" + level, pi
    tail = int.from_bytes(stream[-11:], "big")
    expected = (_EOS_MAGIC << 32) | crc
    for pad in range(8):
        if (tail >> pad) & ((1 << _EOS_BITS) - 1) == expected:
            body = memoryview(stream)[4:]
            nbits = 8 * len(body) - pad - _EOS_BITS
            return int.from_bytes(body, "big") >> (pad + _EOS_BITS), nbits, crc
    raise CodecError("bzip2 block stream has no end-of-stream marker")


def _splice_bz2_streams(streams: Sequence[bytes], level: int) -> bytes:
    """One bzip2 stream holding the blocks of one-block ``streams``, in
    order: the blocks' bits concatenated, then the end-of-stream marker
    and the combined CRC (``rotl1(c) ^ block_crc`` per block)."""
    out = bytearray(b"BZh%d" % level)
    acc = nacc = 0  # bits not yet written, fewer than 8
    combined = 0

    def put(bits: int, nbits: int) -> None:
        nonlocal acc, nacc
        acc = (acc << nbits) | bits
        nacc += nbits
        whole, nacc = divmod(nacc, 8)
        out.extend((acc >> nacc).to_bytes(whole, "big"))
        acc &= (1 << nacc) - 1

    for stream in streams:
        bits, nbits, crc = _block_bits(stream)
        put(bits, nbits)
        combined = ((combined << 1 | combined >> 31) & 0xFFFFFFFF) ^ crc
    put(_EOS_MAGIC, 48)
    put(combined, 32)
    if nacc:
        out.append(acc << (8 - nacc))
    return bytes(out)


class Bzip2Codec(Codec):
    """Burrows-Wheeler + Huffman via libbz2 — the paper's high-ratio solver.

    Compression calls libbz2 one block at a time: an input longer than
    one block is cut at :func:`bzip2_block_starts`, each block is
    compressed by a call of this method on its ``memoryview`` slice
    (on an engine worker, idle workers take some of them, see
    :func:`~repro.core.pipeline_engine.share_blocks`) and the blocks
    are spliced into one stream.  Each block gets a smaller
    ``workFactor`` than :func:`bz2.compress` uses, from
    :func:`bzip2_work_factor`: 1 (straight to the fallback sort) when
    the block repeats itself, else 7.  Decompression is
    :func:`bz2.decompress`.  Both produce and accept exactly the bytes
    of the ``bz2`` module, whichever backend, thread or sort ran a
    block.
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

    def compress(self, data: bytes | memoryview) -> bytes:
        source = _byte_array(data)
        starts = bzip2_block_starts(source, self._level)
        if len(starts) == 1:
            return _bz2_compress(
                source, self._level, bzip2_work_factor(source)
            )
        view = memoryview(source)
        blocks = [
            view[start:end]
            for start, end in zip(starts, [*starts[1:], len(view)])
        ]
        return _splice_bz2_streams(
            share_blocks(self.compress, blocks), self._level
        )

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
