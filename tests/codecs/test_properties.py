"""Hypothesis property tests: every codec must round-trip bit-exactly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codecs.fpc import FpcCodec
from repro.codecs.fpzip_like import (
    FpzipLikeCodec,
    float_to_ordered_uint,
    ordered_uint_to_float,
)
from repro.codecs.standard import Bzip2Codec, LzmaCodec, ZlibCodec

# Arbitrary 64-bit patterns viewed as doubles: exercises NaNs,
# infinities, denormals and both zeros.
_any_double_bits = hnp.arrays(
    dtype=np.uint64,
    shape=hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=300),
    elements=st.integers(0, 2**64 - 1),
)

_int64_arrays = hnp.arrays(
    dtype=np.int64,
    shape=hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=500),
    elements=st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
)

_byte_payloads = st.binary(min_size=0, max_size=4096)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    width = a.dtype.itemsize
    return np.array_equal(
        a.reshape(-1).view(f"u{width}"), b.reshape(-1).view(f"u{width}")
    )


class TestByteCodecProperties:
    @settings(max_examples=40, deadline=None)
    @given(_byte_payloads)
    def test_zlib_roundtrip(self, payload):
        codec = ZlibCodec()
        assert codec.decompress(codec.compress(payload)) == payload

    @settings(max_examples=25, deadline=None)
    @given(_byte_payloads)
    def test_bzip2_roundtrip(self, payload):
        codec = Bzip2Codec()
        assert codec.decompress(codec.compress(payload)) == payload

    @settings(max_examples=15, deadline=None)
    @given(_byte_payloads)
    def test_lzma_roundtrip(self, payload):
        codec = LzmaCodec()
        assert codec.decompress(codec.compress(payload)) == payload


class TestFpcProperties:
    @settings(max_examples=40, deadline=None)
    @given(_any_double_bits)
    def test_arbitrary_double_bits_roundtrip(self, bits):
        values = bits.view(np.float64)
        codec = FpcCodec(table_size_log2=8)
        assert _bits_equal(codec.decode(codec.encode(values)), values)

    @settings(max_examples=30, deadline=None)
    @given(_int64_arrays)
    def test_int64_roundtrip(self, values):
        codec = FpcCodec(table_size_log2=8)
        assert np.array_equal(codec.decode(codec.encode(values)), values)


class TestFpzipLikeProperties:
    @settings(max_examples=40, deadline=None)
    @given(_any_double_bits)
    def test_ordered_uint_bijection(self, bits):
        values = bits.view(np.float64)
        mapped = float_to_ordered_uint(values)
        restored = ordered_uint_to_float(mapped, np.dtype(np.float64))
        assert _bits_equal(restored, values)

    @settings(max_examples=40, deadline=None)
    @given(_any_double_bits)
    def test_1d_roundtrip_any_bits(self, bits):
        values = bits.view(np.float64)
        codec = FpzipLikeCodec()
        assert _bits_equal(codec.decode(codec.encode(values)), values)

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(
        dtype=np.float32,
        shape=hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=12),
        elements=st.floats(width=32, allow_nan=True, allow_infinity=True),
    ))
    def test_nd_float32_roundtrip(self, values):
        codec = FpzipLikeCodec()
        assert _bits_equal(codec.decode(codec.encode(values)), values)
