"""Unit tests for the zlib/bzip2/lzma solver wrappers."""

import bz2
import functools
import threading

import numpy as np
import pytest

from repro.codecs import standard
from repro.codecs.standard import Bzip2Codec, LzmaCodec, ZlibCodec
from repro.core.exceptions import CodecError, ConfigurationError
from repro.core.preferences import IsobarConfig
from repro.core.selector import EupaSelector
from repro.datasets.registry import dataset_names, generate_dataset

ALL_CODECS = [ZlibCodec(), Bzip2Codec(), LzmaCodec()]


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestRoundTrips:
    def test_text_roundtrip(self, codec):
        data = b"the quick brown fox " * 500
        assert codec.decompress(codec.compress(data)) == data

    def test_empty_input(self, codec):
        assert codec.decompress(codec.compress(b"")) == b""

    def test_single_byte(self, codec):
        assert codec.decompress(codec.compress(b"\x00")) == b"\x00"

    def test_binary_noise_roundtrip(self, codec):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
        assert codec.decompress(codec.compress(data)) == data

    def test_repetitive_data_compresses(self, codec):
        data = b"\x42" * 100_000
        compressed = codec.compress(data)
        assert len(compressed) < len(data) // 100

    def test_garbage_decompress_raises_codec_error(self, codec):
        with pytest.raises(CodecError):
            codec.decompress(b"definitely not a valid stream")


class TestLevels:
    def test_zlib_level_tradeoff(self):
        data = np.sin(np.linspace(0, 100, 30_000)).tobytes()
        fast = ZlibCodec(level=1).compress(data)
        best = ZlibCodec(level=9).compress(data)
        assert len(best) <= len(fast)

    def test_named_variants(self):
        assert ZlibCodec().name == "zlib"
        assert ZlibCodec(level=1).name == "zlib-1"
        assert Bzip2Codec().name == "bzip2"
        assert Bzip2Codec(level=3).name == "bzip2-3"
        assert LzmaCodec().name == "lzma"
        assert LzmaCodec(preset=6).name == "lzma-6"

    def test_level_properties(self):
        assert ZlibCodec(level=4).level == 4
        assert Bzip2Codec(level=2).level == 2
        assert LzmaCodec(preset=0).preset == 0

    @pytest.mark.parametrize("level", [0, 10, -1])
    def test_zlib_level_validation(self, level):
        with pytest.raises(ConfigurationError):
            ZlibCodec(level=level)

    @pytest.mark.parametrize("level", [0, 10])
    def test_bzip2_level_validation(self, level):
        with pytest.raises(ConfigurationError):
            Bzip2Codec(level=level)

    @pytest.mark.parametrize("preset", [-1, 10])
    def test_lzma_preset_validation(self, preset):
        with pytest.raises(ConfigurationError):
            LzmaCodec(preset=preset)


class TestCrossCodecBehaviour:
    def test_bzip2_beats_zlib_on_structured_data(self):
        # The paper's general pattern: bzlib2 yields higher ratios on
        # structured scientific data, at lower throughput.
        data = np.round(np.sin(np.linspace(0, 50, 50_000)), 3).tobytes()
        z = len(ZlibCodec().compress(data))
        b = len(Bzip2Codec().compress(data))
        assert b < z

    def test_streams_are_not_interchangeable(self):
        data = b"payload " * 100
        z_stream = ZlibCodec().compress(data)
        with pytest.raises(CodecError):
            Bzip2Codec().decompress(z_stream)


# -- the libbz2 binding ----------------------------------------------------

LEVELS = range(1, 10)
SMALL_INPUTS = {
    "empty": b"",
    "one-byte": b"\x07",
    "100k-identical": b"\x42" * 100_000,
    "random": np.random.default_rng(11).integers(
        0, 256, 250_000, dtype=np.uint8
    ).tobytes(),
}


def _block_limit(level):
    """libbz2's ``nblockMAX``: RLE1 bytes that close a block."""
    return 100_000 * level - 19


def _run_free(n, seed=0):
    """``n`` bytes in which no byte repeats its predecessor (values 0-3)."""
    steps = np.random.default_rng(seed).integers(1, 4, n)
    return (np.cumsum(steps) % 4).astype(np.uint8).tobytes()


def _filled_on_last_byte(level):
    """RLE1 fills the first block exactly when the last byte arrives:
    ``bz2.compress`` then makes a second, one-byte block."""
    return _run_free(_block_limit(level) + 1)


def _run_across_limit(level, run, offset):
    """A run of ``run`` equal bytes that starts ``offset`` RLE1 bytes
    from the block limit, between run-free bytes."""
    head = _run_free(_block_limit(level) + offset)
    return head + b"\x07" * run + _run_free(300, seed=1)


def _identical(blocks):
    """Equal bytes filling ``blocks`` level-1 blocks, the last one
    partly: 255-byte runs code as 5 RLE1 bytes."""
    return b"\x42" * int((blocks - 0.5) * _block_limit(1) / 5 * 255)


#: name -> (level, input builder): each input is built by its own test.
BLOCK_EDGE_INPUTS = {
    **{
        f"filled-on-last-byte-{level}": (
            level, functools.partial(_filled_on_last_byte, level)
        )
        for level in LEVELS
    },
    **{
        f"run-{run}-at-{offset:+d}-{level}": (
            level, functools.partial(_run_across_limit, level, run, offset)
        )
        for level in (1, 2)
        for run in (3, 4, 5, 255, 256)
        for offset in (-2, -1, 0)
    },
    **{
        f"identical-{blocks}-blocks": (1, functools.partial(_identical, blocks))
        for blocks in (1, 2, 3)
    },
}


@pytest.fixture(scope="module")
def registry_solver_inputs():
    """Each registry dataset's bzip2 solver input, as the pipeline builds it.

    At 20,000 elements the EUPA sample is the whole input, so the
    winning trial carries chunk 0's exact solver input.
    """
    selector = EupaSelector(IsobarConfig(codec="bzip2"))
    return {
        name: selector.select(
            generate_dataset(name, n_elements=20_000, seed=0)
        ).trial.solver_input
        for name in dataset_names()
    }


class TestBzip2Binding:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
    def test_matches_bz2_module(self, name, level):
        data = SMALL_INPUTS[name]
        assert Bzip2Codec(level).compress(data) == bz2.compress(data, level)

    @pytest.mark.parametrize("level", [1, 9])
    @pytest.mark.parametrize("name", dataset_names())
    def test_matches_bz2_module_on_registry_solver_inputs(
        self, registry_solver_inputs, name, level
    ):
        data = registry_solver_inputs[name]
        assert Bzip2Codec(level).compress(data) == bz2.compress(data, level)

    @pytest.mark.parametrize("name", sorted(BLOCK_EDGE_INPUTS))
    def test_matches_bz2_module_at_block_edges(self, name):
        level, build = BLOCK_EDGE_INPUTS[name]
        data = build()
        assert Bzip2Codec(level).compress(data) == bz2.compress(data, level)

    @pytest.mark.parametrize("level", LEVELS)
    def test_filled_block_closes_before_the_pending_run(self, level):
        data = _filled_on_last_byte(level)
        assert standard.bzip2_block_starts(data, level) == [0, len(data) - 1]

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_identical_bytes_block_count(self, blocks):
        data = _identical(blocks)
        assert len(standard.bzip2_block_starts(data, 1)) == blocks

    @pytest.mark.parametrize(
        "wrap", [bytes, bytearray, memoryview], ids=lambda w: w.__name__
    )
    def test_buffer_types(self, wrap):
        data = SMALL_INPUTS["random"]
        assert Bzip2Codec().compress(wrap(data)) == bz2.compress(data, 9)

    def test_binding_is_used_where_available(self):
        if standard._bz2_binding()[0] is None:
            pytest.skip(standard.bzip2_binding_description())
        assert standard.bzip2_binding_description().startswith("libbz2")

    @pytest.mark.parametrize(
        "patch",
        [
            ("_bz2_binding", lambda: (None, "unbound")),
            ("_bz2_binding", lambda: (lambda *args: -3, "BZ_PARAM_ERROR")),
            ("_UINT_MAX", 1_000),                    # input too large
        ],
        ids=["unbound", "not-bz-ok", "exceeds-c-uint"],
    )
    def test_fallback_to_bz2_module(self, monkeypatch, patch):
        calls = []
        real = bz2.compress

        def spy(data, level):
            calls.append(level)
            return real(data, level)

        monkeypatch.setattr(standard, *patch)
        monkeypatch.setattr(standard.bz2, "compress", spy)
        data = SMALL_INPUTS["100k-identical"]
        for level in LEVELS:
            assert Bzip2Codec(level).compress(data) == real(data, level)
        assert calls == list(LEVELS)

    def test_concurrent_threads_produce_identical_output(self):
        data = SMALL_INPUTS["random"] + SMALL_INPUTS["100k-identical"]
        expected = bz2.compress(data, 9)
        results: list[bytes] = []
        barrier = threading.Barrier(2)

        def work():
            barrier.wait()
            results.append(Bzip2Codec().compress(data))

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [expected, expected]
