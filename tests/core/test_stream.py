"""Unit tests for streaming file-to-file compression."""

import tracemalloc

import numpy as np
import pytest

from repro.core.exceptions import (
    ConfigurationError,
    ContainerFormatError,
    InvalidInputError,
    IsobarError,
)
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.stream import StreamingWriter, stream_compress, stream_decompress
from repro.datasets.synthetic import build_structured
from repro.testing.faults import chunk_chain_end

_CFG = IsobarConfig(chunk_elements=10_000, sample_elements=2048)


@pytest.fixture
def data(rng):
    return build_structured(35_000, np.float64, 6, rng)


def _chunks(values, size):
    for start in range(0, values.size, size):
        yield values[start:start + size]


class TestStreamingRoundTrip:
    def test_chunked_roundtrip(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        written = stream_compress(_chunks(data, 10_000), path, np.float64,
                                  config=_CFG)
        assert written == path.stat().st_size
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_container_readable_by_in_memory_pipeline(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        restored = IsobarCompressor().decompress(path.read_bytes())
        assert np.array_equal(restored.reshape(-1), data)

    def test_pipeline_container_readable_by_stream_reader(self, tmp_path,
                                                          data):
        path = tmp_path / "c.isobar"
        payload = IsobarCompressor(_CFG).compress(data)
        path.write_bytes(payload)
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_uneven_chunks(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 7_777), path, np.float64, config=_CFG)
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_compresses(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        written = stream_compress(_chunks(data, 10_000), path, np.float64,
                                  config=_CFG)
        assert written < data.nbytes

    def test_float32_stream(self, tmp_path, rng):
        values = build_structured(20_000, np.float32, 2, rng)
        path = tmp_path / "f.isobar"
        stream_compress(_chunks(values, 8_000), path, np.float32, config=_CFG)
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(
            restored.view(np.uint32), values.view(np.uint32)
        )


class TestStreamingWriter:
    def test_context_manager(self, tmp_path, data):
        path = tmp_path / "w.isobar"
        with open(path, "wb") as sink:
            with StreamingWriter(sink, np.float64, config=_CFG) as writer:
                for chunk in _chunks(data, 10_000):
                    writer.write_chunk(chunk)
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.isobar"
        stream_compress(iter(()), path, np.float64, config=_CFG)
        assert list(stream_decompress(path)) == []

    def test_zero_length_chunks_skipped(self, tmp_path, data):
        path = tmp_path / "z.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            writer.write_chunk(np.array([], dtype=np.float64))
            writer.write_chunk(data[:10_000])
            writer.close()
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data[:10_000])

    def test_dtype_mismatch_rejected(self, tmp_path, data):
        path = tmp_path / "m.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            with pytest.raises(InvalidInputError):
                writer.write_chunk(data.astype(np.float32))
            writer.close()

    def test_write_after_close_rejected(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            writer.write_chunk(data[:5_000])
            writer.close()
            with pytest.raises(InvalidInputError):
                writer.write_chunk(data[:5_000])

    def test_close_idempotent(self, tmp_path, data):
        path = tmp_path / "i.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            writer.write_chunk(data[:5_000])
            writer.close()
            writer.close()  # no-op


class TestCrashSafety:
    """Atomic publication and crashed-writer recovery."""

    def test_open_is_atomic(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        with StreamingWriter.open(path, np.float64, config=_CFG) as writer:
            writer.write_chunk(data[:10_000])
            assert not path.exists()  # nothing published before close
        assert path.exists()
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data[:10_000])
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up

    def test_exception_inside_context_aborts(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        with pytest.raises(RuntimeError):
            with StreamingWriter.open(path, np.float64, config=_CFG) as writer:
                writer.write_chunk(data[:10_000])
                raise RuntimeError("simulated crash")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no temp debris either

    def test_abort_is_idempotent(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        writer = StreamingWriter.open(path, np.float64, config=_CFG)
        writer.write_chunk(data[:10_000])
        writer.abort()
        writer.abort()
        assert not path.exists()

    def test_non_atomic_open_writes_in_place(self, tmp_path, data):
        path = tmp_path / "a.isobar"
        with StreamingWriter.open(path, np.float64, config=_CFG,
                                  atomic=False) as writer:
            writer.write_chunk(data[:10_000])
            assert path.exists()  # visible immediately without atomic
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data[:10_000])

    def _crashed_stream(self, tmp_path, data):
        """A stream whose writer never reached close(): the header still
        carries the n_chunks=0 placeholder."""
        path = tmp_path / "crashed.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, np.float64, config=_CFG)
            for chunk in _chunks(data, 10_000):
                writer.write_chunk(chunk)
            sink.flush()
            # Simulated kill -9: no close(), no header patch.
        return path

    def test_unclosed_stream_strict_read_fails(self, tmp_path, data):
        path = self._crashed_stream(tmp_path, data)
        with pytest.raises(ContainerFormatError) as excinfo:
            list(stream_decompress(path))
        assert "tolerate_unclosed" in str(excinfo.value)

    def test_unclosed_stream_recovered_with_zero_chunk_loss(self, tmp_path,
                                                            data):
        path = self._crashed_stream(tmp_path, data)
        restored = np.concatenate(
            list(stream_decompress(path, tolerate_unclosed=True))
        )
        assert np.array_equal(restored, data)

    def test_unclosed_stream_with_torn_tail(self, tmp_path, data):
        # kill -9 mid-write: the final chunk is half-flushed.
        path = self._crashed_stream(tmp_path, data)
        torn = tmp_path / "torn.isobar"
        torn.write_bytes(path.read_bytes()[:-40])
        restored = np.concatenate(
            list(stream_decompress(torn, tolerate_unclosed=True))
        )
        # All fully-flushed chunks survive; only the torn tail is lost.
        assert restored.size in (10_000, 20_000, 30_000)
        assert np.array_equal(restored, data[: restored.size])

    def test_tolerate_unclosed_on_closed_stream_is_harmless(self, tmp_path,
                                                            data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        restored = np.concatenate(
            list(stream_decompress(path, tolerate_unclosed=True))
        )
        assert np.array_equal(restored, data)


class TestLenientStreaming:
    def test_skip_policy(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        corrupted = bytearray(path.read_bytes())
        corrupted[chunk_chain_end(bytes(corrupted)) - 2] ^= 0xFF
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(IsobarError):
            list(stream_decompress(bad))
        restored = np.concatenate(list(stream_decompress(bad, errors="skip")))
        assert np.array_equal(restored, data[:30_000])

    def test_zero_fill_policy(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        corrupted = bytearray(path.read_bytes())
        corrupted[chunk_chain_end(bytes(corrupted)) - 2] ^= 0xFF
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(bytes(corrupted))
        restored = np.concatenate(
            list(stream_decompress(bad, errors="zero_fill"))
        )
        assert restored.size == data.size
        assert np.array_equal(restored[:30_000], data[:30_000])
        assert np.all(restored[30_000:] == 0)

    def test_unknown_policy_rejected(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        with pytest.raises(ConfigurationError):
            list(stream_decompress(path, errors="replace"))

    def test_canonical_policy_spellings(self, tmp_path, data):
        """The unified errors= vocabulary works on the streaming reader."""
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64, config=_CFG)
        corrupted = bytearray(path.read_bytes())
        corrupted[chunk_chain_end(bytes(corrupted)) - 2] ^= 0xFF
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(bytes(corrupted))
        skipped = np.concatenate(
            list(stream_decompress(bad, errors="salvage-skip"))
        )
        assert np.array_equal(skipped, data[:30_000])
        zeroed = np.concatenate(
            list(stream_decompress(bad, errors="salvage-zero"))
        )
        assert zeroed.size == data.size
        assert np.all(zeroed[30_000:] == 0)

    def test_lenient_read_memory_matches_strict_read(self, tmp_path):
        """A lenient stream read holds one chunk at a time, as the
        strict one does: it never loads the whole file."""
        n_chunks, chunk_elements = 16, 100_000
        values = np.cumsum(
            np.random.default_rng(0).standard_normal(n_chunks * chunk_elements)
        )
        path = tmp_path / "walk.isobar"
        stream_compress(
            _chunks(values, chunk_elements), path, np.float64,
            config=IsobarConfig(chunk_elements=chunk_elements),
        )
        # Reading the whole file would cost many chunks' worth.
        assert path.stat().st_size > 8 * values.nbytes / n_chunks

        def peak(errors: str) -> int:
            tracemalloc.start()
            try:
                for _ in stream_decompress(path, errors=errors):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        strict = peak("raise")
        assert peak("salvage-skip") <= 1.5 * strict


class TestStreamingResilience:
    """Degraded chunks flush through the streaming writer like healthy
    ones, and the runner's in-flight bound (``readahead_chunks``)
    overlaps production with compression."""

    def _pinned(self, **overrides):
        from repro.core.preferences import Linearization

        base = dict(
            codec="zlib",
            linearization=Linearization.ROW,
            chunk_elements=10_000,
            sample_elements=2048,
        )
        base.update(overrides)
        return IsobarConfig(**base)

    def test_degraded_chunks_flush_and_roundtrip(self, tmp_path, data):
        from repro.testing.chaos import FlakyCodec, chaos_codec

        path = tmp_path / "c.isobar"
        config = self._pinned()
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            stream_compress(_chunks(data, 10_000), path, np.float64,
                            config=config)
        # Pristine registry decodes the degraded stream bit-exactly.
        restored = np.concatenate(list(stream_decompress(path)))
        assert np.array_equal(restored, data)

    def test_writer_degradation_report(self, tmp_path, data):
        from repro.testing.chaos import FlakyCodec, chaos_codec

        config = self._pinned()
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            writer = StreamingWriter.open(
                tmp_path / "c.isobar", np.float64, config
            )
            for chunk in _chunks(data, 10_000):
                writer.write_chunk(chunk)
            writer.close()
        report = writer.degradation
        assert report.degraded_chunks == 4  # ceil(35000 / 10000)
        assert [e.chunk_index for e in report.events] == [0, 1, 2, 3]

    def test_streaming_output_matches_pipeline_under_chaos(self, tmp_path,
                                                           data):
        from repro.testing.chaos import FlakyCodec, chaos_codec

        config = self._pinned()
        path = tmp_path / "c.isobar"
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            stream_compress(_chunks(data, 10_000), path, np.float64,
                            config=config)
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            pipeline = IsobarCompressor(config).compress(data)
        assert path.read_bytes() == pipeline

    def test_strict_streaming_fails_hard(self, tmp_path, data):
        from repro.core.exceptions import CodecError
        from repro.core.resilience import ResiliencePolicy
        from repro.testing.chaos import FlakyCodec, chaos_codec

        config = self._pinned(
            resilience=ResiliencePolicy(strict=True)
        )
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            with pytest.raises(CodecError):
                stream_compress(_chunks(data, 10_000),
                                tmp_path / "c.isobar", np.float64,
                                config=config)

    def test_readahead_roundtrip_identical(self, tmp_path, data):
        inline = tmp_path / "inline.isobar"
        ahead = tmp_path / "ahead.isobar"
        stream_compress(_chunks(data, 10_000), inline, np.float64,
                        config=_CFG)
        stream_compress(_chunks(data, 10_000), ahead, np.float64,
                        config=_CFG, n_workers=2, readahead_chunks=2)
        assert inline.read_bytes() == ahead.read_bytes()

    def test_readahead_negative_rejected(self, tmp_path, data):
        with pytest.raises(InvalidInputError):
            stream_compress(_chunks(data, 10_000),
                            tmp_path / "c.isobar", np.float64,
                            config=_CFG, readahead_chunks=-1)

    def test_readahead_propagates_source_error(self, tmp_path):
        def exploding():
            yield np.zeros(1000)
            raise RuntimeError("simulation crashed")

        with pytest.raises(RuntimeError, match="simulation crashed"):
            stream_compress(exploding(), tmp_path / "c.isobar",
                            np.float64, config=_CFG, n_workers=2,
                            readahead_chunks=4)
        # Atomic write: the sink must not exist after the failure.
        assert not (tmp_path / "c.isobar").exists()

    def test_decompress_readahead_roundtrip_identical(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64,
                        config=_CFG)
        inline = np.concatenate(list(stream_decompress(path)))
        ahead = np.concatenate(
            list(stream_decompress(path, n_workers=2, readahead_chunks=3))
        )
        assert np.array_equal(inline, ahead)
        assert np.array_equal(inline, data)

    def test_decompress_readahead_negative_rejected(self, tmp_path, data):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64,
                        config=_CFG)
        with pytest.raises(InvalidInputError):
            list(stream_decompress(path, readahead_chunks=-1))

    def test_decompress_readahead_propagates_decode_error(
        self, tmp_path, data
    ):
        path = tmp_path / "c.isobar"
        stream_compress(_chunks(data, 10_000), path, np.float64,
                        config=_CFG)
        blob = bytearray(path.read_bytes())
        # Corrupt the final chunk's payload (just before the footer).
        blob[chunk_chain_end(bytes(blob)) - 10] ^= 0xFF
        path.write_bytes(bytes(blob))
        consumed = []
        with pytest.raises(IsobarError):
            for chunk in stream_decompress(path, n_workers=2,
                                           readahead_chunks=2):
                consumed.append(chunk)
        assert consumed  # earlier chunks arrived before the error
