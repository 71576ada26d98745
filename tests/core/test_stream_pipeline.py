"""Differential tests: streams on the engine's block runner.

``StreamingWriter(n_workers > 1)`` encodes its chunks on the engine's
:class:`~repro.core.pipeline_engine.PipelinedBlockRunner` and
``stream_decompress(n_workers > 1)`` decodes on it.  Over every
registry dataset the pipelined paths must write the inline writer's
bytes, read back the inline reader's chunks, fail with the inline
reader's located error on damaged files, and leave a crashed writer's
file holding exactly the chunks that reached the sink.  The
container digests themselves are pinned in ``test_engine_identity``.
"""

import io

import numpy as np
import pytest

import repro
import repro.api
from repro.core.exceptions import CodecError
from repro.core.preferences import IsobarConfig, Linearization
from repro.core.resilience import ResiliencePolicy
from repro.core.stream import StreamingWriter, stream_decompress
from repro.datasets import dataset_names, generate_dataset
from repro.testing.chaos import ChaosCodecError, ChaosWrapper, chaos_codec

CONFIG = IsobarConfig(chunk_elements=5_000)
STEP = 1_700


@pytest.fixture(params=dataset_names())
def values(request):
    return generate_dataset(request.param, n_elements=20_000, seed=3)


def _pieces(values: np.ndarray, step: int = STEP) -> list[np.ndarray]:
    return [values[i:i + step] for i in range(0, values.size, step)]


def _written(values: np.ndarray, n_workers: int) -> bytes:
    sink = io.BytesIO()
    writer = StreamingWriter(sink, values.dtype, CONFIG, n_workers=n_workers)
    for piece in _pieces(values):
        writer.write_chunk(piece)
    writer.close()
    return sink.getvalue()


def _read(path, n_workers: int) -> tuple[list[np.ndarray], str | None]:
    """Chunks yielded before any error, and the error as ``Type: msg``."""
    chunks: list[np.ndarray] = []
    try:
        for chunk in stream_decompress(path, n_workers=n_workers):
            chunks.append(chunk)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return chunks, f"{type(exc).__name__}: {exc}"
    return chunks, None


def _same_chunks(left: list[np.ndarray], right: list[np.ndarray]) -> bool:
    return len(left) == len(right) and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(left, right)
    )


class TestRegistryDifferential:
    def test_caller_buffer_reuse_is_snapshotted(self, values):
        """An in-situ caller overwrites one buffer after every call."""
        sink = io.BytesIO()
        writer = StreamingWriter(sink, values.dtype, CONFIG, n_workers=2)
        buffer = np.empty(STEP, dtype=values.dtype)
        for piece in _pieces(values):
            view = buffer[:piece.size]
            view[:] = piece
            writer.write_chunk(view)
            buffer.view(np.uint8)[:] = 0xA5  # the next step's field
        writer.close()
        assert sink.getvalue() == _written(values, 1)

    def test_runner_reader_matches_inline_reader(self, values, tmp_path):
        path = tmp_path / "s.isobar"
        path.write_bytes(_written(values, 2))
        inline, error = _read(path, 1)
        assert error is None
        assert np.array_equal(np.concatenate(inline), values)
        assert _same_chunks(_read(path, 2)[0], inline)

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_runner_reader_fails_like_inline_reader(
        self, values, tmp_path, damage
    ):
        blob = bytearray(_written(values, 1))
        if damage == "flip":
            blob[len(blob) // 2] ^= 0xFF
        else:
            del blob[len(blob) // 2:]
        path = tmp_path / "damaged.isobar"
        path.write_bytes(bytes(blob))
        inline_chunks, inline_error = _read(path, 1)
        runner_chunks, runner_error = _read(path, 2)
        assert inline_error is not None
        assert runner_error == inline_error
        assert _same_chunks(runner_chunks, inline_chunks)

    def test_crashed_writer_keeps_exactly_the_flushed_chunks(
        self, values, tmp_path
    ):
        pieces = _pieces(values)
        path = tmp_path / "crashed.isobar"
        with open(path, "wb") as sink:
            writer = StreamingWriter(sink, values.dtype, CONFIG, n_workers=2)
            for piece in pieces:
                writer.write_chunk(piece)
            sink.flush()
            # What a kill -9 here leaves on disk: no close(), no header
            # patch, and the chunks still in flight are lost.
            crashed = path.read_bytes()
            writer.abort()  # caller-owned sink: only stops the runner
        assert len(crashed) == writer.bytes_written
        path.write_bytes(crashed)
        recovered = list(stream_decompress(path, tolerate_unclosed=True))
        assert 0 < len(recovered) <= len(pieces)
        assert _same_chunks(recovered, pieces[:len(recovered)])
        # Exactly the chunks that reached the sink: the inline writer
        # given just those chunks leaves the same bytes before close().
        inline = io.BytesIO()
        prefix = StreamingWriter(inline, values.dtype, CONFIG)
        for piece in pieces[:len(recovered)]:
            prefix.write_chunk(piece)
        assert inline.getvalue() == crashed


@pytest.mark.parametrize("max_inflight", [1, 2, 3])
def test_writer_respects_the_in_flight_bound(max_inflight):
    values = generate_dataset("msg_sweep3d", n_elements=20_000, seed=3)
    writer = StreamingWriter(
        io.BytesIO(), values.dtype, CONFIG,
        n_workers=2, max_inflight=max_inflight,
    )
    written = sum(writer.write_chunk(piece) for piece in _pieces(values))
    writer.close()
    stats = writer.last_runner_stats
    assert stats is not None
    assert stats.fed_blocks == stats.consumed_blocks == len(_pieces(values))
    assert 1 <= stats.peak_inflight <= max_inflight
    # write_chunk returned what it flushed; close() flushed the rest.
    assert written <= writer.bytes_written


class _FailsNonZero(ChaosWrapper):
    """zlib that refuses any payload with a non-zero byte.

    An all-zero chunk 0 compresses (the decide step and the writer's
    header need it), and every later, non-zero chunk fails on a
    worker, so the error surfaces after the first ``write_chunk``.
    """

    releases_gil = True  # delegates to zlib, so the facade pipelines

    def _before(self, operation: str, data: bytes, ordinal: int) -> None:
        if operation == "compress" and bytes(data).strip(b"\0"):
            raise ChaosCodecError(f"{self.name}: non-zero payload")


def test_deferred_chunk_error_leaves_no_files(tmp_path, monkeypatch):
    monkeypatch.setattr(repro.api, "usable_cpus", lambda: 2)
    config = IsobarConfig(
        codec="zlib", linearization=Linearization.ROW, chunk_elements=5_000,
        resilience=ResiliencePolicy(strict=True),
    )
    path = tmp_path / "s.isobar"
    rng = np.random.default_rng(5)
    with chaos_codec(_FailsNonZero("zlib")):
        with pytest.raises(CodecError):
            with repro.open_stream(
                path, "w", dtype=np.float64, config=config
            ) as writer:
                writer.write_chunk(np.zeros(5_000))
                writer.write_chunk(rng.random(5_000))
    assert writer.last_runner_stats is not None  # ran pipelined
    assert list(tmp_path.iterdir()) == []


def test_failing_close_discards_the_temp_file(tmp_path, monkeypatch):
    def refuse(_fd: int) -> None:
        raise OSError("disk full")

    path = tmp_path / "s.isobar"
    writer = StreamingWriter.open(path, np.float64, CONFIG)
    writer.write_chunk(np.linspace(0.0, 1.0, 5_000))
    monkeypatch.setattr("repro.core.stream.os.fsync", refuse)
    with pytest.raises(OSError, match="disk full"):
        writer.close()
    assert writer._sink.closed
    assert list(tmp_path.iterdir()) == []
    writer.close()  # the writer is closed: a no-op now


def test_worker_degradation_matches_the_in_memory_engine():
    """Every solver call fails: workers degrade each chunk exactly as
    the in-memory engine does."""
    from repro.core.pipeline import IsobarCompressor
    from repro.testing.chaos import FlakyCodec

    config = IsobarConfig(
        codec="zlib", linearization=Linearization.ROW, chunk_elements=5_000
    )
    values = generate_dataset("msg_sweep3d", n_elements=20_000, seed=3)
    with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
        sink = io.BytesIO()
        writer = StreamingWriter(sink, values.dtype, config, n_workers=2)
        for piece in _pieces(values, 5_000):
            writer.write_chunk(piece)
        writer.close()
        expected = IsobarCompressor(config).compress(values)
    assert writer.degradation.degraded_chunks == 4
    assert sink.getvalue() == expected


@pytest.mark.parametrize("mode", ["stream", "compress"])
def test_failed_block_raises_in_order(monkeypatch, mode):
    """A block that fails on a worker is not encoded again: the runner
    is cancelled and the first failed chunk's error raised, in order,
    even when a later chunk failed first."""
    import threading
    import time

    from repro.core.pipeline import IsobarCompressor

    encode = IsobarCompressor._compress_chunk

    def fails_on_workers(self, index, *args, **kwargs):
        if threading.current_thread().name.startswith("isobar-") and index:
            if index == 1:
                time.sleep(0.2)
            raise RuntimeError(f"worker lost chunk {index}")
        return encode(self, index, *args, **kwargs)

    values = generate_dataset("msg_sweep3d", n_elements=20_000, seed=3)
    monkeypatch.setattr(IsobarCompressor, "_compress_chunk", fails_on_workers)
    with pytest.raises(RuntimeError, match="worker lost chunk 1$"):
        if mode == "stream":
            _written(values, 2)
        else:
            IsobarCompressor(CONFIG, 2).compress(values)


def test_stress_more_workers_than_cores(tmp_path):
    """Four workers, tiny chunks and a short switch interval: any lost
    update to the shared in-flight bookkeeping shows as a changed file
    or a wrong chunk."""
    import sys

    values = generate_dataset("s3d_temp", n_elements=20_000, seed=3)
    pieces = _pieces(values, 250)
    path = tmp_path / "s.isobar"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with open(path, "wb") as sink:
            writer = StreamingWriter(
                sink, values.dtype, CONFIG, n_workers=4, max_inflight=3
            )
            for piece in pieces:
                writer.write_chunk(piece)
            writer.close()
        chunks = list(stream_decompress(path, n_workers=4, readahead_chunks=3))
    finally:
        sys.setswitchinterval(interval)
    inline = io.BytesIO()
    reference = StreamingWriter(inline, values.dtype, CONFIG)
    for piece in pieces:
        reference.write_chunk(piece)
    reference.close()
    assert path.read_bytes() == inline.getvalue()
    assert _same_chunks(chunks, pieces)
