"""Unit tests for the thread-parallel compressor."""

import numpy as np
import pytest

from repro.core.exceptions import ChecksumError, ConfigurationError
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.datasets.synthetic import build_structured
from repro.testing.faults import chunk_chain_end

# 30k-element chunks keep the analyzer threshold reliable at tau=1.42
# (see repro.core.autotune.minimum_reliable_tau).
_CFG = IsobarConfig(chunk_elements=30_000, sample_elements=2048)


@pytest.fixture
def multichunk(rng):
    return build_structured(150_000, np.float64, 6, rng)


class TestEquivalence:
    def test_identical_container_to_serial(self, multichunk):
        serial = IsobarCompressor(_CFG).compress(multichunk)
        parallel = ParallelIsobarCompressor(_CFG, n_workers=4).compress(
            multichunk
        )
        assert serial == parallel

    def test_cross_decompression(self, multichunk):
        serial = IsobarCompressor(_CFG)
        parallel = ParallelIsobarCompressor(_CFG, n_workers=4)
        blob = parallel.compress(multichunk)
        assert np.array_equal(serial.decompress(blob), multichunk)
        blob2 = serial.compress(multichunk)
        assert np.array_equal(parallel.decompress(blob2), multichunk)

    def test_single_worker_degenerates(self, multichunk):
        one = ParallelIsobarCompressor(_CFG, n_workers=1)
        assert np.array_equal(
            one.decompress(one.compress(multichunk)), multichunk
        )

    def test_detailed_stats_complete(self, multichunk):
        result = ParallelIsobarCompressor(_CFG, n_workers=3).compress_detailed(
            multichunk
        )
        assert len(result.chunks) == 5  # ceil(150000/30000)
        assert result.header.n_chunks == 5
        assert all(chunk.improvable for chunk in result.chunks)

    def test_shape_preserved(self, rng):
        values = build_structured(90_000, np.float64, 6, rng).reshape(300, 300)
        compressor = ParallelIsobarCompressor(_CFG, n_workers=4)
        restored = compressor.decompress(compressor.compress(values))
        assert restored.shape == (300, 300)
        assert np.array_equal(restored, values)


class TestEdgeCases:
    def test_empty_array(self):
        compressor = ParallelIsobarCompressor(_CFG, n_workers=2)
        blob = compressor.compress(np.array([], dtype=np.float64))
        assert compressor.decompress(blob).size == 0

    def test_single_chunk(self, rng):
        values = build_structured(5_000, np.float64, 6, rng)
        compressor = ParallelIsobarCompressor(_CFG, n_workers=4)
        assert np.array_equal(
            compressor.decompress(compressor.compress(values)), values
        )

    def test_worker_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelIsobarCompressor(n_workers=0)

    def test_corruption_detected_in_parallel_decode(self, multichunk):
        compressor = ParallelIsobarCompressor(_CFG, n_workers=4)
        blob = bytearray(compressor.compress(multichunk))
        # Raw noise tail of the final chunk, just before the footer.
        blob[chunk_chain_end(bytes(blob)) - 3] ^= 0xFF
        with pytest.raises(ChecksumError):
            compressor.decompress(bytes(blob))

    def test_mixed_chunk_modes(self, rng):
        noisy = build_structured(30_000, np.float64, 6, rng)
        flat = np.full(30_000, 2.5)
        values = np.concatenate([noisy, flat])
        config = IsobarConfig(chunk_elements=30_000, sample_elements=2048)
        compressor = ParallelIsobarCompressor(config, n_workers=2)
        assert np.array_equal(
            compressor.decompress(compressor.compress(values)), values
        )


class TestFaultContainment:
    """Poisoned chunks under the thread pool: legacy fail-fast must
    surface the original exception; a resilience policy must degrade
    identically to the serial path."""

    def _pinned(self, **overrides):
        from repro.core.preferences import Linearization

        base = dict(
            codec="zlib",
            linearization=Linearization.ROW,
            chunk_elements=30_000,
            sample_elements=2048,
        )
        base.update(overrides)
        return IsobarConfig(**base)

    def _partial_flaky(self, values, fail_percent=40.0):
        from repro.core.preferences import Linearization
        from repro.testing.chaos import FlakyCodec, solver_payloads

        payloads = solver_payloads(
            values, chunk_elements=30_000, linearization=Linearization.ROW
        )
        for seed in range(500):
            flaky = FlakyCodec("zlib", fail_percent=fail_percent, seed=seed)
            doomed = sum(flaky.is_doomed(p) for p in payloads)
            if 0 < doomed < len(payloads):
                return flaky
        raise AssertionError("no non-degenerate chaos seed in 500 tries")

    def test_poisoned_chunk_surfaces_original_exception(self, multichunk):
        from repro.testing.chaos import ChaosCodecError, FlakyCodec, \
            chaos_codec

        # Call 1 is the selector trial (serial); one of the pool's chunk
        # compress calls draws ordinal 2 and raises.  Legacy fail-fast
        # must re-raise that exact exception type, not wrap or hang.
        config = self._pinned(resilience=None)
        with chaos_codec(FlakyCodec("zlib", fail_percent=0.0,
                                    fail_calls=(2,))):
            with pytest.raises(ChaosCodecError):
                ParallelIsobarCompressor(config, n_workers=4).compress(
                    multichunk
                )

    def test_strict_policy_fails_fast_in_parallel(self, multichunk):
        from repro.core.exceptions import CodecError
        from repro.core.resilience import ResiliencePolicy
        from repro.testing.chaos import FlakyCodec, chaos_codec

        config = self._pinned(resilience=ResiliencePolicy(strict=True))
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            with pytest.raises(CodecError):
                ParallelIsobarCompressor(config, n_workers=4).compress(
                    multichunk
                )

    def test_degraded_output_identical_to_serial(self, multichunk):
        from repro.core.resilience import ResiliencePolicy
        from repro.testing.chaos import chaos_codec

        # Content-keyed faults doom the same chunks regardless of
        # thread scheduling, so serial and parallel runs must emit
        # byte-identical containers even while degrading.
        config = self._pinned(resilience=ResiliencePolicy())
        with chaos_codec(self._partial_flaky(multichunk)):
            serial = IsobarCompressor(config).compress_detailed(multichunk)
        with chaos_codec(self._partial_flaky(multichunk)):
            parallel = ParallelIsobarCompressor(
                config, n_workers=4
            ).compress_detailed(multichunk)
        assert serial.degradation.degraded_chunks > 0
        assert serial.payload == parallel.payload
        assert serial.degradation == parallel.degradation

    def test_parallel_degraded_container_roundtrips(self, multichunk):
        from repro.testing.chaos import FlakyCodec, chaos_codec

        config = self._pinned()
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            result = ParallelIsobarCompressor(
                config, n_workers=4
            ).compress_detailed(multichunk)
        assert result.degradation.degraded_chunks == len(result.chunks)
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(np.asarray(restored).reshape(-1), multichunk)

    def test_parallel_decompress_poisoned_future_contained(self, multichunk):
        # Corrupt one chunk payload: the parallel decoder must surface
        # the checksum failure, not deadlock waiting on cancelled work.
        compressor = ParallelIsobarCompressor(_CFG, n_workers=4)
        blob = bytearray(compressor.compress(multichunk))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ChecksumError):
            compressor.decompress(bytes(blob))


class TestPipelinedEngine:
    """Properties specific to the pipelined block-worker rework."""

    @pytest.mark.parametrize("seed", [11, 42, 1234])
    def test_byte_identical_under_adversarial_scheduling(
        self, multichunk, seed
    ):
        """Seeded slow-worker permutations: a codec that sleeps a
        seeded random time per chunk forces out-of-order completion,
        yet reassembly must stay byte-identical to the serial run."""
        import random
        import threading
        import time

        from repro.codecs.base import get_codec
        from repro.testing.chaos import chaos_codec

        class JitterCodec:
            # Content-keyed delays: identical per serial/parallel run,
            # different per chunk — the adversarial scheduler.
            name = "zlib"
            releases_gil = False

            def __init__(self, inner, seed):
                self._inner = inner
                self._seed = seed
                self._lock = threading.Lock()

            def _nap(self, data):
                delay = random.Random(
                    self._seed ^ len(data) ^ data[0]
                ).uniform(0.0, 0.01)
                time.sleep(delay)

            def compress(self, data):
                self._nap(data)
                return self._inner.compress(data)

            def decompress(self, data):
                self._nap(data)
                return self._inner.decompress(data)

        serial = IsobarCompressor(_CFG).compress(multichunk)
        jitter = JitterCodec(get_codec("zlib"), seed)
        with chaos_codec(jitter):
            parallel = ParallelIsobarCompressor(
                _CFG, n_workers=4, max_inflight=4
            ).compress(multichunk)
        assert parallel == serial

    def test_max_inflight_bounds_peak_buffered_blocks(self, rng):
        """Backpressure: peak fed-but-unconsumed blocks (≈ buffered
        chunk payloads) never exceed the configured bound."""
        values = build_structured(300_000, np.float64, 6, rng)
        compressor = ParallelIsobarCompressor(
            _CFG, n_workers=4, max_inflight=2
        )
        blob = compressor.compress(values)
        stats = compressor.last_runner_stats
        assert stats is not None
        assert stats.fed_blocks == 10  # ceil(300000/30000)
        assert stats.peak_inflight <= 2
        # The bound is a memory statement: at most max_inflight chunk
        # payloads buffered beyond the consumer, whatever the stream
        # length.
        assert np.array_equal(
            IsobarCompressor(_CFG).decompress(blob), values
        )

    def test_max_inflight_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelIsobarCompressor(_CFG, n_workers=2, max_inflight=0)

    def test_gil_bound_codec_on_worker_threads_matches_serial(
        self, rng, gil_bound_codec
    ):
        """A GIL-bound codec on 2 worker threads is byte-identical to
        serial."""
        values = build_structured(40_000, np.float64, 6, rng)
        config = IsobarConfig(
            codec=gil_bound_codec.name, chunk_elements=10_000,
            sample_elements=2048,
        )
        serial = IsobarCompressor(config).compress(values)
        parallel_comp = ParallelIsobarCompressor(config, n_workers=2)
        parallel = parallel_comp.compress(values)
        assert parallel == serial
        assert parallel_comp.last_runner_stats is not None
        assert np.array_equal(parallel_comp.decompress(parallel), values)

    def test_parallel_engine_metrics_exported(self, multichunk):
        from repro.observability import to_prometheus_text

        compressor = ParallelIsobarCompressor(
            _CFG, n_workers=2, collect_metrics=True
        )
        compressor.compress(multichunk)
        text = to_prometheus_text(compressor.metrics)
        assert "isobar_parallel_inflight_blocks" in text
        assert "isobar_parallel_worker_wait_seconds_total" in text
