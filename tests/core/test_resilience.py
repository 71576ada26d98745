"""Unit tests for the compress-side fault-containment layer.

Covers the :mod:`repro.core.resilience` primitives (policy, deadline
helper, degradation report) and their wiring through
:class:`~repro.core.pipeline.IsobarCompressor`: degraded chunks
round-trip bit-exactly, a failing chunk degrades on its one codec call
and on nothing but its bytes, strict mode fails hard, the fallback
chain obeys the policy and the observability counters match.
"""

import io
import threading

import numpy as np
import pytest

from repro.core.exceptions import (
    ChunkTimeoutError,
    CodecError,
    ConfigurationError,
)
from repro.core.metadata import ChunkMode, ContainerHeader, ChunkMetadata
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Linearization
from repro.core.resilience import (
    DegradationReport,
    ResiliencePolicy,
    call_with_deadline,
)
from repro.core.stream import StreamingWriter
from repro.datasets.synthetic import build_structured
from repro.testing.chaos import (
    CorruptingCodec,
    FlakyCodec,
    chaos_codec,
    solver_payloads,
)

_CHUNK = 4096


def _partial_flaky(values, fail_percent=40.0):
    """A flaky codec whose content-keyed trigger dooms some but not all
    chunks of ``values`` — seed found by deterministic scan."""
    payloads = solver_payloads(
        values, chunk_elements=_CHUNK, linearization=Linearization.ROW
    )
    for seed in range(500):
        flaky = FlakyCodec("zlib", fail_percent=fail_percent, seed=seed)
        doomed = sum(flaky.is_doomed(p) for p in payloads)
        if 0 < doomed < len(payloads):
            return flaky
    raise AssertionError("no non-degenerate chaos seed in 500 tries")


def _config(policy=ResiliencePolicy(), **overrides):
    base = dict(
        codec="zlib",
        linearization=Linearization.ROW,
        chunk_elements=_CHUNK,
        sample_elements=1024,
        resilience=policy,
    )
    base.update(overrides)
    return IsobarConfig(**base)


@pytest.fixture
def values(rng):
    return build_structured(5 * _CHUNK, np.float64, 6, rng)


class TestPolicy:
    def test_defaults_valid(self):
        policy = ResiliencePolicy()
        assert policy.fallback_zlib
        assert not policy.verify_roundtrip
        assert not policy.strict

    @pytest.mark.parametrize("kwargs", [
        {"chunk_deadline_seconds": -1.0},
        {"breaker_threshold": -1},
        {"chunk_deadline_seconds": 0.0},
        {"breaker_threshold": 0},
        {"breaker_probe_after": 0},
    ])
    def test_validation(self, kwargs):
        # These values were once range-checked; the fields themselves
        # are gone now, so the policy rejects them as unknown.
        with pytest.raises(TypeError):
            ResiliencePolicy(**kwargs)

    def test_replace(self):
        strict = ResiliencePolicy().replace(strict=True)
        assert strict.strict and not ResiliencePolicy().strict

    def test_config_rejects_non_policy(self):
        with pytest.raises(ConfigurationError):
            IsobarConfig(resilience="always")


class TestCallWithDeadline:
    def test_no_deadline_is_plain_call(self):
        assert call_with_deadline(bytes.upper, b"abc", None) == b"ABC"

    def test_timeout_raises(self):
        import time

        with pytest.raises(ChunkTimeoutError):
            call_with_deadline(
                lambda data: time.sleep(0.5) or data, b"x", 0.02
            )

    def test_fast_call_passes_result(self):
        assert call_with_deadline(bytes.upper, b"abc", 5.0) == b"ABC"

    def test_worker_exception_relayed(self):
        def boom(data):
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            call_with_deadline(boom, b"x", 5.0)


class TestDegradationReport:
    def test_dict_round_trip(self, values):
        with chaos_codec(_partial_flaky(values)):
            result = IsobarCompressor(_config()).compress_detailed(values)
        assert result.degraded
        report = result.degradation
        clone = DegradationReport.from_dict(report.to_dict())
        assert clone == report

    def test_clean_report(self):
        report = DegradationReport()
        assert report.clean
        assert report.degraded_chunks == 0
        assert report.summary_lines() == ["no degraded chunks"]


class TestPipelineDegradation:
    def test_flaky_codec_degrades_and_roundtrips(self, values):
        with chaos_codec(_partial_flaky(values)):
            result = IsobarCompressor(_config()).compress_detailed(values)
        assert 0 < result.degradation.degraded_chunks < len(result.chunks)
        # Pristine registry decodes the container bit-exactly.
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(np.asarray(restored).reshape(-1), values)

    def test_degraded_chunk_reports_annotated(self, values):
        with chaos_codec(_partial_flaky(values)):
            result = IsobarCompressor(_config()).compress_detailed(values)
        degraded = [c for c in result.chunks if c.degraded]
        assert degraded
        for chunk in degraded:
            assert chunk.encoding == "zlib-fallback"
            assert chunk.cause == "error"
            assert chunk.error
        healthy = [c for c in result.chunks if not c.degraded]
        assert all(c.encoding == "zlib" for c in healthy)

    def test_total_outage_never_fails(self, values):
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            result = IsobarCompressor(_config()).compress_detailed(values)
        assert result.degradation.degraded_chunks == len(result.chunks)
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(np.asarray(restored).reshape(-1), values)

    def test_fallback_disabled_stores_raw(self, values):
        policy = ResiliencePolicy(fallback_zlib=False)
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            result = IsobarCompressor(_config(policy)).compress_detailed(
                values
            )
        assert all(e.encoding == "raw" for e in result.degradation.events)
        # Worst case is ratio ~1.0: payload is the data plus framing.
        assert len(result.payload) >= values.nbytes
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(np.asarray(restored).reshape(-1), values)

    def test_raw_degraded_chunk_is_partitioned_all_false(self, values):
        policy = ResiliencePolicy(fallback_zlib=False)
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            result = IsobarCompressor(_config(policy)).compress_detailed(
                values
            )
        header, offset = ContainerHeader.decode(result.payload)
        meta, _ = ChunkMetadata.decode(
            result.payload, offset, header.element_width
        )
        assert meta.mode is ChunkMode.PARTITIONED
        assert meta.compressed_size == 0
        assert not any(meta.mask)

    def test_zlib_fallback_chunk_mode(self, values):
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            result = IsobarCompressor(_config()).compress_detailed(values)
        header, offset = ContainerHeader.decode(result.payload)
        meta, _ = ChunkMetadata.decode(
            result.payload, offset, header.element_width
        )
        assert meta.mode is ChunkMode.FALLBACK_ZLIB

    def test_strict_policy_raises(self, values):
        policy = ResiliencePolicy(strict=True)
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            with pytest.raises(CodecError, match="failed after"):
                IsobarCompressor(_config(policy)).compress(values)

    def test_legacy_none_policy_propagates_original(self, values):
        from repro.testing.chaos import ChaosCodecError

        # Call 1 is the selector's single pinned-candidate trial; call 2
        # is chunk 0's compress.  Failing only call 2 proves the *chunk*
        # path re-raises the original exception under the legacy policy.
        with chaos_codec(FlakyCodec("zlib", fail_percent=0.0,
                                    fail_calls=(2,))):
            with pytest.raises(ChaosCodecError):
                IsobarCompressor(_config(None)).compress(values)

    def test_verify_roundtrip_catches_silent_corruption(self, values):
        policy = ResiliencePolicy(verify_roundtrip=True)
        with chaos_codec(CorruptingCodec("zlib", corrupt_percent=100.0)):
            result = IsobarCompressor(_config(policy)).compress_detailed(
                values
            )
        assert result.degradation.degraded_chunks == len(result.chunks)
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(np.asarray(restored).reshape(-1), values)

    def test_failed_call_degrades_without_retry(self, values):
        # Call 1 is the selector trial; call 2 is chunk 0's one try.
        # Failing only call 2 degrades chunk 0 at once: no call 3 for
        # chunk 0, and every later chunk is healthy.
        flaky = FlakyCodec("zlib", fail_percent=0.0, fail_calls=(2,))
        with chaos_codec(flaky):
            result = IsobarCompressor(_config()).compress_detailed(values)
        assert [e.chunk_index for e in result.degradation.events] == [0]
        assert flaky.calls == 1 + len(result.chunks)

    def test_metrics_count_degradations(self, values):
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            compressor = IsobarCompressor(_config(), collect_metrics=True)
            result = compressor.compress_detailed(values)
        counter = compressor.metrics.get("isobar_chunks_degraded_total")
        assert counter.value(cause="error") == len(result.chunks)
        assert result.degradation.causes() == {"error": len(result.chunks)}

    def test_healthy_path_bytes_unchanged(self, values):
        # The resilience wiring must not perturb healthy output: default
        # policy and legacy fail-fast produce identical containers.
        with_policy = IsobarCompressor(_config()).compress(values)
        without = IsobarCompressor(_config(None)).compress(values)
        assert with_policy == without


class TestOneTryPerChunk:
    """A failing chunk degrades on its one primary-codec call."""

    @staticmethod
    def _compress(path, values, codec):
        config = _config(ResiliencePolicy())
        with chaos_codec(codec):
            if path == "stream":
                writer = StreamingWriter(io.BytesIO(), values.dtype, config)
                for start in range(0, values.size, _CHUNK):
                    writer.write_chunk(values[start:start + _CHUNK])
                writer.close()
            else:
                n_workers = 2 if path == "workers" else 1
                IsobarCompressor(config, n_workers).compress(values)

    @pytest.mark.parametrize("path", ["inline", "workers", "stream"])
    def test_doomed_chunk_calls_the_codec_once(self, path, values):
        healthy = FlakyCodec("zlib", fail_percent=0.0)
        self._compress(path, values, healthy)
        flaky = _partial_flaky(values)
        self._compress(path, values, flaky)
        assert flaky.failures > 0
        # Same codec calls as a clean run: no payload is tried twice.
        assert flaky.calls == healthy.calls
        assert flaky.failures == flaky.unique_failed_payloads

    def test_service_config_compress_starts_no_thread(self, monkeypatch):
        from repro.service import ServiceConfig

        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        config = ServiceConfig().isobar.replace(chunk_elements=_CHUNK)
        values = np.arange(10 * _CHUNK, dtype=np.float64)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        result = IsobarCompressor(config).compress_detailed(values)
        assert len(result.chunks) == 10
        assert started == []


class TestOtherReaders:
    """Degraded containers through every non-pipeline reader."""

    @pytest.fixture
    def degraded(self, values):
        with chaos_codec(_partial_flaky(values)):
            result = IsobarCompressor(_config()).compress_detailed(values)
        assert result.degraded  # guard: the fixture must exercise fallback
        return result.payload, values

    def test_random_access(self, degraded):
        from repro.core.random_access import ContainerReader

        payload, values = degraded
        reader = ContainerReader(payload)
        assert np.array_equal(reader.read_all().reshape(-1), values)
        assert reader.element(10) == values[10]

    def test_validate(self, degraded):
        from repro.core.fsck import fsck

        payload, _ = degraded
        report = fsck(payload)
        assert report.intact and report.clean

    def test_salvage(self, degraded):
        from repro.core.salvage import salvage_decompress

        payload, values = degraded
        result = salvage_decompress(payload, policy="skip")
        assert np.array_equal(
            np.asarray(result.values).reshape(-1), values
        )
