"""Unit tests for the compress-side fault-containment layer.

Covers the :mod:`repro.core.resilience` primitives (policy validation,
circuit-breaker state machine, deadline helper, degradation report) and
their wiring through :class:`~repro.core.pipeline.IsobarCompressor`:
degraded chunks round-trip bit-exactly, strict mode fails hard, the
fallback chain obeys the policy and the observability counters match.
"""

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
    BreakerState,
    CodecCircuitBreaker,
    DegradationReport,
    ResiliencePolicy,
    call_with_deadline,
)
from repro.datasets.synthetic import build_structured
from repro.testing.chaos import (
    CorruptingCodec,
    FlakyCodec,
    HangingCodec,
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
        assert policy.max_attempts == 2
        assert policy.fallback_zlib
        assert not policy.strict

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"retry_backoff_seconds": -1.0},
        {"chunk_deadline_seconds": 0.0},
        {"breaker_threshold": 0},
        {"breaker_probe_after": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(**kwargs)

    def test_replace(self):
        strict = ResiliencePolicy().replace(strict=True)
        assert strict.strict and not ResiliencePolicy().strict

    def test_config_rejects_non_policy(self):
        with pytest.raises(ConfigurationError):
            IsobarConfig(resilience="always")


class TestCircuitBreaker:
    def test_opens_after_k_consecutive_failures(self):
        breaker = CodecCircuitBreaker("zlib", threshold=3, probe_after=2)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_success_resets_the_streak(self):
        breaker = CodecCircuitBreaker("zlib", threshold=2, probe_after=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_denies_then_probes(self):
        breaker = CodecCircuitBreaker("zlib", threshold=1, probe_after=2)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        # Exactly probe_after denials, then a half-open probe.
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_failed_probe_reopens(self):
        breaker = CodecCircuitBreaker("zlib", threshold=1, probe_after=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()  # probe
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        # The skip count restarted: one more denial before the next probe.
        assert not breaker.allow()
        assert breaker.allow()

    def test_successful_probe_closes(self):
        breaker = CodecCircuitBreaker("zlib", threshold=1, probe_after=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()  # probe
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_admits_single_probe(self):
        breaker = CodecCircuitBreaker("zlib", threshold=1, probe_after=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()
        # While the probe is in flight nothing else gets through.
        assert not breaker.allow()

    def test_state_change_callback(self):
        seen = []
        breaker = CodecCircuitBreaker(
            "zlib", threshold=1, probe_after=1,
            on_state_change=lambda name, state: seen.append((name, state)),
        )
        breaker.record_failure()
        assert seen == [("zlib", BreakerState.OPEN)]

    def test_gauge_values(self):
        assert BreakerState.CLOSED.gauge_value == 0
        assert BreakerState.HALF_OPEN.gauge_value == 1
        assert BreakerState.OPEN.gauge_value == 2


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
            assert chunk.attempts == 2
        healthy = [c for c in result.chunks if not c.degraded]
        assert all(c.encoding == "zlib" for c in healthy)

    def test_total_outage_never_fails(self, values):
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            result = IsobarCompressor(_config()).compress_detailed(values)
        assert result.degradation.degraded_chunks == len(result.chunks)
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(np.asarray(restored).reshape(-1), values)

    def test_fallback_disabled_stores_raw(self, values):
        policy = ResiliencePolicy(fallback_zlib=False, breaker_threshold=100)
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
        policy = ResiliencePolicy(fallback_zlib=False, breaker_threshold=100)
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

    def test_timeout_degrades(self, values):
        policy = ResiliencePolicy(
            max_attempts=1, chunk_deadline_seconds=0.02,
            breaker_threshold=100,
        )
        with chaos_codec(
            HangingCodec("zlib", hang_seconds=0.3, hang_percent=100.0)
        ):
            result = IsobarCompressor(_config(policy)).compress_detailed(
                values
            )
        assert result.degradation.degraded_chunks == len(result.chunks)
        assert all(e.cause == "timeout" for e in result.degradation.events)
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(np.asarray(restored).reshape(-1), values)

    def test_verify_roundtrip_catches_silent_corruption(self, values):
        policy = ResiliencePolicy(verify_roundtrip=True, breaker_threshold=100)
        with chaos_codec(CorruptingCodec("zlib", corrupt_percent=100.0)):
            result = IsobarCompressor(_config(policy)).compress_detailed(
                values
            )
        assert result.degradation.degraded_chunks == len(result.chunks)
        restored = IsobarCompressor().decompress(result.payload)
        assert np.array_equal(np.asarray(restored).reshape(-1), values)

    def test_breaker_short_circuits_run(self, values):
        policy = ResiliencePolicy(
            max_attempts=1, breaker_threshold=2, breaker_probe_after=100,
        )
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            compressor = IsobarCompressor(_config(policy))
            result = compressor.compress_detailed(values)
        causes = [e.cause for e in result.degradation.events]
        assert causes[:2] == ["error", "error"]
        assert set(causes[2:]) == {"breaker_open"}
        assert compressor.breakers.for_codec("zlib").state is BreakerState.OPEN

    def test_breaker_state_persists_across_runs(self, values):
        policy = ResiliencePolicy(
            max_attempts=1, breaker_threshold=2, breaker_probe_after=10_000,
        )
        compressor = IsobarCompressor(_config(policy))
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            compressor.compress(values)
        assert compressor.breakers.for_codec("zlib").state is BreakerState.OPEN
        # Next run on the same instance: codec healthy again, but the
        # breaker is still open, so chunks short-circuit to the fallback.
        result = compressor.compress_detailed(values)
        assert result.degradation.degraded_chunks == len(result.chunks)
        assert all(
            e.cause == "breaker_open" for e in result.degradation.events
        )

    def test_retry_recovers_transient_failure(self, values):
        # Call 1 is the selector trial; call 2 is chunk 0's first
        # attempt.  Failing only call 2 makes the retry succeed, so
        # nothing degrades but the retry is accounted.
        with chaos_codec(FlakyCodec("zlib", fail_percent=0.0,
                                    fail_calls=(2,))):
            result = IsobarCompressor(_config()).compress_detailed(values)
        assert result.degradation.clean
        assert result.degradation.retries == 1
        assert not result.degraded

    def test_metrics_count_degradations(self, values):
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            compressor = IsobarCompressor(_config(), collect_metrics=True)
            result = compressor.compress_detailed(values)
        counter = compressor.metrics.get("isobar_chunks_degraded_total")
        total = sum(
            counter.value(cause=c)
            for c in ("error", "timeout", "breaker_open")
        )
        assert total == result.degradation.degraded_chunks
        retries = compressor.metrics.get("isobar_chunk_retries_total")
        assert retries.value() == result.degradation.retries

    def test_breaker_gauge_exported(self, values):
        policy = ResiliencePolicy(
            max_attempts=1, breaker_threshold=1, breaker_probe_after=10_000,
        )
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            compressor = IsobarCompressor(
                _config(policy), collect_metrics=True
            )
            compressor.compress(values)
        gauge = compressor.metrics.get("isobar_breaker_state")
        assert gauge.value(codec="zlib") == BreakerState.OPEN.gauge_value

    def test_healthy_path_bytes_unchanged(self, values):
        # The resilience wiring must not perturb healthy output: default
        # policy and legacy fail-fast produce identical containers.
        with_policy = IsobarCompressor(_config()).compress(values)
        without = IsobarCompressor(_config(None)).compress(values)
        assert with_policy == without


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


class TestFullJitterBackoff:
    def test_without_rng_returns_the_envelope(self):
        from repro.core.resilience import full_jitter_backoff

        assert full_jitter_backoff(0.1, 1) == pytest.approx(0.1)
        assert full_jitter_backoff(0.1, 2) == pytest.approx(0.2)
        assert full_jitter_backoff(0.1, 3) == pytest.approx(0.4)

    def test_cap_bounds_the_envelope(self):
        from repro.core.resilience import full_jitter_backoff

        assert full_jitter_backoff(0.1, 10, cap_seconds=0.5) == 0.5

    def test_degenerate_inputs_are_zero(self):
        from repro.core.resilience import full_jitter_backoff

        assert full_jitter_backoff(0.0, 3) == 0.0
        assert full_jitter_backoff(0.1, 0) == 0.0

    def test_rng_draws_from_the_full_interval(self):
        import random

        from repro.core.resilience import full_jitter_backoff

        rng = random.Random(0)
        draws = [
            full_jitter_backoff(0.1, 3, rng=rng) for _ in range(200)
        ]
        assert all(0.0 <= d <= 0.4 for d in draws)
        assert min(draws) < 0.1 and max(draws) > 0.3  # actually spread


class TestPolicyBackoff:
    def test_no_backoff_configured_means_zero_delay(self):
        policy = ResiliencePolicy()  # retry_backoff_seconds = 0
        assert policy.backoff_delay(1) == 0.0
        assert policy.pause_before_retry(1) == 0.0

    def test_unjittered_delay_is_the_exponential_envelope(self):
        policy = ResiliencePolicy(retry_backoff_seconds=0.2)
        assert policy.backoff_delay(1) == pytest.approx(0.2)
        assert policy.backoff_delay(2) == pytest.approx(0.4)
        assert policy.backoff_delay(5) == pytest.approx(2.0)  # capped

    def test_jitter_is_deterministic_per_seed_and_token(self):
        policy = ResiliencePolicy(
            retry_backoff_seconds=0.2, retry_jitter=True,
            retry_jitter_seed=11,
        )
        again = ResiliencePolicy(
            retry_backoff_seconds=0.2, retry_jitter=True,
            retry_jitter_seed=11,
        )
        assert policy.backoff_delay(2, token=5) == again.backoff_delay(
            2, token=5
        )
        assert policy.backoff_delay(2, token=5) != policy.backoff_delay(
            2, token=6
        )
        assert 0.0 <= policy.backoff_delay(2, token=5) <= 0.4

    def test_seeds_decorrelate_the_stream(self):
        a = ResiliencePolicy(
            retry_backoff_seconds=0.2, retry_jitter=True, retry_jitter_seed=1
        )
        b = ResiliencePolicy(
            retry_backoff_seconds=0.2, retry_jitter=True, retry_jitter_seed=2
        )
        draws_a = [a.backoff_delay(n) for n in range(1, 6)]
        draws_b = [b.backoff_delay(n) for n in range(1, 6)]
        assert draws_a != draws_b

    def test_pause_before_retry_uses_the_injected_sleep(self):
        slept = []
        policy = ResiliencePolicy(
            retry_backoff_seconds=0.2, sleep=slept.append
        )
        delay = policy.pause_before_retry(2, token=3)
        assert slept == [delay]
        assert delay == pytest.approx(0.4)

    def test_invalid_backoff_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(retry_backoff_max_seconds=0.0)

    def test_jittered_retries_flow_through_the_pipeline(self):
        """A flaky chunk's retries wait the policy's jittered delays."""
        slept = []
        config = IsobarConfig(
            codec="zlib",
            linearization=Linearization.ROW,
            chunk_elements=_CHUNK,
            resilience=ResiliencePolicy(
                max_attempts=3,
                retry_backoff_seconds=0.05,
                retry_jitter=True,
                retry_jitter_seed=4,
                breaker_threshold=100,  # keep the breaker out of the way
                sleep=slept.append,
            ),
        )
        rng = np.random.default_rng(0)
        values = build_structured(2 * _CHUNK, np.dtype(np.float64), 3, rng)
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            result = IsobarCompressor(config).compress_detailed(values)
        assert result.degraded
        # Two chunks x two retries each, every delay inside the
        # jitter envelope for its retry number.
        assert len(slept) == 4
        for delay in slept:
            assert 0.0 <= delay <= 0.1


class TestBreakerSnapshots:
    def test_breaker_snapshot_round_trips_state(self):
        breaker = CodecCircuitBreaker("zlib", threshold=2, probe_after=4)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap.codec_name == "zlib"
        assert snap.state is BreakerState.CLOSED
        assert snap.consecutive_failures == 1
        doc = snap.to_dict()
        assert doc["codec"] == "zlib"
        assert doc["state"] == "closed"

    def test_breaker_reset_closes_and_clears(self):
        breaker = CodecCircuitBreaker("zlib", threshold=2, probe_after=4)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        breaker.reset()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.snapshot().consecutive_failures == 0
        assert breaker.allow()

    def test_board_snapshot_and_reset(self):
        from repro.core.resilience import BreakerBoard

        policy = ResiliencePolicy(breaker_threshold=2)
        board = BreakerBoard(policy)
        zlib_breaker = board.for_codec("zlib")
        board.for_codec("bzip2")
        zlib_breaker.record_failure()
        zlib_breaker.record_failure()
        snaps = board.snapshot()
        assert set(snaps) == {"zlib", "bzip2"}
        assert snaps["zlib"].state is BreakerState.OPEN
        assert snaps["bzip2"].state is BreakerState.CLOSED
        board.reset()
        assert board.for_codec("zlib") is zlib_breaker  # identity kept
        assert board.snapshot()["zlib"].state is BreakerState.CLOSED

    def test_reset_notifies_state_change_listener(self):
        transitions = []
        from repro.core.resilience import BreakerBoard

        board = BreakerBoard(
            ResiliencePolicy(breaker_threshold=1),
            on_state_change=lambda name, state: transitions.append(
                (name, state)
            ),
        )
        board.for_codec("zlib").record_failure()
        board.reset()
        assert transitions[-1] == ("zlib", BreakerState.CLOSED)
