"""The selector's winning trial standing in for chunk 0's solve.

When the EUPA sample is the whole input, the winning trial already
compressed chunk 0's exact solver input; the encoder reuses that
output instead of running the codec again.  These tests pin that the
reuse never changes a container byte, never bypasses a resilience
check, and never leaks the trial into stored or printed decisions.
"""

import io
import pickle

import numpy as np
import pytest

import repro
from repro.bench.harness import evaluate_array
from repro.core.metadata import ContainerHeader
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Linearization
from repro.core.resilience import ResiliencePolicy
from repro.core.selector import EupaSelector
from repro.core.stream import StreamingWriter
from repro.datasets.registry import dataset_names, generate_dataset
from repro.datasets.synthetic import (
    build_particle_ids,
    build_repetitive,
    build_structured,
)
from repro.testing.chaos import (
    CorruptingCodec,
    FlakyCodec,
    HangingCodec,
    chaos_codec,
)

_SAMPLE = IsobarConfig().sample_elements
_CHUNK = 16_384
#: Multi-chunk inputs run with small chunks so the sample still covers
#: the whole input while chunk 0 is only a prefix of it.
_MULTI = 40_000

_FINGERPRINTS = {
    "field_f64": lambda n, rng: build_structured(n, np.float64, 3, rng),
    "particles_i64": lambda n, rng: build_particle_ids(n, rng),
    "repetitive_f64": lambda n, rng: build_repetitive(n, np.float64, rng),
}


def _input(name: str, n: int) -> np.ndarray:
    if name in _FINGERPRINTS:
        return _FINGERPRINTS[name](n, np.random.default_rng(7321))
    return generate_dataset(name, n_elements=n, seed=7321)


def _stream(values: np.ndarray, config: IsobarConfig) -> bytes:
    sink = io.BytesIO()
    writer = StreamingWriter(sink, dtype=values.dtype, config=config)
    for start in range(0, values.size, config.chunk_elements):
        writer.write_chunk(values[start:start + config.chunk_elements])
    writer.close()
    return sink.getvalue()


@pytest.mark.parametrize(
    "n", [1, _SAMPLE - 1, _SAMPLE, _SAMPLE + 1, _MULTI],
)
@pytest.mark.parametrize("name", list(dataset_names()) + list(_FINGERPRINTS))
def test_containers_match_a_decision_that_cannot_reuse(name, n):
    values = _input(name, n)
    config = (
        IsobarConfig(chunk_elements=_CHUNK) if n == _MULTI
        else IsobarConfig()
    )
    runs = {
        "serial": lambda cfg: repro.compress(values, config=cfg),
        "parallel": (
            lambda cfg: ParallelIsobarCompressor(cfg, n_workers=2)
            .compress(values)
        ),
        "stream": lambda cfg: _stream(values, cfg),
    }
    for mode, run in runs.items():
        container = run(config)
        # Pinned to the decision this run made, with a one-element
        # sample that cannot cover the input: the encoder solves every
        # chunk itself.
        header, _ = ContainerHeader.decode(container)
        pinned = config.replace(
            codec=header.codec_name,
            linearization=header.linearization,
            sample_elements=1,
        )
        assert container == run(pinned), mode
        restored = np.asarray(repro.decompress(container)).reshape(-1)
        assert restored.dtype == values.dtype
        assert restored.tobytes() == values.tobytes(), mode


@pytest.fixture
def single_chunk(rng):
    """One chunk the default sample covers whole."""
    return build_structured(20_000, np.float64, 6, rng)


def _pinned(policy=ResiliencePolicy(), **overrides):
    return IsobarConfig(
        codec="zlib", linearization=Linearization.ROW,
        resilience=policy, **overrides,
    )


class TestReusePath:
    def test_winning_trial_replaces_chunk_zero_solve(self, single_chunk):
        counter = FlakyCodec("zlib", fail_percent=0.0)
        with chaos_codec(counter):
            result = IsobarCompressor(_pinned()).compress_detailed(
                single_chunk
            )
        # One pinned-candidate trial, no second compress of chunk 0.
        assert counter.calls == 1
        assert result.decision.trial is None
        assert result.chunks[0].attempts == 1
        assert repro.compress(single_chunk, config=_pinned()) == result.payload

    def test_open_breaker_still_degrades(self, single_chunk):
        policy = ResiliencePolicy(
            max_attempts=1, breaker_threshold=1, breaker_probe_after=10_000,
        )
        compressor = IsobarCompressor(_pinned(policy))
        compressor.breakers.for_codec("zlib").record_failure()
        result = compressor.compress_detailed(single_chunk)
        assert [e.cause for e in result.degradation.events] == [
            "breaker_open"
        ]
        assert result.chunks[0].attempts == 0
        restored = repro.decompress(result.payload)
        assert np.array_equal(restored, single_chunk)

    def test_corrupt_trial_fails_verification(self, single_chunk):
        policy = ResiliencePolicy(
            verify_roundtrip=True, breaker_threshold=100,
        )
        with chaos_codec(CorruptingCodec("zlib", corrupt_percent=100.0)):
            result = IsobarCompressor(_pinned(policy)).compress_detailed(
                single_chunk
            )
        assert result.degradation.degraded_chunks == 1
        assert result.chunks[0].attempts == policy.max_attempts
        restored = repro.decompress(result.payload)
        assert np.array_equal(restored, single_chunk)

    def test_trial_slower_than_deadline_is_not_reused(self, single_chunk):
        policy = ResiliencePolicy(
            max_attempts=1, chunk_deadline_seconds=0.05,
            breaker_threshold=100,
        )
        hanging = HangingCodec("zlib", hang_seconds=0.3, hang_percent=100.0)
        with chaos_codec(hanging):
            result = IsobarCompressor(_pinned(policy)).compress_detailed(
                single_chunk
            )
        # The trial finished (the selector sets no deadline), but too
        # slowly to stand in for the chunk: the encoder called the codec
        # itself and hit the deadline.
        assert result.decision.candidates
        assert hanging.hangs == 2
        assert [e.cause for e in result.degradation.events] == ["timeout"]
        restored = repro.decompress(result.payload)
        assert np.array_equal(restored, single_chunk)

    def test_streaming_writer_reuses_the_first_chunk_trial(
        self, single_chunk
    ):
        counter = FlakyCodec("zlib", fail_percent=0.0)
        with chaos_codec(counter):
            container = _stream(single_chunk, _pinned())
        assert counter.calls == 1
        assert np.array_equal(repro.decompress(container), single_chunk)


class TestSolveAccounting:
    """A reused trial's codec time still counts as chunk 0's solve."""

    def test_compress_times_and_solve_stage_include_the_trial(
        self, single_chunk
    ):
        hanging = HangingCodec("zlib", hang_seconds=0.1, hang_percent=100.0)
        with chaos_codec(hanging):
            compressor = IsobarCompressor(_pinned(), collect_metrics=True)
            result = compressor.compress_detailed(single_chunk)
        # Only the trial hung: its output stood in for chunk 0's solve.
        assert hanging.hangs == 1
        assert result.chunks[0].compress_seconds >= 0.1
        assert result.compress_seconds >= 0.1
        assert compressor.last_report.stage_seconds["solve"] >= 0.1

    def test_harness_speedup_matches_a_run_that_cannot_reuse(self, rng):
        # Section II-F's shape: one 50,000-element step the default
        # sample covers.  A slow codec dominates every compress, so a
        # harness that dropped the reused solve would report a
        # many-fold ISOBAR speed-up.
        values = build_structured(50_000, np.float64, 6, rng)
        config = IsobarConfig(candidate_codecs=("zlib",))
        hanging = HangingCodec("zlib", hang_seconds=0.1, hang_percent=100.0)
        speedups = []
        with chaos_codec(hanging):
            for cfg in (config, config.replace(sample_elements=1)):
                ev = evaluate_array("step", values, cfg, codec_names=("zlib",))
                speedups.append(ev.speedup_vs_best_ratio(ev.isobar_ratio))
        reused, pinned = speedups
        assert reused < 1.5 and pinned < 1.5
        assert abs(reused - pinned) < 0.5


class TestTrialNeverLeaks:
    def test_trial_kept_only_when_sample_is_whole_input(self, single_chunk):
        whole = EupaSelector(_pinned()).select(single_chunk)
        assert whole.trial is not None
        assert whole.trial.solver_input
        part = EupaSelector(_pinned(sample_elements=1_000)).select(
            single_chunk
        )
        assert part.trial is None

    def test_to_dict_equality_repr_and_pickle_ignore_trial(
        self, single_chunk
    ):
        decision = EupaSelector(_pinned()).select(single_chunk)
        bare = decision.without_trial()
        assert decision.trial is not None and bare.trial is None
        assert decision.to_dict() == bare.to_dict()
        assert set(decision.to_dict()) == {
            "codec", "linearization", "preference", "improvable", "origin",
            "sample_elements", "candidates", "predictions",
            "failed_candidates",
        }
        assert decision == bare
        assert repr(decision) == repr(bare)
        assert pickle.loads(pickle.dumps(decision)).trial is None

    def test_plan_returns_no_trial(self, single_chunk):
        assert repro.plan(single_chunk).trial is None


class TestUndeterminedDedupe:
    def test_linearizations_share_one_compression(self, undetermined_doubles):
        counter = FlakyCodec("bzip2", fail_percent=0.0)
        with chaos_codec(counter):
            decision = EupaSelector(IsobarConfig(codec="bzip2")).select(
                undetermined_doubles
            )
        assert not decision.improvable
        assert counter.calls == 1
        row, column = decision.candidates
        assert (row.linearization, column.linearization) == (
            Linearization.ROW, Linearization.COLUMN,
        )
        assert row.compressed_bytes == column.compressed_bytes
        assert row.compress_seconds == column.compress_seconds

    def test_speed_preference_choice_is_deterministic(self, rng):
        values = build_repetitive(8_192, np.float64, rng)
        plans = [
            repro.plan(values, preference="speed", codec="bzip2")
            for _ in range(20)
        ]
        assert not plans[0].improvable
        assert {p.linearization for p in plans} == {Linearization.ROW}
        containers = {
            repro.compress(values, preference="speed", codec="bzip2")
            for _ in range(5)
        }
        assert len(containers) == 1
