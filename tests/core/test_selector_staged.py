"""The staged EUPA probe: exact trials only where the estimate cannot decide.

Under the RATIO preference, ``EupaSelector.select`` skips a candidate
when the frozen size estimator (:mod:`repro.core.probe_estimator`)
rules it out against an exact trial.  These tests pin that the staged
decision stays within the 0.5% regret budget of the exhaustive probe,
accounts for every candidate, is a pure function of the input, keeps
the exhaustive callers exhaustive, contains failing candidates, and
still hands chunk 0 its winning trial.
"""

import io

import numpy as np
import pytest

import repro
from repro.core import probe_estimator
from repro.core.exceptions import SelectorError
from repro.core.metadata import ContainerHeader
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Linearization, Preference
from repro.core.selector import REGRET_BUDGET, EupaSelector
from repro.core.selector_learned import LearnedSelector, OnlineRatioModel
from repro.core.stream import StreamingWriter
from repro.datasets.registry import dataset_names, generate_dataset
from repro.datasets.synthetic import (
    build_particle_ids,
    build_repetitive,
    build_structured,
)
from repro.testing.chaos import FlakyCodec, chaos_codec

_FINGERPRINTS = {
    "field_f64": lambda n, rng: build_structured(n, np.float64, 3, rng),
    "particles_i64": lambda n, rng: build_particle_ids(n, rng),
    "repetitive_f64": lambda n, rng: build_repetitive(n, np.float64, rng),
}


def _perfbench_bodies() -> dict[str, np.ndarray]:
    """The nine service bodies: 16k/32k/64k of each fingerprint."""
    rng = np.random.default_rng(7321)
    return {
        f"{name}@{n}": build(n, rng)
        for n in (16_000, 32_000, 64_000)
        for name, build in _FINGERPRINTS.items()
    }


def _body_set():
    for name in dataset_names():
        yield f"{name}@200000", generate_dataset(
            name, n_elements=200_000, seed=0
        )
        for n in (16_384, 32_768, 65_536):
            yield f"{name}@{n}", generate_dataset(name, n_elements=n)
    yield from _perfbench_bodies().items()


def _key(decision):
    """Everything a decision decides, without its timings."""
    return (
        decision.codec_name,
        decision.linearization,
        tuple(
            (c.codec_name, c.linearization, c.compressed_bytes)
            for c in decision.candidates
        ),
        tuple(
            (p.codec_name, p.linearization, p.predicted_ratio)
            for p in decision.predictions
        ),
        tuple(
            (f.codec_name, f.linearization)
            for f in decision.failed_candidates
        ),
    )


@pytest.fixture(scope="module")
def field_body():
    return _perfbench_bodies()["field_f64@32000"]


class TestRegret:
    def test_within_budget_and_every_candidate_accounted(self):
        config = IsobarConfig(selector_seed=0)
        selector = EupaSelector(config)
        space = set(selector._candidate_space())
        regrets = []
        for label, values in _body_set():
            staged = selector.select(values)
            oracle = selector.select_exhaustive(values)
            sizes = {
                (c.codec_name, c.linearization): c.compressed_bytes
                for c in oracle.candidates
            }
            chosen = sizes[staged.codec_name, staged.linearization]
            regret = chosen / min(sizes.values()) - 1.0
            regrets.append(regret)
            assert regret <= REGRET_BUDGET, (label, regret)
            trialled = {
                (c.codec_name, c.linearization) for c in staged.candidates
            }
            ruled_out = {
                (p.codec_name, p.linearization) for p in staged.predictions
            }
            assert trialled | ruled_out == space, label
            assert not trialled & ruled_out, label
            assert staged.origin == "probe"
            assert all(p.confident for p in staged.predictions)
        assert len(regrets) == 24 * 4 + 9

    def test_perfbench_bodies_decide_as_the_oracle(self):
        selector = EupaSelector()
        skipped = 0
        for label, values in _perfbench_bodies().items():
            staged = selector.select(values)
            oracle = selector.select_exhaustive(values)
            assert (staged.codec_name, staged.linearization) == (
                oracle.codec_name, oracle.linearization,
            ), label
            skipped += len(staged.predictions)
        # field_f64 drops its column candidates at every size.
        assert skipped >= 6

    def test_small_samples_probe_exhaustively(self):
        values = build_structured(
            probe_estimator.MIN_SAMPLE_ELEMENTS - 1, np.float64, 3,
            np.random.default_rng(1),
        )
        decision = EupaSelector().select(values)
        assert len(decision.candidates) == 4
        assert decision.predictions == ()

    def test_sampled_inputs_probe_exhaustively(self):
        values = generate_dataset("flash_velx", n_elements=200_000, seed=0)
        decision = EupaSelector(IsobarConfig(sample_elements=20_000)).select(
            values
        )
        assert len(decision.candidates) == 4
        assert decision.predictions == ()


class TestDeterminism:
    def test_repeated_calls_agree(self, field_body):
        selector = EupaSelector()
        first = selector.select(field_body)
        assert first.predictions  # the staged path ran
        for _ in range(3):
            assert _key(EupaSelector().select(field_body)) == _key(first)

    def test_workers_and_stream_agree(self, field_body):
        config = IsobarConfig(chunk_elements=field_body.size)
        containers = {
            workers: IsobarCompressor(config, n_workers=workers).compress(
                field_body
            )
            for workers in (1, 2)
        }
        sink = io.BytesIO()
        writer = StreamingWriter(sink, dtype=field_body.dtype, config=config)
        writer.write_chunk(field_body)
        writer.close()
        assert containers[1] == containers[2] == sink.getvalue()
        header, _ = ContainerHeader.decode(containers[1])
        decision = EupaSelector(config).select(field_body)
        assert (header.codec_name, header.linearization) == (
            decision.codec_name, decision.linearization,
        )


class TestExhaustiveCallers:
    def test_speed_preference_trials_every_candidate(self, field_body):
        decision = EupaSelector(
            IsobarConfig(preference=Preference.SPEED)
        ).select(field_body)
        assert len(decision.candidates) == 4
        assert decision.predictions == ()

    def test_learned_selector_observes_every_candidate(self, field_body):
        model = OnlineRatioModel()
        seen = []
        observe = model.observe
        model.observe = lambda *args, **kwargs: (
            seen.append(args[1:3]), observe(*args, **kwargs)
        )
        decision = LearnedSelector(model=model).select(field_body)
        assert decision.origin == "probe"
        assert len(seen) == 4
        assert len(decision.candidates) == 4


class TestFailureContainment:
    def test_failing_predicted_best_trials_the_next(self, field_body):
        staged = EupaSelector().select(field_body)
        # The predicted best is the only candidate trialled.
        assert [(c.codec_name, c.linearization) for c in staged.candidates] \
            == [("bzip2", Linearization.ROW)]
        with chaos_codec(FlakyCodec("bzip2", fail_percent=100.0)):
            decision = EupaSelector().select(field_body)
        failed = {
            (f.codec_name, f.linearization)
            for f in decision.failed_candidates
        }
        assert ("bzip2", Linearization.ROW) in failed
        assert decision.codec_name == "zlib"
        trialled = {
            (c.codec_name, c.linearization) for c in decision.candidates
        }
        ruled_out = {
            (p.codec_name, p.linearization) for p in decision.predictions
        }
        assert ("zlib", decision.linearization) in trialled
        assert trialled | ruled_out | failed == set(
            EupaSelector()._candidate_space()
        )

    def test_every_run_candidate_failing_raises(self, field_body):
        with chaos_codec(FlakyCodec("bzip2", fail_percent=100.0)), \
                chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            with pytest.raises(SelectorError, match="every candidate"):
                EupaSelector().select(field_body)


class TestIdenticalInputs:
    def test_one_compression_per_codec(self):
        values = _perfbench_bodies()["particles_i64@32000"]
        zlib_calls = FlakyCodec("zlib", fail_percent=0.0)
        bzip2_calls = FlakyCodec("bzip2", fail_percent=0.0)
        with chaos_codec(zlib_calls), chaos_codec(bzip2_calls):
            decision = EupaSelector().select_exhaustive(values)
        assert decision.improvable
        assert (zlib_calls.calls, bzip2_calls.calls) == (1, 1)
        by_codec = {}
        for cand in decision.candidates:
            by_codec.setdefault(cand.codec_name, set()).add(
                cand.compressed_bytes
            )
        assert len(decision.candidates) == 4
        assert all(len(sizes) == 1 for sizes in by_codec.values())

    def test_container_unchanged(self):
        import hashlib

        values = _perfbench_bodies()["particles_i64@32000"]
        digest = hashlib.sha256(repro.compress(values)).hexdigest()
        assert digest == _PARTICLES_DIGEST


class TestChunkZeroReuse:
    def test_winning_trial_becomes_chunk_zero(self, field_body):
        config = IsobarConfig(chunk_elements=field_body.size)
        bzip2_calls = FlakyCodec("bzip2", fail_percent=0.0)
        with chaos_codec(bzip2_calls):
            result = IsobarCompressor(config).compress_detailed(field_body)
        assert result.decision.codec_name == "bzip2"
        assert result.decision.predictions
        # One trial solve, reused as chunk 0: no second bzip2 call.
        assert bzip2_calls.calls == 1
        assert np.asarray(
            repro.decompress(result.payload)
        ).tobytes() == field_body.tobytes()


#: ``repro.compress`` of the 32,000-element ``particles_i64`` body,
#: recorded with the exhaustive probe that compressed ROW and COLUMN
#: separately.
_PARTICLES_DIGEST = (
    "e2c53789586e69823154ba0e97e61af846cf5c4cb507b1e4d4d8d5609cae7144"
)
