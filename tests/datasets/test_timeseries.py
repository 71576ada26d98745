"""Unit tests for the temporal stream generators."""

import numpy as np
import pytest

from repro.core.analyzer import analyze
from repro.core.exceptions import InvalidInputError
from repro.datasets.timeseries import (
    drifting_noise_stream,
    regime_switching_stream,
)


class TestRegimeSwitching:
    def test_segmentation_ground_truth(self, rng):
        stream, segments = regime_switching_stream(30_000, (6, 2, 4), rng)
        assert stream.size == 90_000
        assert [s.noise_bytes for s in segments] == [6, 2, 4]
        assert segments[0].start == 0
        assert segments[-1].stop == 90_000
        for prev, cur in zip(segments, segments[1:]):
            assert prev.stop == cur.start

    def test_segments_carry_their_fingerprint(self, rng):
        stream, segments = regime_switching_stream(30_000, (6, 2), rng)
        for segment in segments:
            piece = stream[segment.start:segment.stop]
            result = analyze(piece)
            assert result.n_incompressible == segment.noise_bytes

    def test_float32_streams(self, rng):
        stream, segments = regime_switching_stream(
            20_000, (2, 1), rng, dtype=np.float32
        )
        assert stream.dtype == np.float32
        assert analyze(stream[:20_000]).n_incompressible == 2

    def test_validation(self, rng):
        with pytest.raises(InvalidInputError):
            regime_switching_stream(0, (1,), rng)
        with pytest.raises(InvalidInputError):
            regime_switching_stream(100, (), rng)


class TestDrifting:
    def test_linear_ramp(self, rng):
        _, segments = drifting_noise_stream(5_000, 5, rng,
                                            start_noise=2, end_noise=6)
        assert [s.noise_bytes for s in segments] == [2, 3, 4, 5, 6]

    def test_single_segment(self, rng):
        _, segments = drifting_noise_stream(5_000, 1, rng)
        assert len(segments) == 1
        assert segments[0].noise_bytes == 2  # the start value

    def test_descending_ramp(self, rng):
        _, segments = drifting_noise_stream(5_000, 3, rng,
                                            start_noise=6, end_noise=0)
        assert [s.noise_bytes for s in segments] == [6, 3, 0]

    def test_validation(self, rng):
        with pytest.raises(InvalidInputError):
            drifting_noise_stream(100, 0, rng)
        with pytest.raises(InvalidInputError):
            drifting_noise_stream(100, 2, rng, end_noise=9)
