"""Unit tests for the compressed-size estimator."""

import numpy as np
import pytest

from repro.analysis.bytefreq import byte_matrix
from repro.analysis.estimator import (
    column_entropy_bits,
    entropy_bound_bytes,
    estimate_partition_size,
    predict_partition_gain,
)
from repro.core.exceptions import InvalidInputError


class TestColumnEntropyBits:
    def test_constant_column_zero(self):
        matrix = np.full((1000, 1), 7, dtype=np.uint8)
        assert column_entropy_bits(matrix)[0] == pytest.approx(0.0)

    def test_uniform_column_eight_bits(self):
        matrix = np.tile(np.arange(256, dtype=np.uint8), 40)[:, np.newaxis]
        assert column_entropy_bits(matrix)[0] == pytest.approx(8.0)

    def test_matches_analysis_diagnostics(self, improvable_doubles):
        from repro.core.analyzer import analyze

        matrix = byte_matrix(improvable_doubles)
        ours = column_entropy_bits(matrix)
        analyzer = analyze(improvable_doubles).column_entropy_bits
        assert np.allclose(ours, analyzer)


class TestEntropyBound:
    def test_all_columns_full_cost_for_noise(self, incompressible_doubles):
        matrix = byte_matrix(incompressible_doubles)
        mask = np.ones(8, dtype=bool)
        bound = entropy_bound_bytes(matrix, mask)
        # Noise bytes are ~8 bits each: the bound approaches raw size.
        assert bound > incompressible_doubles.nbytes * 0.95

    def test_empty_mask_zero(self, improvable_doubles):
        matrix = byte_matrix(improvable_doubles)
        assert entropy_bound_bytes(matrix, np.zeros(8, bool)) == 0.0

    def test_mask_length_validated(self, improvable_doubles):
        matrix = byte_matrix(improvable_doubles)
        with pytest.raises(InvalidInputError):
            entropy_bound_bytes(matrix, np.ones(4, bool))


class TestEstimates:
    def test_structure_of_estimate(self, improvable_doubles):
        estimate = estimate_partition_size(improvable_doubles)
        assert estimate.n_elements == improvable_doubles.size
        assert estimate.element_width == 8
        assert estimate.raw_noise_bytes == improvable_doubles.size * 6
        assert estimate.original_bytes == improvable_doubles.nbytes
        assert 1.0 < estimate.predicted_ratio < 8.0

    def test_prediction_tracks_actual_zlib_ratio(self, improvable_doubles):
        """The order-0 prediction should be within ~25% of what zlib
        actually achieves on the partitioned stream."""
        from repro.core import IsobarCompressor, IsobarConfig

        estimate = estimate_partition_size(improvable_doubles)
        actual = IsobarCompressor(
            IsobarConfig(codec="zlib", sample_elements=2048)
        ).compress_detailed(improvable_doubles)
        assert actual.ratio == pytest.approx(estimate.predicted_ratio,
                                             rel=0.25)

    def test_explicit_mask(self, improvable_doubles):
        all_compress = estimate_partition_size(
            improvable_doubles, np.ones(8, bool)
        )
        assert all_compress.raw_noise_bytes == 0

    def test_gain_near_one_for_clean_split(self, improvable_doubles):
        """Partitioning noise out is statistically free at the order-0
        bound (noise entropy ~ 8 bits = its raw cost)."""
        gain, analysis = predict_partition_gain(improvable_doubles)
        assert analysis.improvable
        assert gain == pytest.approx(1.0, abs=0.02)

    def test_gain_below_one_when_discarding_signal(self, rng):
        """Masking out a *compressible* column must predict a loss."""
        from repro.analysis.estimator import estimate_partition_size
        from repro.datasets.synthetic import build_structured

        values = build_structured(20_000, np.float64, 0, rng)
        keep_all = estimate_partition_size(values, np.ones(8, bool))
        drop_signal = estimate_partition_size(
            values, np.arange(8) >= 4
        )
        assert drop_signal.predicted_ratio < keep_all.predicted_ratio
