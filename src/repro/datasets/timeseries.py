"""Stream generators with temporal structure (drift and regime switches).

Inputs whose byte fingerprint *changes over the stream*; these
generators formalise two shapes:

* :func:`regime_switching_stream` — hard transitions between segments
  with different noise-byte counts (a variable moving between physical
  regimes, or a file concatenating unrelated variables);
* :func:`drifting_noise_stream` — the noise-byte count ramps gradually
  along the stream (precision requirements tightening over a
  simulation), producing a sequence of fingerprints rather than one
  jump.

Both return the concatenated stream plus the ground-truth segmentation,
so tests can check an analysis against the true boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import InvalidInputError
from repro.datasets.synthetic import build_structured

__all__ = ["StreamSegment", "regime_switching_stream", "drifting_noise_stream"]


@dataclass(frozen=True)
class StreamSegment:
    """Ground truth for one homogeneous run of a generated stream."""

    start: int
    stop: int
    noise_bytes: int

    @property
    def n_elements(self) -> int:
        """Elements covered by this segment."""
        return self.stop - self.start


def regime_switching_stream(
    segment_elements: int,
    noise_byte_plan: tuple[int, ...],
    rng: np.random.Generator,
    dtype=np.float64,
) -> tuple[np.ndarray, list[StreamSegment]]:
    """Concatenate equal-length segments with prescribed noise bytes.

    ``noise_byte_plan`` gives each segment's incompressible byte count;
    returns the stream and the ground-truth segments.
    """
    if segment_elements < 1:
        raise InvalidInputError(
            f"segment_elements must be positive, got {segment_elements}"
        )
    if not noise_byte_plan:
        raise InvalidInputError("noise_byte_plan may not be empty")
    pieces = []
    segments = []
    cursor = 0
    for noise in noise_byte_plan:
        piece = build_structured(segment_elements, dtype, noise, rng)
        pieces.append(piece)
        segments.append(StreamSegment(
            start=cursor, stop=cursor + segment_elements, noise_bytes=noise,
        ))
        cursor += segment_elements
    return np.concatenate(pieces), segments


def drifting_noise_stream(
    segment_elements: int,
    n_segments: int,
    rng: np.random.Generator,
    start_noise: int = 2,
    end_noise: int = 6,
    dtype=np.float64,
) -> tuple[np.ndarray, list[StreamSegment]]:
    """A stream whose noise-byte count ramps linearly across segments."""
    if n_segments < 1:
        raise InvalidInputError(f"n_segments must be positive, got {n_segments}")
    width = np.dtype(dtype).itemsize
    if not (0 <= start_noise <= width and 0 <= end_noise <= width):
        raise InvalidInputError(
            f"noise counts must be within [0, {width}] for {np.dtype(dtype)}"
        )
    plan = tuple(
        int(round(start_noise + (end_noise - start_noise) * i
                  / max(n_segments - 1, 1)))
        for i in range(n_segments)
    )
    return regime_switching_stream(segment_elements, plan, rng, dtype=dtype)
