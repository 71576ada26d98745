"""Experiment harness: timed evaluations behind every table and figure.

One :func:`evaluate_dataset` call produces everything Tables II and
IV–IX need for one dataset: standalone zlib/bzip2 ratios and
throughputs, both ISOBAR preferences (ratio, speed) with their chosen
codec/linearization, decompression throughputs, and the analyzer's
verdict and throughput.  The table generators in
:mod:`repro.bench.tables` aggregate these evaluations into the paper's
layouts.

Throughput semantics follow the paper: MB/s over the *uncompressed*
size for both directions; ISOBAR's compression time includes analysis
and partitioning (the preconditioner is on the critical path).
Decompression, standalone and ISOBAR alike, is timed as the best of
three runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from repro.analysis.metrics import MEGABYTE, delta_cr_percent, speedup
from repro.codecs.base import get_codec
from repro.core.analyzer import AnalysisResult, analyze
from repro.core.exceptions import CodecError
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Preference
from repro.datasets.registry import DEFAULT_ELEMENTS, get_dataset

__all__ = [
    "StandardResult",
    "IsobarResult",
    "DatasetEvaluation",
    "evaluate_array",
    "evaluate_dataset",
]


@dataclass(frozen=True)
class StandardResult:
    """Standalone solver performance on raw bytes (no preconditioner)."""

    codec_name: str
    ratio: float
    compress_mb_s: float
    decompress_mb_s: float


@dataclass(frozen=True)
class IsobarResult:
    """ISOBAR workflow performance under one preference.

    ``stage_seconds`` carries the observability layer's per-stage
    wall-clock breakdown of the compression leg (``select``,
    ``analyze``, ``partition``, ``solve``, ``merge`` — see
    ``docs/observability.md``), so table generators and ad-hoc scripts
    can attribute time without re-running the pipeline.
    """

    preference: Preference
    codec_name: str
    linearization: str
    ratio: float
    compress_mb_s: float
    decompress_mb_s: float
    analyze_mb_s: float
    improvable: bool
    stage_seconds: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class DatasetEvaluation:
    """Complete measurement record for one dataset."""

    name: str
    n_elements: int
    n_bytes: int
    analysis: AnalysisResult
    standard: dict[str, StandardResult]
    isobar_ratio: IsobarResult
    isobar_speed: IsobarResult

    @property
    def improvable(self) -> bool:
        """The analyzer's improvable verdict for this dataset."""
        return self.analysis.improvable

    def best_standard_ratio(self) -> StandardResult:
        """Standalone solver with the best compression ratio."""
        return max(self.standard.values(), key=lambda res: res.ratio)

    def fastest_standard(self) -> StandardResult:
        """Standalone solver with the highest compression throughput."""
        return max(self.standard.values(), key=lambda res: res.compress_mb_s)

    def fastest_standard_decompress(self) -> StandardResult:
        """Standalone solver with the highest decompression throughput."""
        return max(self.standard.values(), key=lambda res: res.decompress_mb_s)

    def delta_cr_vs_best(self, result: IsobarResult) -> float:
        """dCR (Eq. 3) of an ISOBAR result vs the best standalone ratio."""
        return delta_cr_percent(result.ratio, self.best_standard_ratio().ratio)

    def delta_cr_vs_fastest(self, result: IsobarResult) -> float:
        """dCR vs the standalone solver with the best throughput."""
        return delta_cr_percent(result.ratio, self.fastest_standard().ratio)

    def speedup_vs_best_ratio(self, result: IsobarResult) -> float:
        """Compression speed-up (Eq. 2) vs the best-ratio solver."""
        return speedup(
            result.compress_mb_s, self.best_standard_ratio().compress_mb_s
        )

    def speedup_vs_fastest(self, result: IsobarResult) -> float:
        """Compression speed-up vs the fastest standalone solver."""
        return speedup(result.compress_mb_s, self.fastest_standard().compress_mb_s)

    def decompress_speedup(self, result: IsobarResult) -> float:
        """Decompression speed-up vs the faster standalone solver."""
        return speedup(
            result.decompress_mb_s,
            self.fastest_standard_decompress().decompress_mb_s,
        )


#: Decompressions are timed as the best of this many runs: one run of
#: a small input is short enough for a scheduler hiccup to halve it.
_DECOMPRESS_REPEATS = 3

T = TypeVar("T")


def _best_decompress(decompress: Callable[[], T]) -> tuple[T, float]:
    """``decompress()``'s result and its fastest of a few timed runs."""
    best = float("inf")
    for _ in range(_DECOMPRESS_REPEATS):
        start = time.perf_counter()
        result = decompress()
        best = min(best, time.perf_counter() - start)
    return result, best


def _time_standard(codec_name: str, raw: bytes) -> StandardResult:
    codec = get_codec(codec_name)
    start = time.perf_counter()
    compressed = codec.compress(raw)
    compress_seconds = time.perf_counter() - start
    restored, decompress_seconds = _best_decompress(
        lambda: codec.decompress(compressed)
    )
    if restored != raw:
        raise CodecError(f"{codec_name} failed to round-trip raw data")
    n_mb = len(raw) / MEGABYTE
    return StandardResult(
        codec_name=codec_name,
        ratio=len(raw) / len(compressed),
        compress_mb_s=n_mb / compress_seconds if compress_seconds else float("inf"),
        decompress_mb_s=n_mb / decompress_seconds if decompress_seconds else float("inf"),
    )


def _time_isobar(
    values: np.ndarray, preference: Preference, config: IsobarConfig
) -> IsobarResult:
    compressor = IsobarCompressor(
        config.replace(preference=preference), collect_metrics=True
    )
    result = compressor.compress_detailed(values)
    compress_report = compressor.last_report
    # Compression time = analysis + partition/solve; the one-off
    # selector sampling is amortised across a run and reported
    # separately by the selector itself.
    compress_seconds = result.analyze_seconds + result.compress_seconds
    restored, decompress_seconds = _best_decompress(
        lambda: compressor.decompress(result.payload)
    )
    if not np.array_equal(restored.reshape(-1), np.asarray(values).reshape(-1)):
        raise CodecError("ISOBAR failed to round-trip the dataset")
    n_mb = result.original_bytes / MEGABYTE
    analyze_mb_s = (
        n_mb / result.analyze_seconds if result.analyze_seconds else float("inf")
    )
    return IsobarResult(
        preference=preference,
        codec_name=result.decision.codec_name,
        linearization=result.decision.linearization.value,
        ratio=result.ratio,
        compress_mb_s=n_mb / compress_seconds if compress_seconds else float("inf"),
        decompress_mb_s=(
            n_mb / decompress_seconds if decompress_seconds else float("inf")
        ),
        analyze_mb_s=analyze_mb_s,
        improvable=result.improvable,
        stage_seconds=dict(compress_report.stage_seconds),
    )


def evaluate_array(
    name: str,
    values: np.ndarray,
    config: IsobarConfig | None = None,
    codec_names: tuple[str, ...] = ("zlib", "bzip2"),
) -> DatasetEvaluation:
    """Measure standalone solvers and both ISOBAR preferences on ``values``."""
    arr = np.ascontiguousarray(np.asarray(values).reshape(-1))
    raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    cfg = config or IsobarConfig(candidate_codecs=codec_names)
    standard = {name_: _time_standard(name_, raw) for name_ in codec_names}
    return DatasetEvaluation(
        name=name,
        n_elements=int(arr.size),
        n_bytes=len(raw),
        analysis=analyze(arr, tau=cfg.tau),
        standard=standard,
        isobar_ratio=_time_isobar(arr, Preference.RATIO, cfg),
        isobar_speed=_time_isobar(arr, Preference.SPEED, cfg),
    )


def evaluate_dataset(
    name: str,
    n_elements: int = DEFAULT_ELEMENTS,
    config: IsobarConfig | None = None,
    codec_names: tuple[str, ...] = ("zlib", "bzip2"),
    seed: int | None = None,
) -> DatasetEvaluation:
    """Generate a registry dataset and run :func:`evaluate_array` on it."""
    values = get_dataset(name).generate(n_elements=n_elements, seed=seed)
    return evaluate_array(name, values, config=config, codec_names=codec_names)
