"""Frozen size estimator for the staged EUPA probe.

The EUPA selector runs an exact trial per (codec, linearization)
candidate.  Under the RATIO preference most of those trials only
confirm that a candidate loses by far more than the regret budget;
this module predicts each candidate's trial size cheaply so that the
selector can skip such trials (see ``docs/selector.md``).

The estimate is a linear model in the log domain.  Its inputs are the
adaptive (Krichevsky–Trofimov style) code lengths of orders 0, 1 and 2
of the candidate's solver input, measured on the first
:data:`STATS_PREFIX_ELEMENTS` elements of the sample, and the sample
size.  It predicts the solver's output bytes per input byte.  The
selector scales one candidate's estimate by another candidate's exact
trial, so only the estimated *ratio* of two outputs matters; its error
is bounded per kind of pair (:data:`ERROR_BOUNDS`).  The raw noise
bytes are known exactly and take no part in the estimate.

The coefficients and :data:`ERROR_BOUNDS` are committed constants.
``benchmarks/fit_probe_estimator.py`` fits the coefficients on
development seeds of :mod:`repro.datasets` and measures the bounds on
separate hold-out seeds; rerunning it reproduces both.
"""

from __future__ import annotations

import numpy as np

from repro.core.analyzer import AnalysisResult
from repro.core.partitioner import partition
from repro.core.preferences import Linearization

__all__ = [
    "COEFFICIENTS",
    "ERROR_BOUNDS",
    "MIN_SAMPLE_ELEMENTS",
    "STATS_PREFIX_ELEMENTS",
    "candidate_features",
    "code_lengths",
    "error_bound",
    "estimate_outputs",
    "feature_vector",
    "pair_class",
]

#: Elements of the sample the code-length statistics are measured on.
STATS_PREFIX_ELEMENTS = 8_192

#: The smallest sample the fitting script scored; smaller samples are
#: probed exhaustively.
MIN_SAMPLE_ELEMENTS = 12_000

#: Error bounds of the scaled output estimate, by what two candidates
#: differ in: the largest hold-out over-estimate of a candidate's
#: solver output, scaled by another candidate's exact trial, among
#: the pairs in which the first candidate beat the second by more than
#: the regret budget (written by ``benchmarks/fit_probe_estimator.py``).
ERROR_BOUNDS: dict[str, float] = {
    "linearization": 0.422,
    "codec": 0.293,
    "codec+linearization": 0.467,
}

#: Per-candidate weights over :func:`feature_vector` (written by
#: ``benchmarks/fit_probe_estimator.py``).
COEFFICIENTS: dict[tuple[str, Linearization], tuple[float, ...]] = {
    ("zlib", Linearization.ROW): (
        -3.360173, -1.177947, 3.856788, -2.480203, 3.982049, -2.655006,
        3.513107,
    ),
    ("zlib", Linearization.COLUMN): (
        0.559844, -0.553306, 0.678194, 0.829986, -0.646898, -0.914923,
        0.907499,
    ),
    ("bzip2", Linearization.ROW): (
        -3.351517, -1.358489, 4.480712, -3.80043, 3.931325, -2.774101,
        4.728979,
    ),
    ("bzip2", Linearization.COLUMN): (
        -0.106104, -0.608452, 1.647308, -1.112489, 0.1366, -1.751361,
        3.01358,
    ),
}

#: Dirichlet pseudo-count per byte symbol of the adaptive code.
_ALPHA = 1.0 / 16.0


def _log_rising(length: int, alpha: float) -> np.ndarray:
    """``t[m] = log2(alpha (alpha+1) ... (alpha+m-1))`` for m <= length."""
    return np.concatenate(
        ([0.0], np.cumsum(np.log2(np.arange(length) + alpha)))
    )


# The tables cover every prefix stream of up to 8-byte elements.  They
# are built at import: a long-lived table allocated later, between
# large transient chunk buffers, can pin the heap (+10 MiB peak RSS
# when a stream writer runs repeatedly).
_TABLE_LENGTH = STATS_PREFIX_ELEMENTS * 8
_SYMBOL_TABLE = _log_rising(_TABLE_LENGTH, _ALPHA)
_CONTEXT_TABLE = _log_rising(_TABLE_LENGTH, 256 * _ALPHA)


def _run_lengths(sorted_keys: np.ndarray) -> np.ndarray:
    cuts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.diff(np.concatenate(([0], cuts, [sorted_keys.size])))


def code_lengths(payload: bytes) -> tuple[float, float, float]:
    """Adaptive order-0, -1 and -2 code lengths in bytes per input byte.

    One sort of the ``(symbol, previous, second previous)`` cells gives
    every order's cell counts; context counts come from two bincounts.
    """
    a = np.frombuffer(payload, dtype=np.uint8).astype(np.int32)
    n = a.size
    if n == 0:
        return (0.0, 0.0, 0.0)
    prev1 = np.zeros_like(a)
    prev1[1:] = a[:-1]
    prev2 = np.zeros_like(a)
    prev2[2:] = a[:-2]
    ctx2 = (prev1 << 8) | prev2
    cells = np.sort((a << 16) | ctx2)
    if n <= _TABLE_LENGTH:
        per_symbol, per_context = _SYMBOL_TABLE, _CONTEXT_TABLE
    else:
        per_symbol = _log_rising(n, _ALPHA)
        per_context = _log_rising(n, 256 * _ALPHA)
    lengths = []
    for shift, contexts in (
        (16, np.array([n])),
        (8, np.bincount(prev1, minlength=256)),
        (0, np.bincount(ctx2, minlength=1 << 16)),
    ):
        counts = _run_lengths(cells >> shift)
        used = contexts[contexts > 0]
        bits = per_context[used].sum() - per_symbol[counts].sum()
        lengths.append(float(bits) / 8.0 / n)
    return lengths[0], lengths[1], lengths[2]


def feature_vector(
    lengths: tuple[float, float, float], sample_elements: int
) -> tuple[float, ...]:
    """The model input for one solver input (see :data:`COEFFICIENTS`)."""
    l0, l1, l2 = (float(np.log(max(x, 1e-4))) for x in lengths)
    size = float(np.log2(sample_elements)) / 16.0
    return (1.0, l0, l1, l2, size, l1 * size, l2 * size)


def candidate_features(
    sample: np.ndarray,
    analysis: AnalysisResult,
    linearizations: tuple[Linearization, ...],
) -> dict[Linearization, tuple[float, ...]]:
    """:func:`feature_vector` of each linearization's solver input."""
    prefix = sample[:STATS_PREFIX_ELEMENTS]
    if not analysis.improvable:
        # An undetermined sample is solved whole by every linearization.
        whole = feature_vector(
            code_lengths(np.ascontiguousarray(prefix).tobytes()), sample.size
        )
        return {lin: whole for lin in linearizations}
    return {
        lin: feature_vector(
            code_lengths(partition(prefix, analysis.mask, lin).compressible),
            sample.size,
        )
        for lin in linearizations
    }


def pair_class(
    a: tuple[str, Linearization], b: tuple[str, Linearization]
) -> str:
    """The :data:`ERROR_BOUNDS` key of two distinct candidates."""
    if a[0] == b[0]:
        return "linearization"
    return "codec" if a[1] == b[1] else "codec+linearization"


def error_bound(
    a: tuple[str, Linearization], b: tuple[str, Linearization]
) -> float:
    """The error bound of ``a``'s estimate scaled by ``b``'s exact trial."""
    return ERROR_BOUNDS[pair_class(a, b)]


def estimate_outputs(
    sample: np.ndarray,
    analysis: AnalysisResult,
    space: list[tuple[str, Linearization]],
) -> dict[tuple[str, Linearization], float] | None:
    """Estimated solver output bytes per candidate (raw noise excluded).

    ``None`` when the estimator does not apply: the sample is smaller
    than :data:`MIN_SAMPLE_ELEMENTS` or a candidate has no
    coefficients.
    """
    if sample.size < MIN_SAMPLE_ELEMENTS or any(
        c not in COEFFICIENTS for c in space
    ):
        return None
    payload_bytes = sample.size * (
        int(np.count_nonzero(analysis.mask))
        if analysis.improvable
        else sample.dtype.itemsize
    )
    vectors = candidate_features(
        sample, analysis, tuple(dict.fromkeys(lin for _, lin in space))
    )
    return {
        (codec, lin): payload_bytes * float(
            np.exp(np.dot(COEFFICIENTS[codec, lin], vectors[lin]))
        )
        for codec, lin in space
    }
