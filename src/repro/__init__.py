"""ISOBAR: preconditioner for effective, high-throughput lossless compression.

Reproduction of Schendel, Jin, Shah et al., *"ISOBAR Preconditioner for
Effective and High-throughput Lossless Data Compression"* (ICDE 2012).

Quickstart::

    import numpy as np
    import repro

    data = np.random.default_rng(0).normal(size=100_000)
    blob = repro.compress(data, preference="speed")
    restored = repro.decompress(blob)
    assert np.array_equal(restored, data)

Streaming (constant memory, crash-safe writes)::

    with repro.open_stream("out.isbr", "w", dtype=np.float64) as writer:
        for chunk in chunks:
            writer.write_chunk(chunk)
    restored = np.concatenate(list(repro.open_stream("out.isbr")))

``repro.compress`` / ``repro.decompress`` / ``repro.open_stream`` are
the stable facade (see ``docs/api.md``); the legacy one-liners
``isobar_compress`` / ``isobar_decompress`` remain as deprecated
aliases.

The package splits into:

* :mod:`repro.core` — the paper's contribution: analyzer, partitioner,
  EUPA-selector, chunked workflow and container format;
* :mod:`repro.codecs` — the solver layer (zlib/bzip2/lzma) plus
  from-scratch FPC and fpzip-style baselines;
* :mod:`repro.analysis` — entropy, bit/byte profiling, metrics;
* :mod:`repro.observability` — metrics registry, stage tracing and
  pipeline run reports (see ``docs/observability.md``);
* :mod:`repro.linearization` — Hilbert/Morton/column/random orderings;
* :mod:`repro.datasets` — synthetic stand-ins for the paper's 24
  scientific datasets;
* :mod:`repro.insitu` — a simulation + checkpoint substrate;
* :mod:`repro.bench` — the table/figure regeneration harness.
"""

from repro.api import (
    ERROR_POLICIES,
    compress,
    decompress,
    fsck,
    open_stream,
    plan,
)
from repro.core import (
    AnalysisResult,
    CompressionResult,
    ContainerFile,
    DegradationReport,
    EupaSelector,
    SelectorDecision,
    SelectorStrategy,
    IsobarCompressor,
    IsobarConfig,
    IsobarError,
    Linearization,
    Preference,
    ResiliencePolicy,
    SalvageReport,
    SalvageResult,
    analyze,
    isobar_compress,
    isobar_decompress,
    salvage_decompress,
)
from repro.observability import (
    MetricsRegistry,
    PipelineReport,
    Tracer,
    registry_from_json,
    to_json,
    to_prometheus_text,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisResult",
    "CompressionResult",
    "ContainerFile",
    "DegradationReport",
    "ERROR_POLICIES",
    "EupaSelector",
    "IsobarCompressor",
    "IsobarConfig",
    "IsobarError",
    "Linearization",
    "MetricsRegistry",
    "PipelineReport",
    "Preference",
    "ResiliencePolicy",
    "SalvageReport",
    "SalvageResult",
    "SelectorDecision",
    "SelectorStrategy",
    "Tracer",
    "analyze",
    "compress",
    "decompress",
    "fsck",
    "isobar_compress",
    "isobar_decompress",
    "open_stream",
    "plan",
    "registry_from_json",
    "salvage_decompress",
    "to_json",
    "to_prometheus_text",
    "__version__",
]
