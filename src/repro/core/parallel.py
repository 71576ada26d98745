"""Pipelined parallel chunk compression (a natural in-situ extension).

Chunks are compressed independently in the ISOBAR workflow (Section
II-D), so the work maps onto the pipelined block-worker engine
(:mod:`repro.core.pipeline_engine`): a bounded feed queue of chunk
jobs, ``n_workers`` workers running the codec calls, sequence-numbered
ordered reassembly, and a ``max_inflight`` backpressure bound so huge
streams never buffer more than a fixed number of blocks.

That engine is :class:`~repro.core.pipeline.IsobarCompressor` itself
— its ``n_workers`` argument picks inline or runner execution of the
same per-chunk job — and :class:`ParallelIsobarCompressor` is that
class with four workers by default.  Containers are byte-for-byte
identical for every worker count (chunks are reassembled in submission
order regardless of worker completion order).

Worker *threads* scale the hot paths whose C cores release the GIL —
numpy byte-column histograms and the zlib/bz2/lzma/isal solvers.  For
pure-python solvers (``codec.releases_gil`` is false) the engine
routes the codec calls to a shared process pool with shared-memory
payload transfer instead (:mod:`repro.codecs.procpool`), falling back
to in-thread execution for ad-hoc codecs that a fresh process could
not resolve (chaos wrappers, test doubles) — so fault-injection
behaves identically in serial and parallel modes.
"""

from __future__ import annotations

from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.observability.registry import MetricsRegistry

__all__ = ["ParallelIsobarCompressor"]


class ParallelIsobarCompressor(IsobarCompressor):
    """:class:`~repro.core.pipeline.IsobarCompressor` with
    ``n_workers=4`` by default; every parameter means the same."""

    def __init__(
        self,
        config: IsobarConfig | None = None,
        n_workers: int = 4,
        *,
        max_inflight: int | None = None,
        collect_metrics: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        super().__init__(
            config, n_workers, max_inflight=max_inflight,
            collect_metrics=collect_metrics, metrics=metrics,
        )

    # Owned, not inherited: the benchmark's span ledger wraps these two
    # methods on each class with getattr/setattr and restores them the
    # same way.  Inherited, the restore would leave the base class's
    # wrapper in this class's dict; as a plain alias of the base class,
    # every call would be wrapped (and counted) twice.
    compress_detailed = IsobarCompressor.compress_detailed
    decompress = IsobarCompressor.decompress
