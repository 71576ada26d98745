"""The canonical ISOBAR metric bundle shared by every instrumented path.

Metric names are API: exporters ship them to dashboards, and the docs
(``docs/observability.md``) commit to them.  This module is therefore
the single place that declares them — the pipeline, parallel, streaming
and salvage code all bind a :class:`PipelineInstruments` against their
registry instead of inventing names at the call site.

Binding is get-or-create, so any number of compressors may share one
registry (the bench harness does) and their counts aggregate; binding
against :data:`~repro.observability.registry.NULL_REGISTRY` yields
no-op instruments for disabled mode.
"""

from __future__ import annotations

from repro.observability.registry import (
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
)

__all__ = ["PipelineInstruments"]


class PipelineInstruments:
    """Pre-bound instruments for the compress/decompress/salvage paths.

    Attributes map 1:1 to the exported series:

    ``runs``
        ``isobar_runs_total{operation=}`` — completed pipeline runs.
    ``chunks``
        ``isobar_chunks_total{outcome=improvable|undetermined}`` —
        the analyzer's verdict per compressed chunk.
    ``chunks_decoded``
        ``isobar_chunks_decoded_total`` — chunks decoded (strict paths).
    ``routed_bytes``
        ``isobar_routed_bytes_total{route=solver|raw}`` — uncompressed
        bytes sent through the solver vs stored verbatim as noise.
    ``input_bytes`` / ``output_bytes``
        ``isobar_input_bytes_total{operation=}`` /
        ``isobar_output_bytes_total{operation=}`` — total bytes
        consumed / produced per direction.
    ``chunk_ratio``
        ``isobar_chunk_ratio`` histogram — per-chunk compression ratio
        (raw over stored bytes, container overhead included).
    ``chunk_seconds``
        ``isobar_chunk_seconds`` histogram — per-chunk processing time
        (analyze + partition + solve on the compress side).
    ``selector_evaluations``
        ``isobar_selector_evaluations_total{codec=,linearization=}`` —
        candidates the EUPA-selector timed.
    ``selector_decisions``
        ``isobar_selector_decisions_total{codec=,linearization=}`` —
        winners it picked.
    ``selector_sample_elements``
        ``isobar_selector_sample_elements`` gauge — size of the last
        training sample.
    ``salvage_chunks``
        ``isobar_salvage_chunks_total{status=recovered|corrupt|lost}``.
    ``salvage_elements``
        ``isobar_salvage_elements_total{status=recovered|lost}``
        (corrupt chunks count as lost elements — their payload exists
        but decodes wrong, so nothing usable was recovered).
    ``chunks_degraded``
        ``isobar_chunks_degraded_total{cause=error}`` — chunks the
        resilience layer stored with a fallback encoding.
    ``selector_failures``
        ``isobar_selector_failures_total{codec=,linearization=}`` —
        candidate evaluations that raised and were skipped.
    ``selector_decision_seconds``
        ``isobar_selector_decision_seconds{strategy=}`` histogram —
        wall-clock of one selection decision (sampling, estimate and
        trials for ``eupa``).
    ``parallel_queue_depth``
        ``isobar_parallel_queue_depth{queue=feed}`` gauge — jobs
        sitting in the pipelined engine's bounded feed queue.
    ``parallel_inflight_blocks``
        ``isobar_parallel_inflight_blocks`` gauge — blocks fed to the
        engine but not yet consumed (bounded by ``max_inflight``).
    ``parallel_worker_wait_seconds``
        ``isobar_parallel_worker_wait_seconds_total{worker=}`` — time
        each pipeline worker spent idle waiting on the feed queue
        (high values mean the producer or consumer is the bottleneck,
        not the codec).
    ``footer_fallback``
        ``isobar_container_footer_fallback_total{reason=}`` — container
        opens that could not use the chunk-index footer and fell back
        to the structural chain scan (``reason`` is the footer
        classification: ``absent``, ``truncated``, ``malformed``,
        ``crc_mismatch`` or ``inconsistent``).
    """

    def __init__(self, registry):
        self.runs = registry.counter(
            "isobar_runs_total", "Completed pipeline runs per operation."
        )
        self.chunks = registry.counter(
            "isobar_chunks_total",
            "Compressed chunks per analyzer outcome "
            "(improvable or undetermined).",
        )
        self.chunks_decoded = registry.counter(
            "isobar_chunks_decoded_total", "Chunks decoded by strict readers."
        )
        self.routed_bytes = registry.counter(
            "isobar_routed_bytes_total",
            "Uncompressed bytes routed to the solver vs stored raw.",
        )
        self.input_bytes = registry.counter(
            "isobar_input_bytes_total", "Bytes consumed per operation."
        )
        self.output_bytes = registry.counter(
            "isobar_output_bytes_total", "Bytes produced per operation."
        )
        self.chunk_ratio = registry.histogram(
            "isobar_chunk_ratio",
            "Per-chunk compression ratio (raw bytes over stored bytes).",
            buckets=DEFAULT_RATIO_BUCKETS,
        )
        self.chunk_seconds = registry.histogram(
            "isobar_chunk_seconds",
            "Per-chunk processing seconds (analyze + partition + solve).",
            buckets=DEFAULT_SECONDS_BUCKETS,
        )
        self.selector_evaluations = registry.counter(
            "isobar_selector_evaluations_total",
            "Candidate (codec, linearization) pairs the selector timed.",
        )
        self.selector_decisions = registry.counter(
            "isobar_selector_decisions_total",
            "Winning (codec, linearization) pairs the selector chose.",
        )
        self.selector_sample_elements = registry.gauge(
            "isobar_selector_sample_elements",
            "Elements in the selector's most recent training sample.",
        )
        self.salvage_chunks = registry.counter(
            "isobar_salvage_chunks_total",
            "Chunk outcomes seen by the salvage decoder.",
        )
        self.salvage_elements = registry.counter(
            "isobar_salvage_elements_total",
            "Elements recovered or lost by the salvage decoder.",
        )
        self.chunks_degraded = registry.counter(
            "isobar_chunks_degraded_total",
            "Chunks stored with a degraded fallback encoding, by cause.",
        )
        self.selector_failures = registry.counter(
            "isobar_selector_failures_total",
            "Selector candidate evaluations that raised and were skipped.",
        )
        self.selector_decision_seconds = registry.histogram(
            "isobar_selector_decision_seconds",
            "Wall-clock seconds per selection decision, by strategy.",
            buckets=DEFAULT_SECONDS_BUCKETS,
        )
        self.parallel_queue_depth = registry.gauge(
            "isobar_parallel_queue_depth",
            "Jobs queued in the pipelined engine's bounded feed queue.",
        )
        self.parallel_inflight_blocks = registry.gauge(
            "isobar_parallel_inflight_blocks",
            "Blocks fed to the pipelined engine but not yet consumed.",
        )
        self.parallel_worker_wait_seconds = registry.counter(
            "isobar_parallel_worker_wait_seconds_total",
            "Seconds each pipeline worker spent waiting for feed work.",
        )
        self.footer_fallback = registry.counter(
            "isobar_container_footer_fallback_total",
            "Container opens that fell back from the index footer to "
            "the structural chain scan, by reason.",
        )

    def record_chunk_outcome(
        self,
        *,
        improvable: bool,
        solver_bytes: int,
        raw_bytes: int,
        stored_bytes: int,
        seconds: float,
    ) -> None:
        """Record one compressed chunk's verdict, routing and cost."""
        outcome = "improvable" if improvable else "undetermined"
        self.chunks.inc(1, outcome=outcome)
        if solver_bytes:
            self.routed_bytes.inc(solver_bytes, route="solver")
        if raw_bytes:
            self.routed_bytes.inc(raw_bytes, route="raw")
        if stored_bytes:
            self.chunk_ratio.observe(
                (solver_bytes + raw_bytes) / stored_bytes
            )
        self.chunk_seconds.observe(seconds)

    def record_selector(self, decision) -> None:
        """Record a :class:`~repro.core.selector.SelectorDecision`."""
        for cand in decision.candidates:
            self.selector_evaluations.inc(
                1, codec=cand.codec_name,
                linearization=cand.linearization.value,
            )
        self.selector_decisions.inc(
            1, codec=decision.codec_name,
            linearization=decision.linearization.value,
        )
        self.selector_sample_elements.set(decision.sample_elements)
