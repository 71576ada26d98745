"""Turn timed operations and ledger spans into named metrics.

Two sets of names come out of a run:

* the *named* metrics (``compress_mb_s``, ``svc_compress_p50_ms``,
  ``reader.cache_hit_frac`` ...), each reported on the workloads where
  it applies, in the full report;
* the *gate* metrics listed in ``BENCHMARK.json``, which every
  workload reports, on the last line of the output.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable

from perfbench.ledger import LAYERS, ROOT, Ledger, Span, union_seconds
from perfbench.workloads import MIB, Op

#: Percentiles tried for a tail latency, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def metric(value: float, unit: str, **extra: Any) -> dict[str, Any]:
    return {"value": value, "unit": unit, **extra}


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0-100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with enough samples beyond it."""
    for pct in TAIL_LADDER:
        if len(values) * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def latency_metrics(prefix: str, seconds: list[float], unit: str = "ms"
                    ) -> dict[str, dict[str, Any]]:
    """``<prefix>_p50_<unit>`` and ``<prefix>_tail_<unit>``."""
    if not seconds:
        return {}
    scale = {"ms": 1e3, "us": 1e6}[unit]
    pct, value = tail(seconds)
    n = len(seconds)
    return {
        f"{prefix}_p50_{unit}": metric(statistics.median(seconds) * scale,
                                       unit, samples=n),
        f"{prefix}_tail_{unit}": metric(value * scale, unit, percentile=pct,
                                        samples=n),
    }


def rate(ops: Iterable[Op]) -> float:
    """MiB of raw data per second of operation time."""
    ops = list(ops)
    seconds = sum(op.seconds for op in ops)
    return sum(op.raw_bytes for op in ops) / MIB / seconds if seconds else 0.0


def per_call_medians(ops: Iterable[Op]) -> list[tuple[int, float]]:
    """``(raw bytes, median seconds)`` of each call of a repeated schedule.

    ``bulk`` repeats the same calls on the same inputs once per round, so
    the median over rounds of each call discards a round that ran slow.
    """
    rounds: dict[tuple[str, str], list[Op]] = defaultdict(list)
    for op in ops:
        rounds[(op.kind, op.label)].append(op)
    return [(group[0].raw_bytes,
             statistics.median(op.seconds for op in group))
            for group in rounds.values()]


def median_rate(ops: Iterable[Op]) -> float:
    """MiB/s of one round, timed by each call's median over rounds."""
    calls = per_call_medians(ops)
    seconds = sum(s for _, s in calls)
    return sum(b for b, _ in calls) / MIB / seconds if seconds else 0.0


def phase_wall(ops: list[Op]) -> float:
    return max(op.start + op.seconds for op in ops) - min(op.start for op in ops)


# -- end-to-end ---------------------------------------------------------


def named_metrics(workload: str, ops: list[Op]) -> dict[str, dict[str, Any]]:
    """The workload-specific end-to-end metrics of one phase."""
    by_kind: dict[str, list[Op]] = defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(op)
    out: dict[str, dict[str, Any]] = {}
    if workload == "bulk":
        for kind in ("compress", "decompress", "parallel_compress",
                     "parallel_decompress", "stream_compress",
                     "stream_decompress"):
            if by_kind[kind]:
                out[f"{kind}_mb_s"] = metric(median_rate(by_kind[kind]),
                                             "MiB/s")
    elif workload == "service_small":
        requests = by_kind["svc_compress"] + by_kind["svc_decompress"]
        out["svc_req_s"] = metric(len(requests) / phase_wall(requests),
                                  "1/s", samples=len(requests))
        out.update(latency_metrics(
            "svc_compress", [op.seconds for op in by_kind["svc_compress"]]
        ))
    elif workload == "archive_read":
        opens = [op.seconds for op in by_kind["open"]]
        out["open_us"] = metric(statistics.median(opens) * 1e6, "us",
                                samples=len(opens))
        out.update(latency_metrics("range_read",
                                   latencies(workload, ops)))
    return out


def latencies(workload: str, ops: list[Op]) -> list[float]:
    """The latencies the gate metrics report, in seconds.

    ``bulk``: each whole-array call's median over rounds.
    ``service_small``: compress requests.  ``archive_read``: reads.
    """
    if workload == "bulk":
        return [seconds for _, seconds in per_call_medians(ops)]
    if workload == "service_small":
        return [op.seconds for op in ops if op.kind == "svc_compress"]
    return [op.seconds for op in ops if op.kind != "open"]


def throughput(workload: str, ops: list[Op]) -> float:
    """Raw MiB/s the caller moves through the library.

    ``bulk``: one round's bytes over its operations' median times.
    ``service_small``: request bytes over the closed loop's wall time.
    ``archive_read``: returned bytes over open and read time.
    """
    if workload == "bulk":
        return median_rate(ops)
    if workload == "service_small":
        return sum(op.raw_bytes for op in ops) / MIB / phase_wall(ops)
    return rate(ops)


def gate_metrics(workload: str, ops: list[Op], setup_s: float,
                   peak_rss_mb: float, ratio: float
                   ) -> dict[str, dict[str, Any]]:
    """The ``end_to_end`` metrics of ``BENCHMARK.json``, in its order."""
    seconds = latencies(workload, ops)
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        "ratio": metric(ratio, "x"),
        "throughput_mb_s": metric(throughput(workload, ops), "MiB/s"),
        "op_p50_ms": metric(statistics.median(seconds) * 1e3, "ms"),
        "op_p95_ms": metric(percentile(seconds, 95.0) * 1e3, "ms"),
    }


# -- per layer ----------------------------------------------------------


def trace_overhead(pairs: list[tuple[list[Op], list[Op]]]) -> dict[str, Any]:
    """Traced over untraced wall time of the operations both phases ran.

    ``pairs`` holds (untraced, traced) phases that ran the same schedule.
    """
    base = with_trace = 0.0
    matched = 0
    for untraced, traced in pairs:
        plain = {op.seq: op.seconds for op in untraced}
        for op in traced:
            if op.seq in plain:
                base += plain[op.seq]
                with_trace += op.seconds
                matched += 1
    return metric((with_trace - base) / base if base else 0.0, "fraction",
                  untraced_s=base, traced_s=with_trace, matched_ops=matched)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_report(ledger: Ledger, traced: list[Op],
                 pairs: list[tuple[list[Op], list[Op]]],
                 choices: dict[str, dict[str, str]]) -> dict[str, Any]:
    """Per-layer self, busy and wall time and the layer-specific metrics."""
    spans = ledger.spans
    counts = ledger.counts
    by_layer: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_layer[span.layer].append(span)
    roots = by_layer.pop(ROOT, [])
    labels = sorted({s.label for s in roots})
    op_seconds = sum(s.seconds for s in roots)
    op_wall = union_seconds([(s.start, s.end) for s in roots])

    layers: dict[str, dict[str, Any]] = {}
    for layer in LAYERS:
        own = by_layer.get(layer, [])
        self_s = sum(s.self_s for s in own)
        busy = sum(s.busy_s for s in own)
        wall = union_seconds([(s.start, s.end) for s in own])
        layers[layer] = {
            "calls": len(own),
            "self_s": self_s,
            "busy_s": busy,
            "wall_s": wall,
            "self_frac": _ratio(self_s, op_seconds),
            "busy_frac": _ratio(busy, op_seconds),
            "wall_frac": _ratio(wall, op_wall),
        }

    def self_by_label(layer: str) -> dict[str, float]:
        table = dict.fromkeys(labels, 0.0)
        for s in by_layer.get(layer, []):
            table[s.label] = table.get(s.label, 0.0) + s.self_s
        return table

    def self_named(layer: str, suffix: str) -> float:
        return sum(s.self_s for s in by_layer.get(layer, [])
                   if s.name.endswith(suffix))

    compress_names = (".compress_detailed", "StreamingWriter.write_chunk",
                      "StreamingWriter.close")
    compress_wall = sum(
        s.seconds for s in spans
        if s.layer in ("pipeline", "engine", "stream")
        and s.name.endswith(compress_names)
    )
    selector_self = layers["selector"]["self_s"]
    decisions = counts["selector.decisions"]

    parallel_base = {
        kind: sum(op.seconds for op in traced if op.kind == kind)
        for kind in ("compress", "parallel_compress")
    }
    # Requests are timed on the client threads; the server's compress
    # and decode calls run on its own threads.
    client = by_layer.get("service", [])
    client_threads = {s.thread for s in client}
    client_s = sum(s.seconds for s in client)
    server_s = sum(
        s.seconds for s in spans
        if s.top and s.layer in ("pipeline", "engine", "reader")
        and s.thread not in client_threads
    )
    requests = len(client)
    reads = counts["reader.reads"]

    named: dict[str, dict[str, Any]] = {
        "analyzer.calls": metric(layers["analyzer"]["calls"], "count"),
        "analyzer.self_s": metric(layers["analyzer"]["self_s"], "s"),
        "analyzer.mb_s": metric(_ratio(counts["analyzer.bytes"] / MIB,
                                       layers["analyzer"]["wall_s"]), "MiB/s"),
        "selector.calls": metric(decisions, "count"),
        "selector.self_s": metric(selector_self, "s"),
        "selector.trials": metric(_ratio(counts["selector.trials"], decisions),
                                  "count/decision"),
        "selector.share": metric(_ratio(selector_self, compress_wall),
                                 "fraction", base_s=compress_wall),
        "partitioner.self_s": metric(layers["partitioner"]["self_s"], "s",
                                     by_input=self_by_label("partitioner")),
        "partitioner.noise_bytes_frac": metric(
            _ratio(counts["compress.noise_bytes"], counts["compress.raw_bytes"]),
            "fraction", base_bytes=counts["compress.raw_bytes"]),
        "solver.calls": metric(layers["solver"]["calls"], "count"),
        "solver.self_s": metric(layers["solver"]["self_s"], "s",
                                by_input=self_by_label("solver")),
        "solver.mb_s": metric(_ratio(counts["solver.raw_bytes"] / MIB,
                                     layers["solver"]["wall_s"]), "MiB/s"),
        "solver.codec_chosen": {"value": {k: v["codec"]
                                          for k, v in choices.items()},
                                "unit": "name"},
        "pipeline.chunks": metric(counts["pipeline.chunks"], "count"),
        "pipeline.self_s": metric(layers["pipeline"]["self_s"], "s"),
        "container.overhead_bytes": metric(
            sum(f.get("overhead_bytes", 0) for f in ledger.facts.values()),
            "bytes", by_input={k: f.get("overhead_bytes", 0)
                               for k, f in ledger.facts.items()}),
        "engine.worker_wait_s": metric(counts["engine.worker_wait_s"], "s"),
        "engine.peak_inflight": metric(counts["engine.peak_inflight"],
                                       "count"),
        "parallel.speedup": metric(
            _ratio(parallel_base["compress"],
                   parallel_base["parallel_compress"]), "x",
            serial_s=parallel_base["compress"],
            parallel_s=parallel_base["parallel_compress"]),
        "stream.write_chunk_s": metric(
            self_named("stream", "StreamingWriter.write_chunk"), "s"),
        "stream.close_s": metric(self_named("stream", "StreamingWriter.close"),
                                 "s"),
        "reader.open_s": metric(sum(
            s.seconds for s in by_layer.get("reader", [])
            if s.name.endswith("ContainerFile.__init__")), "s",
            opens=counts["reader.opens"]),
        "reader.footer_open_frac": metric(
            _ratio(counts["reader.footer_opens"], counts["reader.opens"]),
            "fraction"),
        "reader.chunks_decoded_per_read": metric(
            _ratio(counts["reader.chunks_decoded"], reads), "count/read",
            reads=reads),
        "reader.cache_hit_frac": metric(
            _ratio(counts["reader.cache_hits"], counts["reader.cache_lookups"]),
            "fraction", lookups=counts["reader.cache_lookups"]),
        "reader.read_amplification": metric(
            _ratio(counts["reader.decoded_elements"],
                   counts["reader.returned_elements"]), "x"),
        "service.overhead_ms": metric(
            _ratio(client_s - server_s, requests) * 1e3, "ms",
            requests=requests, client_s=client_s, server_s=server_s),
        "service.shed": metric(counts["service.shed"], "count"),
        "service.degraded": metric(counts["service.degraded"], "count"),
        "trace.unattributed_frac": metric(
            _ratio(sum(s.self_s for s in roots), op_seconds), "fraction",
            base_s=op_seconds),
        "trace.overhead_frac": trace_overhead(pairs),
    }
    return {"layers": layers, "named": named}


def gate_layer_metrics(report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The ``per_layer`` metrics of ``BENCHMARK.json``.

    Times appear as fractions of operation time, so a layer a workload
    never runs reads an exact zero rather than a constant time.
    """
    layers, named = report["layers"], report["named"]
    out: dict[str, dict[str, Any]] = {}
    for layer, row in layers.items():
        out[f"{layer}.calls"] = metric(row["calls"], "count")
        for share in ("self_frac", "busy_frac", "wall_frac"):
            out[f"{layer}.{share}"] = metric(row[share], "fraction")
    op_seconds = named["trace.unattributed_frac"]["base_s"] or 1.0
    for name in (
        "analyzer.mb_s", "selector.trials", "selector.share",
        "partitioner.noise_bytes_frac", "solver.mb_s", "pipeline.chunks",
        "container.overhead_bytes", "engine.peak_inflight",
        "parallel.speedup", "reader.footer_open_frac",
        "reader.chunks_decoded_per_read", "reader.cache_hit_frac",
        "reader.read_amplification", "service.shed", "service.degraded",
        "trace.unattributed_frac", "trace.overhead_frac",
    ):
        out[name] = metric(named[name]["value"], named[name]["unit"])
    for name, seconds in (
        ("engine.worker_wait_frac", named["engine.worker_wait_s"]["value"]),
        ("stream.write_chunk_frac", named["stream.write_chunk_s"]["value"]),
        ("stream.close_frac", named["stream.close_s"]["value"]),
        ("reader.open_frac", named["reader.open_s"]["value"]),
    ):
        out[name] = metric(seconds / op_seconds, "fraction")
    overhead = named["service.overhead_ms"]
    out["service.overhead_frac"] = metric(
        _ratio(overhead["client_s"] - overhead["server_s"],
               overhead["client_s"]), "fraction")
    return out
