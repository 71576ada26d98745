#!/usr/bin/env python
"""Hot-path throughput sweep: dataset × codec × chunk size × execution mode.

Measures end-to-end and per-stage MB/s of the compress pipeline (and
end-to-end decompress) across

* seeded synthetic datasets with different byte fingerprints,
* solver codecs (``zlib`` and ``bzip2``, the paper's two solvers; EUPA
  picks bzip2 for every fingerprint below under the ratio preference),
* chunk sizes around the paper's 375 000-element operating point, and
* the three execution paths: serial pipeline, thread-parallel
  pipeline, and the streaming writer/reader.

Per-stage rates come from the observability layer's stage timings
(:class:`repro.observability.PipelineReport.stage_seconds`), so the
numbers decompose exactly the way ``docs/observability.md`` describes:
analyze / partition / solve / merge on the way in, decode / merge on
the way out.

Canonical invocation (records the repo's benchmark artifact)::

    PYTHONPATH=src python benchmarks/run_throughput.py --json BENCH_throughput.json

Results are wall-clock measurements: run on an idle machine, and do
not run the test suite concurrently.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from repro.analysis import native_available, native_backend_description
from repro.codecs import isal_available
from repro.codecs.standard import bzip2_binding_description
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.stream import stream_compress, stream_decompress
from repro.datasets.synthetic import (
    build_particle_ids,
    build_repetitive,
    build_structured,
)

MEGABYTE = 1024.0 * 1024.0

#: dataset name -> builder(n_elements, rng).  Fingerprints span the
#: paper's regimes: improvable (noise columns), fully compressible
#: (repetitive), and integer identifier streams.
DATASETS = {
    "field_f64": lambda n, rng: build_structured(
        n, np.float64, n_noise_bytes=3, rng=rng
    ),
    "repetitive_f64": lambda n, rng: build_repetitive(n, np.float64, rng),
    "particles_i64": lambda n, rng: build_particle_ids(n, rng=rng),
}


def _rate(n_bytes: int, seconds: float) -> float | None:
    """MB/s, or None when the denominator is unmeasurably small."""
    if seconds <= 0.0:
        return None
    return round(n_bytes / MEGABYTE / seconds, 3)


def _stage_rates(input_bytes: int, stage_seconds: dict) -> dict:
    """Per-stage MB/s of ``input_bytes`` against each stage's seconds."""
    return {
        stage: _rate(input_bytes, seconds)
        for stage, seconds in sorted(stage_seconds.items())
    }


def _measure_serial(values, config):
    comp = IsobarCompressor(config, collect_metrics=True)
    start = time.perf_counter()
    result = comp.compress_detailed(values)
    compress_wall = time.perf_counter() - start
    compress_report = comp.last_report

    start = time.perf_counter()
    restored = comp.decompress(result.payload)
    decompress_wall = time.perf_counter() - start
    decompress_report = comp.last_report
    assert np.array_equal(restored, values), "round-trip mismatch"
    return (result, compress_wall, compress_report,
            decompress_wall, decompress_report)


def _measure_parallel(values, config, n_workers):
    comp = ParallelIsobarCompressor(
        config, n_workers=n_workers, collect_metrics=True
    )
    start = time.perf_counter()
    result = comp.compress_detailed(values)
    compress_wall = time.perf_counter() - start
    compress_report = comp.last_report

    start = time.perf_counter()
    restored = comp.decompress(result.payload)
    decompress_wall = time.perf_counter() - start
    decompress_report = comp.last_report
    assert np.array_equal(restored, values), "round-trip mismatch"
    return (result, compress_wall, compress_report,
            decompress_wall, decompress_report)


def _measure_stream(values, config, chunk_elements, n_workers):
    from repro.observability import MetricsRegistry

    chunks = [
        values[i:i + chunk_elements]
        for i in range(0, values.size, chunk_elements)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.isbr")
        registry = MetricsRegistry()
        start = time.perf_counter()
        written = stream_compress(
            iter(chunks), path, values.dtype, config, metrics=registry,
            n_workers=n_workers,
        )
        compress_wall = time.perf_counter() - start

        start = time.perf_counter()
        pieces = list(stream_decompress(path, n_workers=n_workers))
        decompress_wall = time.perf_counter() - start
        restored = np.concatenate(pieces)
    assert np.array_equal(restored, values), "round-trip mismatch"
    return written, compress_wall, decompress_wall


def _attach_parallel_speedups(rows: list) -> None:
    """Annotate each parallel row with its speedup over the serial row.

    ``parallel_speedup.compress`` / ``.decompress`` is the parallel
    row's MB/s divided by the serial row's for the same (dataset,
    codec, chunk_elements), so the ROADMAP regression check is one jq
    expression::

        jq '.rows[] | select(.mode=="parallel")
            | {dataset, codec, n_workers, parallel_speedup}'
    """
    serial = {
        (row["dataset"], row["codec"], row["chunk_elements"]): row
        for row in rows
        if row["mode"] == "serial"
    }
    for row in rows:
        if row["mode"] != "parallel":
            continue
        base = serial.get(
            (row["dataset"], row["codec"], row["chunk_elements"])
        )
        if base is None:
            continue
        speedup = {}
        for key in ("compress_mb_s", "decompress_mb_s"):
            if row.get(key) and base.get(key):
                speedup[key.replace("_mb_s", "")] = round(
                    row[key] / base[key], 3
                )
        row["parallel_speedup"] = speedup


def run_sweep(
    *,
    n_elements: int,
    codecs: list[str],
    chunk_sizes: list[int],
    modes: list[str],
    datasets: list[str],
    n_workers: int,
    seed: int,
) -> dict:
    """Run the full sweep and return the JSON-serialisable result."""
    rows = []
    for dataset in datasets:
        rng = np.random.default_rng(seed)
        values = DATASETS[dataset](n_elements, rng)
        raw_bytes = values.nbytes
        for codec in codecs:
            for chunk_elements in chunk_sizes:
                config = IsobarConfig(
                    codec=codec, chunk_elements=chunk_elements
                )
                for mode in modes:
                    row = {
                        "dataset": dataset,
                        "codec": codec,
                        "chunk_elements": chunk_elements,
                        "mode": mode,
                        # Workers actually used by THIS row: serial rows
                        # run single-worker whatever --workers says;
                        # parallel and stream rows run --workers.
                        "n_workers": 1 if mode == "serial" else n_workers,
                        "n_elements": int(values.size),
                        "raw_bytes": int(raw_bytes),
                    }
                    if mode == "serial" or mode == "parallel":
                        if mode == "serial":
                            measured = _measure_serial(values, config)
                        else:
                            measured = _measure_parallel(
                                values, config, n_workers
                            )
                        (result, c_wall, c_report,
                         d_wall, d_report) = measured
                        row.update(
                            compressed_bytes=result.compressed_bytes,
                            container_overhead_bytes=(
                                result.container_overhead_bytes
                            ),
                            ratio=round(result.ratio, 4),
                            payload_ratio=round(result.payload_ratio, 4),
                            compress_mb_s=_rate(raw_bytes, c_wall),
                            decompress_mb_s=_rate(raw_bytes, d_wall),
                            compress_stage_mb_s=_stage_rates(
                                raw_bytes, c_report.stage_seconds
                            ),
                            decompress_stage_mb_s=_stage_rates(
                                raw_bytes, d_report.stage_seconds
                            ),
                        )
                    elif mode == "stream":
                        written, c_wall, d_wall = _measure_stream(
                            values, config, chunk_elements, n_workers
                        )
                        row.update(
                            compressed_bytes=int(written),
                            ratio=round(raw_bytes / written, 4),
                            compress_mb_s=_rate(raw_bytes, c_wall),
                            decompress_mb_s=_rate(raw_bytes, d_wall),
                        )
                    else:
                        raise ValueError(f"unknown mode {mode!r}")
                    rows.append(row)
                    rate = row.get("compress_mb_s")
                    print(
                        f"{dataset:16s} {codec:10s} "
                        f"chunk={chunk_elements:<8d} {mode:8s} "
                        f"ratio={row['ratio']:.3f} "
                        f"compress={rate if rate is not None else '-'} MB/s",
                        flush=True,
                    )
    _attach_parallel_speedups(rows)
    return {
        "benchmark": "throughput_sweep",
        "n_elements": n_elements,
        "seed": seed,
        "n_workers": n_workers,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "isal_available": isal_available(),
            "bzip2_backend": bzip2_binding_description(),
            "native_histogram": native_available(),
            "native_backend": native_backend_description(),
        },
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--elements", type=int, default=750_000,
                        help="elements per dataset (default: 750000)")
    parser.add_argument("--codecs", nargs="+",
                        default=["zlib", "bzip2"],
                        help="codec registry names to sweep")
    parser.add_argument("--chunk-sizes", nargs="+", type=int,
                        default=[93_750, 375_000],
                        help="chunk sizes (elements) to sweep")
    parser.add_argument("--modes", nargs="+",
                        default=["serial", "parallel", "stream"],
                        choices=["serial", "parallel", "stream"])
    parser.add_argument("--datasets", nargs="+",
                        default=list(DATASETS),
                        choices=list(DATASETS))
    parser.add_argument("--workers", type=int, default=2,
                        help="engine workers for the parallel and "
                             "stream modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the full sweep as JSON to PATH")
    args = parser.parse_args(argv)

    payload = run_sweep(
        n_elements=args.elements,
        codecs=args.codecs,
        chunk_sizes=args.chunk_sizes,
        modes=args.modes,
        datasets=args.datasets,
        n_workers=args.workers,
        seed=args.seed,
    )
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {len(payload['rows'])} rows -> {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
