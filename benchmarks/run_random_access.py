#!/usr/bin/env python
"""Seekable-container benchmark: footer opens vs scan opens vs full decode.

Measures, across container sizes:

* **open latency** — `ContainerFile` via the index footer (O(footer)),
  the same file with its footer stripped (fallback structural scan),
  and `ContainerFile` over the container bytes in memory (footer open);
* **random range reads** — many small `read_range` calls through a
  footer-opened `ContainerFile` against the strict decompress-then-
  slice baseline.

Canonical invocation (records the repo's benchmark artifact)::

    PYTHONPATH=src python benchmarks/run_random_access.py --json BENCH_random_access.json

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

from repro.core.metadata import locate_footer
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile
from repro.datasets.synthetic import build_structured

_CHUNK = 50_000


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_case(n_elements: int, repeats: int, n_reads: int,
                  seed: int, tmp: str) -> dict:
    rng = np.random.default_rng(seed)
    values = build_structured(n_elements, np.float64, 6, rng)
    config = IsobarConfig(chunk_elements=_CHUNK, sample_elements=2048)
    payload = IsobarCompressor(config).compress(values)
    footer_start = locate_footer(payload).start

    footered = os.path.join(tmp, f"footer_{n_elements}.isbr")
    stripped = os.path.join(tmp, f"scan_{n_elements}.isbr")
    with open(footered, "wb") as sink:
        sink.write(payload)
    with open(stripped, "wb") as sink:
        sink.write(payload[:footer_start])

    def open_footer():
        with ContainerFile(footered) as reader:
            assert reader.opened_via == "footer"

    def open_scan():
        with ContainerFile(stripped) as reader:
            assert reader.opened_via == "scan"

    def open_memory():
        assert ContainerFile(payload).opened_via == "footer"

    row = {
        "n_elements": n_elements,
        "n_chunks": -(-n_elements // _CHUNK),
        "container_bytes": len(payload),
        "footer_bytes": len(payload) - footer_start,
        "open_footer_us": round(_best_of(repeats, open_footer) * 1e6, 1),
        "open_scan_us": round(_best_of(repeats, open_scan) * 1e6, 1),
        "open_memory_us": round(_best_of(repeats, open_memory) * 1e6, 1),
    }
    row["open_speedup_vs_scan"] = round(
        row["open_scan_us"] / row["open_footer_us"], 2
    )

    # Narrow windows — the checkpoint-inspection access pattern random
    # access exists for; wide spans degenerate to a full decode.
    window = 1_000
    starts = rng.integers(0, n_elements - window, size=n_reads)
    spans = [(int(a), int(a) + window) for a in starts]

    with ContainerFile(footered) as reader:
        start = time.perf_counter()
        for a, b in spans:
            reader.read_range(a, b)
        ranged = time.perf_counter() - start

    decoder = IsobarCompressor()
    start = time.perf_counter()
    restored = decoder.decompress(payload)
    for a, b in spans:
        restored[a:b]
    full = time.perf_counter() - start

    row.update(
        n_range_reads=n_reads,
        range_reads_ms=round(ranged * 1e3, 2),
        full_decode_then_slice_ms=round(full * 1e3, 2),
        range_speedup_vs_full=round(full / ranged, 2) if ranged else None,
    )
    return row


def run(n_sizes: list[int], repeats: int, n_reads: int, seed: int) -> dict:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n_elements in n_sizes:
            row = _measure_case(n_elements, repeats, n_reads, seed, tmp)
            rows.append(row)
            print(
                f"n={n_elements:<10d} open footer={row['open_footer_us']}us "
                f"scan={row['open_scan_us']}us "
                f"({row['open_speedup_vs_scan']}x)  "
                f"{n_reads} range reads={row['range_reads_ms']}ms vs "
                f"full decode={row['full_decode_then_slice_ms']}ms",
                flush=True,
            )
    return {
        "benchmark": "random_access",
        "chunk_elements": _CHUNK,
        "seed": seed,
        "repeats": repeats,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", type=int,
                        default=[200_000, 800_000, 3_200_000],
                        help="container sizes in elements")
    parser.add_argument("--repeats", type=int, default=7,
                        help="open-latency repeats (best-of)")
    parser.add_argument("--reads", type=int, default=64,
                        help="random range reads per container")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result as JSON")
    args = parser.parse_args(argv)

    result = run(args.sizes, args.repeats, args.reads, args.seed)
    if args.json:
        with open(args.json, "w") as sink:
            json.dump(result, sink, indent=2)
            sink.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
