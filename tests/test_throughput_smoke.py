"""Throughput-harness smoke tests plus opt-in perf assertions.

A tiny always-on sweep keeps ``benchmarks/run_throughput.py`` honest
(every mode runs, every row round-trips, the JSON shape is stable).
The wall-clock speedup assertions are behind the ``perf`` marker
(``pytest -m perf``): they compare the vectorized analyzer dispatch
against the retained per-column reference loop and are only meaningful
on an otherwise idle machine.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.bytefreq import (
    byte_view,
    column_frequencies,
    column_frequencies_reference,
)
from repro.analysis.histcore import native_available

_BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
if str(_BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(_BENCH_DIR))

from run_throughput import main as throughput_main  # noqa: E402
from run_throughput import run_sweep  # noqa: E402


def test_sweep_smoke():
    """Every execution mode produces a row that round-trips."""
    payload = run_sweep(
        n_elements=20_000,
        codecs=["zlib"],
        chunk_sizes=[10_000],
        modes=["serial", "parallel", "stream"],
        datasets=["field_f64"],
        n_workers=2,
        seed=0,
    )
    rows = payload["rows"]
    assert {row["mode"] for row in rows} == {"serial", "parallel", "stream"}
    for row in rows:
        assert row["ratio"] > 1.0
        assert row["compressed_bytes"] > 0
    serial = next(r for r in rows if r["mode"] == "serial")
    # Stage decomposition mirrors the observability layer's stages.
    assert {"analyze", "solve", "merge", "select"} <= set(
        serial["compress_stage_mb_s"]
    )
    assert set(serial["decompress_stage_mb_s"]) == {"decode", "merge"}
    # Serial and parallel emit byte-identical containers.
    parallel = next(r for r in rows if r["mode"] == "parallel")
    assert serial["compressed_bytes"] == parallel["compressed_bytes"]
    # Each row records the engine workers it ran with.
    stream = next(r for r in rows if r["mode"] == "stream")
    assert (serial["n_workers"], parallel["n_workers"],
            stream["n_workers"]) == (1, 2, 2)


def test_cli_writes_json(tmp_path):
    out = tmp_path / "bench.json"
    rc = throughput_main([
        "--elements", "20000",
        "--chunk-sizes", "10000",
        "--modes", "serial",
        "--datasets", "repetitive_f64",
        "--codecs", "zlib",
        "--json", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["benchmark"] == "throughput_sweep"
    assert "isal_available" in payload["environment"]
    assert len(payload["rows"]) == 1


@pytest.mark.perf
def test_vectorized_analyzer_speedup():
    """The analyzer's frequency kernel is >=3x the reference loop on a
    paper-sized chunk (375k doubles).  Wall-clock: run via ``-m perf``
    on an idle machine."""
    if not native_available():
        pytest.skip("native histogram kernel unavailable (no compiler)")
    rng = np.random.default_rng(0)
    values = np.cumsum(rng.normal(size=375_000))
    matrix = byte_view(values)

    # Warm both paths (kernel load, cache effects) before timing.
    column_frequencies(matrix)
    column_frequencies_reference(matrix)

    best_fast = min(
        _timed(column_frequencies, matrix) for _ in range(5)
    )
    best_ref = min(
        _timed(column_frequencies_reference, matrix) for _ in range(5)
    )
    assert np.array_equal(
        column_frequencies(matrix), column_frequencies_reference(matrix)
    )
    speedup = best_ref / best_fast
    assert speedup >= 3.0, (
        f"vectorized analyzer only {speedup:.2f}x faster "
        f"({best_ref * 1e3:.2f} ms -> {best_fast * 1e3:.2f} ms)"
    )


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
