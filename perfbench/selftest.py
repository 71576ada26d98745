#!/usr/bin/env python3
"""Self-tests of the benchmark itself, on tiny inputs.

Run from the repository root (about 15 seconds)::

    python3 perfbench/selftest.py

They check that the printed metric names are the ones ``BENCHMARK.json``
lists, that a container with one flipped byte makes the run fail, that
``service_small`` never runs more client threads than there are CPUs,
and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = ("--seed", "3", "--seconds", "1", "--scale", "0.02")
TIMEOUT_S = 300

#: The end-to-end metrics every workload reports in its full report.
NAMED_END_TO_END = {
    "setup_s", "peak_rss_mb", "error_rate", "ratio",
    "compress_mb_s", "decompress_mb_s",
    "parallel_compress_mb_s", "parallel_decompress_mb_s",
    "stream_compress_mb_s", "stream_decompress_mb_s",
    "svc_req_s", "svc_compress_p50_ms", "svc_compress_tail_ms",
    "open_us", "range_read_p50_ms", "range_read_tail_ms",
}
#: The per-layer metrics of a traced run's full report.
NAMED_PER_LAYER = {
    "analyzer.calls", "analyzer.self_s", "analyzer.mb_s",
    "selector.calls", "selector.self_s", "selector.trials", "selector.share",
    "partitioner.self_s", "partitioner.noise_bytes_frac",
    "solver.calls", "solver.self_s", "solver.mb_s", "solver.codec_chosen",
    "pipeline.chunks", "pipeline.self_s", "container.overhead_bytes",
    "engine.worker_wait_s", "engine.peak_inflight", "parallel.speedup",
    "stream.write_chunk_s", "stream.close_s",
    "reader.open_s", "reader.footer_open_frac",
    "reader.chunks_decoded_per_read", "reader.cache_hit_frac",
    "reader.read_amplification",
    "service.overhead_ms", "service.shed", "service.degraded",
    "trace.unattributed_frac", "trace.overhead_frac",
}


def run(*args: str, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    """Run the benchmark; returns (exit code, stdout, last-line JSON)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, proc.stdout, json.loads(lines[-1]) if lines else None


def full_report(stdout: str) -> dict:
    return json.loads("\n".join(stdout.strip().splitlines()[:-1]))


class TinyRuns(unittest.TestCase):
    """One tiny run per workload and trace mode, shared by the tests."""

    runs: dict[tuple[str, int], tuple[int, str, dict | None]] = {}
    spec: dict = {}

    @classmethod
    def setUpClass(cls) -> None:
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in cls.spec["workloads"]:
            for trace in (0, 1):
                cls.runs[(workload["name"], trace)] = run(
                    "--workload", workload["name"], "--trace", str(trace),
                    *TINY,
                )

    def test_runs_are_correct(self) -> None:
        for key, (code, _, last) in self.runs.items():
            with self.subTest(run=key):
                self.assertEqual(code, 0)
                self.assertTrue(last["correct"])
                self.assertEqual(last["failed"], 0)
                self.assertGreaterEqual(last["attempted"], 1)

    def test_last_line_names_and_units_match_benchmark_json(self) -> None:
        for key, (_, _, last) in self.runs.items():
            section = "per_layer" if key[1] else "end_to_end"
            expected = {m["name"]: m["unit"] for m in self.spec[section]}
            with self.subTest(run=key):
                self.assertEqual(set(last), {"correct", "attempted", "failed",
                                             "metrics"})
                printed = {name: m["unit"]
                           for name, m in last["metrics"].items()}
                self.assertEqual(printed, expected)

    def test_full_reports_name_every_metric(self) -> None:
        end_to_end: set[str] = set()
        for (workload, trace), (_, stdout, _) in self.runs.items():
            report = full_report(stdout)
            end_to_end |= set(report["metrics"])
            if trace:
                with self.subTest(workload=workload):
                    self.assertEqual(
                        NAMED_PER_LAYER - set(report["layers"]["named"]),
                        set(),
                    )
        self.assertEqual(NAMED_END_TO_END - end_to_end, set())

    def test_environment_is_recorded(self) -> None:
        report = full_report(self.runs[("bulk", 0)][1])
        for key in ("nproc", "caches", "python", "numpy",
                    "native_available", "isal_available"):
            self.assertIn(key, report["environment"])
        choices = report["workload_info"]["choices"]
        self.assertEqual(set(choices), {"field_f64", "particles_i64",
                                        "repetitive_f64"})

    def test_service_clients_at_most_nproc(self) -> None:
        info = full_report(self.runs[("service_small", 0)][1])["workload_info"]
        nproc = len(os.sched_getaffinity(0))
        self.assertLessEqual(info["clients"], nproc)
        self.assertLessEqual(info["peak_client_threads"], nproc)


class Failures(unittest.TestCase):
    def test_flipped_byte_is_a_failed_operation(self) -> None:
        code, stdout, last = run("--workload", "bulk", "--trace", "0",
                                 "--fault", "flip", *TINY)
        self.assertNotEqual(code, 0)
        self.assertFalse(last["correct"])
        self.assertGreaterEqual(last["failed"], 1)
        self.assertTrue(full_report(stdout)["errors"])

    def test_refuses_to_run_without_the_package(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, stdout, _ = run("--workload", "bulk", "--trace", "0",
                                  *TINY, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(stdout, "")


if __name__ == "__main__":
    unittest.main()
