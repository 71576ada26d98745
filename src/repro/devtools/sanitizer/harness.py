"""The ``isobar sanitize`` harness: run real code under the probes.

Two modes share one report shape:

* **smoke** (``isobar sanitize --smoke``) — a fixed set of scenarios
  that exercise the concurrency-heavy subsystems directly: the
  pipelined parallel compressor, pipelined stream writers and readers
  (finished, abandoned and aborted, which must leave no thread, file
  handle or temp file), and a live service with the event-loop stall
  probe attached, plus a deterministic lock-discipline scenario on
  instrumented locks.
  ``--seed-inversion`` adds a scenario that acquires two locks in
  opposite orders from two threads — the report must then contain the
  cycle, which is how the harness proves it can see one.
* **full** (``isobar sanitize``) — runs the tier-1 pytest suite in a
  subprocess with ``ISOBAR_SANITIZE=1``; the suite's ``conftest``
  calls :func:`install_suite_instrumentation` at session start, which
  wraps the repo's module-global locks in
  :class:`~repro.devtools.sanitizer.lockgraph.InstrumentedLock` and
  installs the leak tracker, then writes the probe report at session
  end for the harness to merge.

The report is JSON (``--json``); exit status is 0 iff no lock cycle,
no leak, and no stall was observed (and, in full mode, the suite
passed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

from repro.core.exceptions import SanitizerError
from repro.devtools.sanitizer.leaks import ResourceLeakTracker
from repro.devtools.sanitizer.lockgraph import (
    InstrumentedLock,
    LockOrderGraph,
    global_lock_graph,
    instrumented_lock,
    reset_global_lock_graph,
)

__all__ = [
    "SanitizeReport",
    "install_suite_instrumentation",
    "main",
    "run_smoke",
]

#: Module-global locks wrapped during an instrumented suite run.  Each
#: entry is ``(module, attribute)``; the wrapper keeps the original
#: lock object, so waiting threads and held state are unaffected.
SUITE_LOCKS: tuple[tuple[str, str], ...] = (
    ("repro.codecs.base", "_REGISTRY_LOCK"),
    ("repro.core.selector", "_STRATEGY_LOCK"),
    ("repro.core.pipeline", "_DEPRECATION_LOCK"),
)


@dataclass
class SanitizeReport:
    """Everything one sanitize run observed."""

    mode: str
    scenarios: list[str] = field(default_factory=list)
    lock_cycles: list[dict] = field(default_factory=list)
    loop_stalls: list[dict] = field(default_factory=list)
    leaks: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    tests: dict | None = None

    @property
    def ok(self) -> bool:
        if self.lock_cycles or self.leaks or self.loop_stalls:
            return False
        if self.errors:
            return False
        if self.tests is not None and self.tests.get("returncode", 1) != 0:
            return False
        return True

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "mode": self.mode,
            "ok": self.ok,
            "scenarios": list(self.scenarios),
            "lock_cycles": list(self.lock_cycles),
            "loop_stalls": list(self.loop_stalls),
            "leaks": list(self.leaks),
            "errors": list(self.errors),
        }
        if self.tests is not None:
            payload["tests"] = dict(self.tests)
        return payload

    def render_text(self) -> str:
        lines = [f"sanitize ({self.mode} mode)"]
        if self.scenarios:
            lines.append(f"  scenarios : {', '.join(self.scenarios)}")
        if self.tests is not None:
            lines.append(
                f"  tests     : exit {self.tests.get('returncode')}"
            )
        lines.append(f"  lock cycles : {len(self.lock_cycles)}")
        for cycle in self.lock_cycles:
            arrows = " -> ".join(cycle["path"] + [cycle["path"][0]])
            lines.append(f"    DEADLOCK ORDER {arrows}")
            for witness in cycle["witnesses"]:
                lines.append(
                    f"      held {witness['held']} at "
                    f"{witness['held_at']}, acquired "
                    f"{witness['acquired']} at {witness['acquired_at']} "
                    f"[{witness['thread']}]"
                )
        lines.append(f"  loop stalls : {len(self.loop_stalls)}")
        for stall in self.loop_stalls:
            lines.append(
                f"    {stall['handler']}: loop held for "
                f"{stall['stalled_seconds']}s"
            )
        lines.append(f"  leaks       : {len(self.leaks)}")
        for leak in self.leaks:
            lines.append(
                f"    {leak['kind']} from {leak['created_at']} awaiting "
                f"{', '.join(leak['pending_release'])}"
            )
        for error in self.errors:
            lines.append(f"  error       : {error}")
        lines.append("  verdict     : " + ("CLEAN" if self.ok else "DIRTY"))
        return "\n".join(lines)


# -- smoke scenarios --------------------------------------------------------


def _scenario_lock_discipline(graph: LockOrderGraph) -> None:
    """Two locks taken in one consistent order from two threads."""
    alpha = instrumented_lock("smoke.alpha", graph=graph)
    beta = instrumented_lock("smoke.beta", graph=graph)

    def _ordered() -> None:
        with alpha:
            with beta:
                pass

    worker = threading.Thread(target=_ordered, name="sanitize-ordered")
    worker.start()
    worker.join()
    _ordered()  # main thread agrees on the order


def _scenario_seeded_inversion(graph: LockOrderGraph) -> None:
    """Acquire two locks in opposite orders — the planted deadlock.

    The two threads run *sequentially* (each joined before the next
    starts), so the scenario can never actually deadlock; the graph
    still records ``alpha -> beta`` and ``beta -> alpha``, which is
    the whole point: lock-order analysis flags the latent cycle
    without needing the fatal interleaving.
    """
    alpha = instrumented_lock("seeded.alpha", graph=graph)
    beta = instrumented_lock("seeded.beta", graph=graph)

    def _forward() -> None:
        with alpha:
            with beta:
                pass

    def _backward() -> None:
        with beta:
            with alpha:
                pass

    for target, name in ((_forward, "sanitize-fwd"), (_backward, "sanitize-bwd")):
        worker = threading.Thread(target=target, name=name)
        worker.start()
        worker.join()


def _scenario_parallel_roundtrip(_graph: LockOrderGraph) -> None:
    """Pipelined compressor under the leak tracker."""
    import numpy as np

    from repro.core.parallel import ParallelIsobarCompressor
    from repro.core.preferences import IsobarConfig

    values = np.linspace(0.0, 1.0, 20_000, dtype=np.float64)
    compressor = ParallelIsobarCompressor(
        IsobarConfig(chunk_elements=4_096), 2
    )
    blob = compressor.compress(values)
    restored = compressor.decompress(blob)
    if not np.array_equal(restored, values):
        raise SanitizerError("parallel roundtrip mismatch")


def _scenario_stream_roundtrip(_graph: LockOrderGraph) -> list[dict]:
    """Pipelined stream writer and reader, a reader abandoned after its
    first chunk and an aborted writer; returns the threads, file
    handles (where ``/proc`` lists them) and temp files left behind."""
    import numpy as np

    from repro.core.preferences import IsobarConfig
    from repro.core.stream import StreamingWriter, stream_decompress

    def fds() -> set[str]:
        fd_dir = "/proc/self/fd"
        return set(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else set()

    values = np.linspace(0.0, 1.0, 20_000, dtype=np.float64)
    config = IsobarConfig(chunk_elements=4_096)
    threads_before, fds_before = set(threading.enumerate()), fds()
    with tempfile.TemporaryDirectory(prefix="isobar-sanitize-") as tmp:
        path = os.path.join(tmp, "stream.isobar")
        with StreamingWriter.open(
            path, values.dtype, config, n_workers=2
        ) as writer:
            for start in range(0, values.size, 4_096):
                writer.write_chunk(values[start:start + 4_096])
        restored = np.concatenate(list(stream_decompress(path, n_workers=2)))
        if not np.array_equal(restored, values):
            raise SanitizerError("stream roundtrip mismatch")
        abandoned = stream_decompress(path, n_workers=2)
        next(abandoned)
        del abandoned
        aborted = StreamingWriter.open(
            os.path.join(tmp, "aborted.isobar"), values.dtype, config,
            n_workers=2,
        )
        aborted.write_chunk(values[:4_096])
        aborted.write_chunk(values[4_096:8_192])
        aborted.abort()
        left = [("temp file", name) for name in os.listdir(tmp)
                if name != "stream.isobar"]
    left += [("thread", t.name) for t in threading.enumerate()
             if t not in threads_before and t.is_alive()]
    left += [("file handle", f"fd {fd}") for fd in fds() - fds_before]
    return [{"kind": kind, "created_at": f"stream_roundtrip: {what}",
             "pending_release": ["close"]} for kind, what in left]


def _scenario_service_roundtrip(
    _graph: LockOrderGraph, *, stall_threshold_seconds: float
) -> list[dict]:
    """A live service answering requests with the stall probe attached."""
    from repro.service.app import ServiceConfig, ServiceThread
    from repro.service.client import ServiceClient

    handle = ServiceThread(
        ServiceConfig(
            stall_probe_threshold_seconds=stall_threshold_seconds
        )
    )
    host, port = handle.start()
    try:
        client = ServiceClient(host, port, max_retries=0)
        body = bytes(range(256)) * 32
        response = client.request(
            "POST", "/v1/compress", body,
            headers={"X-Isobar-Dtype": "float64"},
        )
        if response.status != 200:
            raise SanitizerError(
                f"/v1/compress answered {response.status}"
            )
        restored = client.request(
            "POST", "/v1/decompress", response.body
        )
        if restored.status != 200 or restored.body != body:
            raise SanitizerError("service roundtrip mismatch")
        if client.request("GET", "/healthz").status != 200:
            raise SanitizerError("/healthz not OK")
    finally:
        handle.stop()
    probe = handle.service.stall_probe
    return [event.to_dict() for event in probe.events()] if probe else []


def run_smoke(
    *,
    seed_inversion: bool = False,
    stall_threshold_seconds: float = 1.0,
    metrics: object | None = None,
) -> SanitizeReport:
    """Run the smoke scenarios under a fresh graph and leak tracker."""
    report = SanitizeReport(mode="smoke")
    graph = LockOrderGraph()
    tracker = ResourceLeakTracker()
    scenarios = [
        ("lock_discipline", _scenario_lock_discipline),
        ("parallel_roundtrip", _scenario_parallel_roundtrip),
        ("stream_roundtrip", _scenario_stream_roundtrip),
    ]
    if seed_inversion:
        scenarios.append(("seeded_inversion", _scenario_seeded_inversion))
    left_behind: list[dict] = []  # leak records a scenario returns
    tracker.install()
    try:
        for name, scenario in scenarios:
            report.scenarios.append(name)
            try:
                left_behind += scenario(graph) or []
            except Exception as exc:
                report.errors.append(f"{name}: {exc!r}")
        report.scenarios.append("service_roundtrip")
        try:
            report.loop_stalls.extend(
                _scenario_service_roundtrip(
                    graph, stall_threshold_seconds=stall_threshold_seconds
                )
            )
        except Exception as exc:
            report.errors.append(f"service_roundtrip: {exc!r}")
    finally:
        tracker.uninstall()
    report.lock_cycles = [c.to_dict() for c in graph.find_cycles()]
    report.leaks = [r.to_dict() for r in tracker.live()] + left_behind
    _count_cycles(metrics, len(report.lock_cycles))
    return report


def _count_cycles(metrics: object | None, n: int) -> None:
    if metrics is None or n == 0:
        return
    metrics.counter(
        "isobar_sanitizer_lock_cycles_total",
        "lock-order cycles detected by the runtime sanitizer",
    ).inc(n)


# -- full-suite instrumentation ---------------------------------------------


class _SuiteInstrumentation:
    """Probe state for one instrumented pytest session."""

    def __init__(self) -> None:
        self.tracker = ResourceLeakTracker()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> "_SuiteInstrumentation":
        import importlib

        reset_global_lock_graph()
        self.tracker.install()
        graph = global_lock_graph()
        for module_name, attr in SUITE_LOCKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(
                module,
                attr,
                InstrumentedLock(
                    f"{module_name}.{attr}", lock=original, graph=graph
                ),
            )
        return self

    def finish(self, report_path: str | None) -> None:
        """Collect probe results, restore patches, write the report."""
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        self.tracker.uninstall()
        payload = {
            "lock_cycles": [
                c.to_dict() for c in global_lock_graph().find_cycles()
            ],
            "leaks": [r.to_dict() for r in self.tracker.live()],
        }
        if report_path:
            with open(report_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)


def install_suite_instrumentation() -> _SuiteInstrumentation:
    """Entry point for ``conftest.py`` under ``ISOBAR_SANITIZE=1``."""
    return _SuiteInstrumentation().install()


def run_tests(pytest_args: list[str] | None = None) -> SanitizeReport:
    """Run the tier-1 suite in a subprocess under instrumentation."""
    report = SanitizeReport(mode="full")
    if not os.path.isdir("tests"):
        report.errors.append(
            "full mode needs the repo checkout (no tests/ directory here); "
            "use --smoke outside the repo"
        )
        return report
    with tempfile.TemporaryDirectory(prefix="isobar-sanitize-") as tmp:
        probe_path = os.path.join(tmp, "probes.json")
        env = dict(os.environ)
        env["ISOBAR_SANITIZE"] = "1"
        env["ISOBAR_SANITIZE_REPORT"] = probe_path
        command = [sys.executable, "-m", "pytest", "-x", "-q"]
        command.extend(pytest_args or [])
        proc = subprocess.run(command, env=env)
        report.tests = {"command": command, "returncode": proc.returncode}
        try:
            with open(probe_path, encoding="utf-8") as fh:
                probes = json.load(fh)
            report.lock_cycles = probes.get("lock_cycles", [])
            report.leaks = probes.get("leaks", [])
        except FileNotFoundError:
            report.errors.append(
                "instrumented run produced no probe report "
                "(is tests/conftest.py wired for ISOBAR_SANITIZE?)"
            )
    return report


# -- CLI entry --------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="isobar sanitize",
        description="run the tsan-lite concurrency sanitizer",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the fixed smoke scenarios instead of the full suite",
    )
    parser.add_argument(
        "--seed-inversion", action="store_true",
        help="plant a two-thread lock inversion (the report must then "
             "flag the cycle; used to self-test the sanitizer)",
    )
    parser.add_argument(
        "--stall-threshold-ms", type=float, default=1000.0,
        help="loop-stall threshold for the service scenario "
             "(default: 1000)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "pytest_args", nargs="*",
        help="extra arguments for pytest in full mode",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_smoke(
            seed_inversion=args.seed_inversion,
            stall_threshold_seconds=args.stall_threshold_ms / 1000.0,
        )
    else:
        report = run_tests(args.pytest_args)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
