"""The tsan-lite runtime sanitizer (``repro.devtools.sanitizer``).

The deterministic core of each probe: the lock-order graph must catch
a seeded two-thread inversion without any deadlock actually happening,
the loop-stall probe must flag a deliberately blocked event loop, and
the leak tracker must see executors and shared-memory segments that
are created but never released.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.exceptions import SanitizerError
from repro.devtools.sanitizer.harness import (
    SanitizeReport,
    run_smoke,
)
from repro.devtools.sanitizer.leaks import ResourceLeakTracker
from repro.devtools.sanitizer.lockgraph import (
    LockOrderGraph,
    instrumented_lock,
)
from repro.devtools.sanitizer.loopwatch import LoopStallProbe

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds
    _shared_memory = None


class TestLockOrderGraph:
    def test_consistent_order_stays_acyclic(self):
        graph = LockOrderGraph()
        alpha = instrumented_lock("t.alpha", graph=graph)
        beta = instrumented_lock("t.beta", graph=graph)

        def ordered():
            with alpha:
                with beta:
                    pass

        worker = threading.Thread(target=ordered)
        worker.start()
        worker.join()
        ordered()
        assert graph.find_cycles() == []
        assert len(graph.edges()) == 1  # one A->B witness, deduplicated

    def test_two_thread_inversion_is_caught_deterministically(self):
        """The seeded inversion: two threads, opposite orders, no race.

        Each thread runs to completion before the next starts, so the
        test can never deadlock or flake — yet the order graph still
        contains both ``alpha -> beta`` and ``beta -> alpha``, which
        is exactly what makes lock-order analysis stronger than
        waiting for the bad interleaving.
        """
        graph = LockOrderGraph()
        alpha = instrumented_lock("t.alpha", graph=graph)
        beta = instrumented_lock("t.beta", graph=graph)

        def forward():
            with alpha:
                with beta:
                    pass

        def backward():
            with beta:
                with alpha:
                    pass

        for target in (forward, backward):
            worker = threading.Thread(target=target)
            worker.start()
            worker.join()

        cycles = graph.find_cycles()
        assert len(cycles) == 1
        assert set(cycles[0].path) == {"t.alpha", "t.beta"}
        # The witnesses name both acquisition sites (file:line).
        for witness in cycles[0].witnesses:
            assert "test_sanitizer.py" in witness.src_site
            assert "test_sanitizer.py" in witness.dst_site

    def test_reentrant_hold_is_not_an_ordering(self):
        graph = LockOrderGraph()
        graph.note_acquire("t.rlock", site="x:1")
        graph.note_acquire("t.rlock", site="x:2")
        graph.note_release("t.rlock")
        graph.note_release("t.rlock")
        assert graph.edges() == ()

    def test_edges_record_thread_and_sites(self):
        graph = LockOrderGraph()
        outer = instrumented_lock("t.outer", graph=graph)
        inner = instrumented_lock("t.inner", graph=graph)
        with outer:
            with inner:
                pass
        (edge,) = graph.edges()
        assert edge.src == "t.outer"
        assert edge.dst == "t.inner"
        assert edge.thread == threading.current_thread().name

    def test_instrumented_lock_mirrors_lock_api(self):
        lock = instrumented_lock("t.api", graph=LockOrderGraph())
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()
        assert not lock.acquire(False) or True  # non-blocking path works
        lock.release()


class TestLoopStallProbe:
    def test_blocked_loop_is_flagged_with_handler(self):
        probe = LoopStallProbe(0.1, interval_seconds=0.02)

        async def main():
            probe.attach(asyncio.get_running_loop())
            await asyncio.sleep(0.05)  # let the heartbeat settle
            with probe.step("POST /v1/blocked"):
                time.sleep(0.4)  # deliberately park the loop
            await asyncio.sleep(0.3)  # give the watchdog its recovery beat
            probe.detach()

        asyncio.run(main())
        events = probe.events()
        assert events, "a 0.4s block above a 0.1s threshold must be seen"
        assert events[0].handler == "POST /v1/blocked"
        assert events[0].stalled_seconds >= 0.1

    def test_quiet_loop_records_nothing(self):
        probe = LoopStallProbe(0.2, interval_seconds=0.02)

        async def main():
            probe.attach(asyncio.get_running_loop())
            for _ in range(5):
                await asyncio.sleep(0.01)
            probe.detach()

        asyncio.run(main())
        assert probe.events() == ()

    def test_threshold_must_be_positive(self):
        from repro.core.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            LoopStallProbe(0.0)


class TestResourceLeakTracker:
    def test_unreleased_executor_is_reported(self):
        tracker = ResourceLeakTracker()
        with tracker:
            pool = ThreadPoolExecutor(1)
            try:
                (leak,) = tracker.live()
                assert leak.kind == "ThreadPoolExecutor"
                assert "test_sanitizer.py" in leak.site
                assert leak.pending == {"shutdown"}
                with pytest.raises(SanitizerError):
                    tracker.assert_clean()
            finally:
                pool.shutdown(wait=False)
        assert tracker.live() == ()
        tracker.assert_clean()

    @pytest.mark.skipif(
        _shared_memory is None, reason="no shared memory on this build"
    )
    def test_created_segment_needs_close_and_unlink(self):
        tracker = ResourceLeakTracker()
        with tracker:
            block = _shared_memory.SharedMemory(create=True, size=64)
            try:
                (leak,) = tracker.live()
                assert leak.pending == {"close", "unlink"}
                block.close()
                (leak,) = tracker.live()
                assert leak.pending == {"unlink"}
            finally:
                block.unlink()
        tracker.assert_clean()

    @pytest.mark.skipif(
        _shared_memory is None, reason="no shared memory on this build"
    )
    def test_attached_segment_only_needs_close(self):
        owner = _shared_memory.SharedMemory(create=True, size=64)
        tracker = ResourceLeakTracker()
        try:
            with tracker:
                reader = _shared_memory.SharedMemory(name=owner.name)
                reader.close()
            tracker.assert_clean()
        finally:
            owner.close()
            owner.unlink()

    def test_uninstall_restores_the_classes(self):
        original = ThreadPoolExecutor.__init__
        tracker = ResourceLeakTracker()
        tracker.install()
        assert ThreadPoolExecutor.__init__ is not original
        tracker.uninstall()
        assert ThreadPoolExecutor.__init__ is original


class TestSanitizerFixture:
    @pytest.mark.sanitize
    def test_fixture_provides_scoped_probes(self, sanitizer):
        lock = sanitizer.lock("fixture.lock")
        with lock:
            pass
        pool = ThreadPoolExecutor(1)
        pool.shutdown(wait=False)
        assert sanitizer.graph.find_cycles() == []


@pytest.mark.sanitize
class TestSmokeHarness:
    def test_seeded_inversion_turns_the_report_dirty(self):
        """End-to-end: the planted inversion must fail the smoke run
        and the report must name the cycle path."""
        from repro.devtools.sanitizer.harness import (
            _scenario_seeded_inversion,
        )

        graph = LockOrderGraph()
        _scenario_seeded_inversion(graph)
        cycles = graph.find_cycles()
        assert len(cycles) == 1
        assert set(cycles[0].path) == {"seeded.alpha", "seeded.beta"}

    def test_report_verdict_logic(self):
        clean = SanitizeReport(mode="smoke")
        assert clean.ok
        dirty = SanitizeReport(
            mode="smoke", lock_cycles=[{"path": ["a", "b"], "witnesses": []}]
        )
        assert not dirty.ok
        failed_tests = SanitizeReport(
            mode="full", tests={"returncode": 1}
        )
        assert not failed_tests.ok
        assert "DIRTY" in dirty.render_text()

    def test_smoke_run_is_clean_on_the_shipped_tree(self):
        report = run_smoke(stall_threshold_seconds=5.0)
        assert report.errors == []
        assert report.ok, report.render_text()

    def test_stream_scenario_leaves_nothing_behind(self):
        from repro.devtools.sanitizer.harness import (
            _scenario_stream_roundtrip,
        )

        assert _scenario_stream_roundtrip(LockOrderGraph()) == []

    def test_stream_scenario_reports_a_live_runner(self, monkeypatch):
        """An abort that forgets the runner shows up as thread leaks."""
        from repro.core.stream import StreamingWriter
        from repro.devtools.sanitizer.harness import (
            _scenario_stream_roundtrip,
        )

        monkeypatch.setattr(StreamingWriter, "_stop", lambda _w: None)
        left = _scenario_stream_roundtrip(LockOrderGraph())
        assert {leak["kind"] for leak in left} == {"thread"}
        # The dropped writer's finalizer still ends its runner.
        time.sleep(0.2)
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("isobar-stream")
        ]

    def test_smoke_run_with_seed_reports_the_cycle(self):
        report = run_smoke(
            seed_inversion=True, stall_threshold_seconds=5.0
        )
        assert not report.ok
        (cycle,) = report.lock_cycles
        assert set(cycle["path"]) == {"seeded.alpha", "seeded.beta"}
