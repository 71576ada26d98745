"""Tests for the pipelined block-worker engine.

The properties under test are the engine's contract: ordered
reassembly under adversarial worker scheduling, the ``max_inflight``
backpressure bound, error containment (a failing block surfaces its
exception in order without killing the engine), producer-exception
relay, and prompt cancellation.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.pipeline_engine import (
    PipelinedBlockRunner,
    default_max_inflight,
)


def _run(runner, jobs, fn):
    """Drain a runner, asserting every block succeeded; return values."""
    values = []
    for block in runner.run(jobs, fn):
        assert block.error is None, block.error
        values.append(block.value)
    return values


class TestOrderedReassembly:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_workers", [2, 3, 5])
    def test_results_in_submission_order_despite_slow_workers(
        self, seed, n_workers
    ):
        """Seeded adversarial scheduling: per-block sleeps drawn from a
        seeded RNG force every completion-order permutation the host
        will give us; output order must not change."""
        import random

        rng = random.Random(seed)
        delays = [rng.uniform(0.0, 0.01) for _ in range(20)]

        def fn(seq, job):
            time.sleep(delays[seq])
            return job * job

        runner = PipelinedBlockRunner(n_workers)
        out = _run(runner, range(20), fn)
        assert out == [i * i for i in range(20)]

    def test_sequence_numbers_match_positions(self):
        runner = PipelinedBlockRunner(3)
        blocks = list(runner.run("abcdef", lambda seq, ch: ch))
        assert [b.seq for b in blocks] == list(range(6))
        assert "".join(b.value for b in blocks) == "abcdef"

    def test_empty_job_stream(self):
        runner = PipelinedBlockRunner(2)
        assert list(runner.run([], lambda s, j: j)) == []

    def test_single_worker_degenerates_to_serial_order(self):
        runner = PipelinedBlockRunner(1)
        assert _run(runner, range(10), lambda s, j: j + 1) == list(
            range(1, 11)
        )


class TestBackpressure:
    def test_peak_inflight_bounded_by_max_inflight(self):
        """A slow consumer must stall the feeder: fed-but-unconsumed
        blocks never exceed ``max_inflight`` even with eager workers."""
        runner = PipelinedBlockRunner(4, max_inflight=3)
        for block in runner.run(range(40), lambda s, j: j):
            assert block.error is None
            time.sleep(0.002)  # consumer is the bottleneck
        assert runner.stats.fed_blocks == 40
        assert runner.stats.consumed_blocks == 40
        assert runner.stats.peak_inflight <= 3

    def test_peak_inflight_bounds_buffered_bytes(self):
        """The engine's memory story: peak buffered payload is at most
        ``max_inflight`` blocks, so bytes ≤ max_inflight × block size."""
        block_bytes = 64 * 1024
        runner = PipelinedBlockRunner(4, max_inflight=2)
        live = []
        peak_live_bytes = 0
        for block in runner.run(
            range(30), lambda s, j: bytes(block_bytes)
        ):
            live.append(block.value)
            time.sleep(0.001)
            live.pop(0)
        assert runner.stats.peak_inflight <= 2
        peak_live_bytes = runner.stats.peak_inflight * block_bytes
        assert peak_live_bytes <= 2 * block_bytes

    def test_default_max_inflight(self):
        assert default_max_inflight(1) == 4
        assert default_max_inflight(2) == 4
        assert default_max_inflight(8) == 16
        runner = PipelinedBlockRunner(3)
        assert runner.max_inflight == default_max_inflight(3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PipelinedBlockRunner(0)
        with pytest.raises(ConfigurationError):
            PipelinedBlockRunner(2, max_inflight=0)


class TestErrorContainment:
    def test_failing_block_surfaces_in_order(self):
        def fn(seq, job):
            if seq == 3:
                raise ValueError("block 3 is poisoned")
            return job

        runner = PipelinedBlockRunner(2)
        blocks = list(runner.run(range(6), fn))
        assert [b.seq for b in blocks] == list(range(6))
        assert [b.error is None for b in blocks] == [
            True, True, True, False, True, True,
        ]
        assert isinstance(blocks[3].error, ValueError)

    def test_producer_exception_relayed_after_fed_blocks(self):
        def jobs():
            yield 1
            yield 2
            raise RuntimeError("producer died")

        runner = PipelinedBlockRunner(2)
        got = []
        with pytest.raises(RuntimeError, match="producer died"):
            for block in runner.run(jobs(), lambda s, j: j * 10):
                got.append(block.value)
        assert got == [10, 20]

    def test_run_twice_rejected(self):
        runner = PipelinedBlockRunner(1)
        list(runner.run([1], lambda s, j: j))
        with pytest.raises(ConfigurationError):
            runner.run([2], lambda s, j: j)


class TestCancellation:
    def test_cancel_stops_queued_jobs(self):
        """cancel() preserves ``cancel_futures`` semantics: running
        blocks finish, queued blocks never start."""
        started = []
        lock = threading.Lock()

        def fn(seq, job):
            with lock:
                started.append(seq)
            time.sleep(0.005)
            return job

        runner = PipelinedBlockRunner(2, max_inflight=2)
        iterator = runner.run(range(100), fn)
        first = next(iterator)
        assert first.seq == 0
        runner.cancel()
        # Drain whatever was already in flight; must terminate.
        list(iterator)
        assert len(started) < 100
        assert runner.stats.fed_blocks < 100

    def test_abandoning_iterator_joins_threads(self):
        before = threading.active_count()
        runner = PipelinedBlockRunner(3)
        iterator = runner.run(range(50), lambda s, j: j)
        next(iterator)
        iterator.close()
        deadline = time.time() + 5.0
        while threading.active_count() > before and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before


class TestInstrumentation:
    def test_worker_wait_seconds_tracked_per_worker(self):
        runner = PipelinedBlockRunner(2)
        _run(runner, range(8), lambda s, j: j)
        waits = runner.stats.worker_wait_seconds
        assert set(waits) == {0, 1}
        assert all(w >= 0.0 for w in waits.values())

    def test_engine_records_gauges_when_instrumented(self):
        from repro.observability import to_prometheus_text
        from repro.observability.instruments import PipelineInstruments
        from repro.observability.registry import MetricsRegistry

        registry = MetricsRegistry()
        instruments = PipelineInstruments(registry)
        runner = PipelinedBlockRunner(2, instruments=instruments)
        _run(runner, range(10), lambda s, j: j)
        exported = to_prometheus_text(registry)
        assert "isobar_parallel_inflight_blocks" in exported
        assert "isobar_parallel_worker_wait_seconds_total" in exported
        assert "isobar_parallel_queue_depth" in exported



class TestEagerStart:
    """``run`` starts the threads itself, so a caller can feed jobs
    before it wants any result (the pipelined stream writer does)."""

    def test_workers_run_before_the_first_result_is_taken(self):
        ran = threading.Event()
        runner = PipelinedBlockRunner(2)
        results = runner.run([7], lambda _s, job: ran.set() or job)
        assert ran.wait(5.0)
        assert [block.value for block in results] == [7]

    def test_ready_reports_a_parked_result(self):
        gate = threading.Event()
        runner = PipelinedBlockRunner(1)
        results = runner.run([3], lambda _s, job: gate.wait(5.0) and job)
        assert not runner.ready()
        gate.set()
        deadline = time.monotonic() + 5.0
        while not runner.ready() and time.monotonic() < deadline:
            time.sleep(0.001)
        assert runner.ready()
        assert next(results).value == 3

    def test_closing_an_untouched_iterator_joins_the_threads(self):
        runner = PipelinedBlockRunner(2, name="isobar-eager-close")
        results = runner.run(range(10), lambda _s, job: job)
        results.close()
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("isobar-eager-close")
        ]
