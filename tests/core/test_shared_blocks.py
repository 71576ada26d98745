"""Shared blocks: a running job splits its work over idle engine workers.

``share_blocks`` is the engine side (idle workers of the job's runner
claim items; the job's own worker runs the rest), ``Bzip2Codec`` the
one user: an input longer than one bzip2 block is compressed block by
block and spliced into exactly the stream ``bz2.compress`` writes.
"""

import bz2
import sys
import threading
import time

import numpy as np
import pytest

from repro.codecs import standard
from repro.codecs.standard import Bzip2Codec, bzip2_block_starts
from repro.core.pipeline import IsobarCompressor
from repro.core.pipeline_engine import PipelinedBlockRunner, share_blocks
from repro.core.preferences import IsobarConfig

#: RLE1 bytes that close a level-1 bzip2 block.
LIMIT = 100_000 - 19
#: Marks the first byte of a block whose solve the tests make fail.
MARKER = 9


def _run_free(n, seed=0):
    """``n`` bytes from 0-3 in which no byte repeats its predecessor:
    level-1 blocks then start every ``LIMIT`` bytes."""
    steps = np.random.default_rng(seed).integers(1, 4, n)
    return (np.cumsum(steps) % 4).astype(np.uint8)


def _blocks(n_blocks, seed=0, marked=()):
    """Run-free bytes making ``n_blocks`` level-1 blocks (the last one
    half full); blocks listed in ``marked`` start with ``MARKER``."""
    data = _run_free(int((n_blocks - 0.5) * LIMIT), seed)
    for block in marked:
        data[block * LIMIT] = MARKER
    return data


def _runner_results(runner, jobs, fn):
    return list(runner.run(jobs, fn))


class TestShareBlocks:
    def test_serial_off_the_runner(self):
        threads = share_blocks(lambda _: threading.get_ident(), range(4))
        assert threads == [threading.get_ident()] * 4

    def test_idle_worker_helps_in_order(self):
        def part(item):
            time.sleep(0.02)
            return item, threading.get_ident()

        runner = PipelinedBlockRunner(2)
        [block] = _runner_results(
            runner, [range(6)], lambda _s, items: share_blocks(part, items)
        )
        assert [item for item, _ in block.value] == list(range(6))
        assert len({thread for _, thread in block.value}) == 2

    def test_failed_item_is_its_jobs_error(self):
        def part(item):
            if item == (1, 2):
                raise ValueError("item 2 of job 1")
            return item

        def job(seq, n):
            return share_blocks(part, [(seq, i) for i in range(n)])

        blocks = _runner_results(PipelinedBlockRunner(2), [4, 4, 4], job)
        assert [b.error is None for b in blocks] == [True, False, True]
        assert str(blocks[1].error) == "item 2 of job 1"
        assert blocks[2].value == [(2, i) for i in range(4)]

    def test_concurrent_work_never_exceeds_workers(self):
        active = peak = 0
        lock = threading.Lock()

        def busy():
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.005)
            with lock:
                active -= 1

        def job(_seq, n):
            busy()  # the job's own work, then its shared items
            return share_blocks(lambda _: busy(), range(n))

        runner = PipelinedBlockRunner(2, max_inflight=3)
        assert all(
            b.error is None
            for b in _runner_results(runner, [1, 5, 2, 7, 3, 4, 6], job)
        )
        assert peak == 2

    def test_cancel_with_shared_items_in_flight(self):
        def job(_seq, n):
            return share_blocks(lambda i: time.sleep(0.01) or i, range(n))

        runner = PipelinedBlockRunner(2, max_inflight=2, name="isobar-share")
        results = runner.run([6] * 40, job)
        assert next(results).error is None
        runner.cancel()
        drain = threading.Thread(target=list, args=(results,))
        drain.start()
        drain.join(timeout=10.0)
        assert not drain.is_alive()
        assert runner.stats.fed_blocks < 40
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("isobar-share")
        ]

    def test_stress_more_workers_than_cores(self):
        """Every item of every job runs exactly once, in its job's
        order, under fast thread switching."""
        ran = []

        def part(item):
            ran.append(item)  # list.append is atomic
            return item

        def job(seq, n):
            return share_blocks(part, [(seq, i) for i in range(n)])

        sizes = [1 + seq % 9 for seq in range(300)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = PipelinedBlockRunner(6, max_inflight=8)
            blocks = _runner_results(runner, sizes, job)
        finally:
            sys.setswitchinterval(previous)
        assert [b.value for b in blocks] == [
            [(seq, i) for i in range(n)] for seq, n in enumerate(sizes)
        ]
        assert sorted(ran) == sorted(
            (seq, i) for seq, n in enumerate(sizes) for i in range(n)
        )


@pytest.fixture
def fail_marked_blocks(monkeypatch):
    """Make the libbz2 call fail for blocks starting with ``MARKER``,
    on engine worker threads only (the selector's trials run on the
    caller's thread and stay healthy)."""
    real = standard._bz2_compress

    def flaky(data, level, *args):
        if (
            threading.current_thread().name.startswith("isobar-")
            and len(data) and data[0] == MARKER
        ):
            raise RuntimeError("injected block failure")
        return real(data, level, *args)

    monkeypatch.setattr(standard, "_bz2_compress", flaky)


class TestBzip2Blocks:
    def test_block_starts_of_run_free_input(self):
        assert bzip2_block_starts(_blocks(3), 1) == [0, LIMIT, 2 * LIMIT]

    def test_shared_output_is_the_bz2_stream(self):
        inputs = [_blocks(n, seed=n).tobytes() for n in (1, 2, 3, 4)]
        codec = Bzip2Codec(1)
        runner = PipelinedBlockRunner(2, max_inflight=1)
        shared = _runner_results(runner, inputs, lambda _s, d: codec.compress(d))
        assert [b.value for b in shared] == [bz2.compress(d, 1) for d in inputs]

    def test_failing_block_is_its_chunks_error(self, fail_marked_blocks):
        inputs = [_blocks(3).tobytes(), _blocks(3, marked=[2]).tobytes()]
        codec = Bzip2Codec(1)
        blocks = _runner_results(
            PipelinedBlockRunner(2), inputs, lambda _s, d: codec.compress(d)
        )
        assert blocks[0].value == bz2.compress(inputs[0], 1)
        assert str(blocks[1].error) == "injected block failure"

    def test_failing_block_degrades_its_chunk(self, fail_marked_blocks):
        chunk = int(2.5 * LIMIT)
        values = np.concatenate(
            [_blocks(3, seed=1), _blocks(3, seed=2, marked=[1])]
        )
        config = IsobarConfig(codec="bzip2-1", chunk_elements=chunk)
        result = IsobarCompressor(config, n_workers=2).compress_detailed(
            values
        )
        assert [r.degraded for r in result.chunks] == [False, True]
        assert result.chunks[1].error == "injected block failure"
        restored = IsobarCompressor(config).decompress(result.payload)
        assert np.array_equal(restored, values)

    def test_engine_solves_never_exceed_workers(self, monkeypatch):
        active = peak = 0
        lock = threading.Lock()
        real = standard._bz2_compress

        def counted(data, level, *args):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            try:
                return real(data, level, *args)
            finally:
                with lock:
                    active -= 1

        monkeypatch.setattr(standard, "_bz2_compress", counted)
        values = np.concatenate([_blocks(4, seed=s) for s in range(3)])
        config = IsobarConfig(codec="bzip2-1", chunk_elements=int(3.5 * LIMIT))
        serial = IsobarCompressor(config).compress(values)
        peak = 0
        assert IsobarCompressor(config, n_workers=2).compress(values) == serial
        assert peak == 2


# -- differential fuzz -------------------------------------------------------

#: Run lengths around the RLE1 edges (3/4/5 bytes, the 255-byte cap),
#: long runs rare enough that an input is about 3x its RLE1 coding.
_RUN_LENGTHS = np.array([1, 2, 3, 4, 5, 6, 254, 255, 256, 257, 510, 511])
_RUN_WEIGHTS = np.array([40, 20, 12, 10, 6, 4, .2, .4, .4, .2, .2, .2])


def _rle1_bytes(runs):
    full, rest = np.divmod(runs, 255)
    return 5 * full + np.where(rest >= 4, 5, rest)


def run_structured(seed):
    """``(data, level)``: seeded runs whose RLE1 coding straddles 1-3
    block boundaries at a level from 1 to 9."""
    rng = np.random.default_rng([seed, 0xB21])
    level = int(rng.integers(1, 10))
    limit = 100_000 * level - 19
    target = int(limit * (int(rng.integers(1, 4)) + rng.uniform(0.02, 0.98)))
    weights = _RUN_WEIGHTS / _RUN_WEIGHTS.sum()
    per_run = _rle1_bytes(_RUN_LENGTHS) @ weights
    count = int(target / per_run * 1.2) + 16
    runs = rng.choice(_RUN_LENGTHS, size=count, p=weights)
    steps = rng.integers(1, 256, size=count)
    steps[rng.random(count) < 0.02] = 0  # a run that continues the last
    values = (np.cumsum(steps) % 256).astype(np.uint8)
    end = int(np.searchsorted(np.cumsum(_rle1_bytes(runs)), target)) + 1
    return np.repeat(values[:end], runs[:end]).tobytes(), level


def _differential(seeds):
    """Each seed's input, shared on a 2-worker runner (one chunk at a
    time, so the other worker is idle) and serially: both must be
    ``bz2.compress``'s stream and round-trip; returns the failures."""

    def shared(_seq, seed):
        data, level = run_structured(seed)
        return data, level, Bzip2Codec(level).compress(data)

    failures = []
    runner = PipelinedBlockRunner(2, max_inflight=1)
    for seed, block in zip(seeds, runner.run(seeds, shared)):
        data, level, stream = block.value
        serial = Bzip2Codec(level).compress(data)
        if not (
            stream == serial == bz2.compress(data, level)
            and bz2.decompress(serial) == data
        ):
            failures.append((seed, level, len(data)))
    return failures


def test_differential_smoke():
    """Four cases, always on: keeps the differential check honest."""
    assert _differential(range(4)) == []


@pytest.mark.fuzz
def test_differential_fuzz_200_inputs(request):
    if "fuzz" not in request.config.getoption("markexpr"):
        pytest.skip("several minutes of bzip2; run with -m fuzz")
    assert _differential(range(200)) == []
