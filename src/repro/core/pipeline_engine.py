"""Pipelined block-worker execution engine for chunk parallelism.

The ISOBAR workflow compresses chunks independently (Section II-D), so
chunk work maps onto a classic compression pipeline: a bounded feed
queue of sequence-numbered jobs, ``n_workers`` worker threads that run
the (GIL-releasing) per-chunk function, and ordered reassembly through
sequence-numbered result slots — the design python-isal's
``igzip_threaded`` proved for DEFLATE streams, generalised over any
block function.

Three properties the engine guarantees:

* **Bounded memory.**  At most ``max_inflight`` blocks are fed but not
  yet consumed (queued + being worked + parked in result slots), so an
  arbitrarily long job stream never buffers more than a fixed number
  of chunks no matter how the workers and the consumer interleave.
* **Ordered reassembly.**  Results are yielded strictly in submission
  order regardless of worker completion order; a fast block parked in
  its slot waits for its slower predecessors.
* **Prompt cancellation.**  :meth:`PipelinedBlockRunner.cancel` (and
  abandoning the result iterator) stops the feeder and discards queued
  jobs; blocks already being worked finish, nothing queued starts —
  exactly ``ThreadPoolExecutor.shutdown(cancel_futures=True)``
  semantics, which the resilience layer's fail-fast contract relies
  on.

Worker exceptions never kill the engine: each failed block surfaces as
a :class:`BlockResult` carrying the original exception, in order, so
the consumer decides per block whether to retry, degrade or abort.

A block function may split its own work further with
:func:`share_blocks`: on a runner worker, the runner's idle workers
claim parts of it (ahead of queued jobs) while the calling worker
runs every part nobody has claimed.  No thread is added, so at most
``n_workers`` threads ever compute.

With a bound :class:`~repro.observability.instruments.PipelineInstruments`
the engine exports per-worker wait-time counters and feed-queue /
in-flight gauges (see ``docs/observability.md``); without one the hot
path records nothing.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Generator,
    Generic,
    Iterable,
    Protocol,
    Sequence,
    TypeVar,
    cast,
)

from repro.core.exceptions import ConfigurationError

__all__ = [
    "BlockResult",
    "PipelinedBlockRunner",
    "RunnerStats",
    "default_max_inflight",
    "share_blocks",
    "usable_cpus",
]

JobT = TypeVar("JobT")
ResultT = TypeVar("ResultT")
ItemT = TypeVar("ItemT")
PartT = TypeVar("PartT")

#: Slot marker for a job discarded after cancel() (never yielded).
_CANCELLED: Any = object()
#: The board of the runner whose job this thread is running, if any.
_running = threading.local()


def default_max_inflight(n_workers: int) -> int:
    """The default backpressure bound for ``n_workers`` workers.

    Two blocks per worker keeps every worker busy while the consumer
    drains the previous result, without buffering a long tail of
    completed blocks; a floor of 4 keeps tiny pools pipelined.
    """
    return max(2 * n_workers, 4)


def usable_cpus() -> int:
    """CPUs this process may run on: the default engine worker count.

    The scheduler affinity mask where the platform has one (it honours
    ``taskset`` and container CPU sets), else the machine's CPU count;
    never less than 1.
    """
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:
        return max(os.cpu_count() or 1, 1)


class _EngineInstruments(Protocol):
    """The slice of ``PipelineInstruments`` the engine records into."""

    parallel_queue_depth: Any
    parallel_inflight_blocks: Any
    parallel_worker_wait_seconds: Any


@dataclass(frozen=True)
class BlockResult(Generic[ResultT]):
    """One block's outcome, yielded in submission order.

    Exactly one of ``value`` / ``error`` is meaningful: ``error`` is
    ``None`` for a successful block, else the exception the block
    function raised (the value is then unset).
    """

    seq: int
    value: ResultT | None = None
    error: BaseException | None = None


@dataclass
class RunnerStats:
    """Engine-side accounting, readable after (or during) a run."""

    #: Blocks fed to workers so far.
    fed_blocks: int = 0
    #: Blocks the consumer has taken back out, in order.
    consumed_blocks: int = 0
    #: High-water mark of blocks in flight (fed - consumed).
    peak_inflight: int = 0
    #: Seconds workers spent blocked waiting for the feed queue.
    worker_wait_seconds: dict[int, float] = field(default_factory=dict)


class _OrderedSlots:
    """Sequence-numbered result slots with in-order retrieval.

    Workers deposit results under their block's sequence number in any
    order; the consumer blocks until the *next* sequence number is
    present.  The slot dict never grows past the engine's in-flight
    bound, because the feeder cannot run ahead of the consumer by more
    than ``max_inflight`` blocks.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._slots: dict[int, Any] = {}
        self._next = 0

    def put(self, seq: int, item: Any) -> None:
        with self._cond:
            self._slots[seq] = item
            if seq == self._next:
                self._cond.notify_all()

    def get_next(self) -> Any:
        with self._cond:
            while self._next not in self._slots:
                self._cond.wait()
            item = self._slots.pop(self._next)
            self._next += 1
            return item

    def ready(self) -> bool:
        """Whether :meth:`get_next` would return without blocking."""
        with self._cond:
            return self._next in self._slots


class _SharedWork:
    """One :func:`share_blocks` call: items handed out in order."""

    def __init__(self, fn: Callable[[Any], Any], items: Sequence[Any]):
        self.fn = fn
        self.items = items
        self.results: list[Any] = [None] * len(items)
        self.errors: dict[int, BaseException] = {}
        self.claimed = 0
        self.running = 0


class _Board:
    """A runner's work, under one condition: queued jobs, and the
    :class:`_SharedWork` of running jobs that still has unclaimed
    items.  Idle workers take shared items first (they finish a chunk
    already in flight), then jobs."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.jobs: deque[tuple[int, Any]] = deque()
        self.shared: deque[_SharedWork] = deque()
        #: Jobs being worked (a worker stays while one may share).
        self.busy = 0
        #: The feeder is done: workers leave once nothing is left.
        self.fed = False
        #: The consumer is gone: workers leave once idle.
        self.closed = False

    def claim(self, work: _SharedWork) -> int | None:
        """The next unclaimed item of ``work`` (``cond`` held), else None;
        a failed item stops the hand-out."""
        if work.claimed == len(work.items) or work.errors:
            if work in self.shared:
                self.shared.remove(work)
            return None
        index = work.claimed
        work.claimed += 1
        work.running += 1
        if work.claimed == len(work.items):
            self.shared.remove(work)
        return index

    def run(self, work: _SharedWork, index: int) -> None:
        """Run one claimed item and record its outcome."""
        error: BaseException | None = None
        try:
            work.results[index] = work.fn(work.items[index])
        except BaseException as exc:  # noqa: BLE001 - re-raised by the owner
            error = exc
        with self.cond:
            if error is not None:
                work.errors[index] = error
            work.running -= 1
            self.cond.notify_all()

    def share(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Run ``fn`` over ``items`` with the help of idle workers."""
        work = _SharedWork(fn, items)
        with self.cond:
            self.shared.append(work)
            self.cond.notify_all()
        while True:
            with self.cond:
                index = self.claim(work)
            if index is None:
                break
            self.run(work, index)
        with self.cond:
            while work.running:
                self.cond.wait()
        if work.errors:
            raise work.errors[min(work.errors)]
        return work.results


def share_blocks(
    fn: Callable[[ItemT], PartT], items: Sequence[ItemT]
) -> list[PartT]:
    """``[fn(item) for item in items]``, with idle engine workers' help.

    Called from a job running on a :class:`PipelinedBlockRunner`
    worker, the items are offered to that runner's idle workers; the
    calling worker runs every item nobody has claimed, then waits for
    the claimed ones.  Anywhere else (an inline engine, the caller's
    own thread, an item being shared) the items run serially on the
    calling thread.  Results keep the items' order; the first failed
    item's exception is raised.
    """
    board: _Board | None = getattr(_running, "board", None)
    if board is None or len(items) < 2:
        return [fn(item) for item in items]
    return board.share(fn, items)


class PipelinedBlockRunner(Generic[JobT, ResultT]):
    """Queue-fed worker pipeline with ordered, backpressured results.

    Parameters
    ----------
    n_workers:
        Worker threads running the block function.
    max_inflight:
        Backpressure bound: maximum blocks fed but not yet consumed.
        Defaults to :func:`default_max_inflight`.
    name:
        Thread-name prefix, for debuggability.
    instruments:
        Optional :class:`~repro.observability.instruments.PipelineInstruments`;
        when given, the engine records the feed-queue depth gauge, the
        in-flight gauge and per-worker wait-time counters.

    Usage::

        runner = PipelinedBlockRunner(n_workers=4, max_inflight=8)
        for result in runner.run(jobs, fn):
            if result.error is not None:
                runner.cancel()          # queued jobs never start
                raise result.error
            consume(result.value)

    ``run`` may be called once per runner instance.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        max_inflight: int | None = None,
        name: str = "isobar-pipe",
        instruments: _EngineInstruments | None = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be positive, got {n_workers}"
            )
        if max_inflight is None:
            max_inflight = default_max_inflight(n_workers)
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        self._n_workers = n_workers
        self._max_inflight = max_inflight
        self._name = name
        self._instruments = instruments
        self._stop = threading.Event()
        self._started = False
        self._slots: _OrderedSlots | None = None
        self.stats = RunnerStats(
            worker_wait_seconds={i: 0.0 for i in range(n_workers)}
        )

    @property
    def n_workers(self) -> int:
        """Configured worker-thread count."""
        return self._n_workers

    @property
    def max_inflight(self) -> int:
        """Configured backpressure bound (blocks fed but unconsumed)."""
        return self._max_inflight

    def cancel(self) -> None:
        """Stop feeding and discard queued jobs.

        Blocks already being worked finish (their results are simply
        never consumed); queued blocks are dropped without running.
        Idempotent and thread-safe.
        """
        self._stop.set()

    def run(
        self,
        jobs: Iterable[JobT],
        fn: Callable[[int, JobT], ResultT],
    ) -> Generator[BlockResult[ResultT], None, None]:
        """Feed ``jobs`` through the workers; yield ordered results.

        ``fn`` is called as ``fn(seq, job)`` on a worker thread.  The
        threads start before ``run`` returns, so a caller may feed
        ``jobs`` while results are not yet wanted (the streaming writer
        does).  The returned iterator owns the threads: exhausting it,
        closing it, or leaving it to be garbage collected joins them.
        An exception raised by the ``jobs`` iterable itself surfaces
        (re-raised at the consumer) after every previously fed block's
        result.
        """
        if self._started:
            raise ConfigurationError("runner.run() may only be called once")
        self._started = True
        results = self._run(jobs, fn)
        next(results)  # start the threads; the iterator now owns them
        return cast("Generator[BlockResult[ResultT], None, None]", results)

    def ready(self) -> bool:
        """Whether the next ordered result is parked, so taking it from
        the iterator :meth:`run` returned will not block."""
        return self._slots is not None and self._slots.ready()

    # -- internals --------------------------------------------------------

    def _record_depth(self, board: _Board) -> None:
        if self._instruments is not None:
            self._instruments.parallel_queue_depth.set(
                len(board.jobs), queue="feed"
            )

    def _record_inflight(self, inflight: int) -> None:
        if inflight > self.stats.peak_inflight:
            self.stats.peak_inflight = inflight
        if self._instruments is not None:
            self._instruments.parallel_inflight_blocks.set(inflight)

    def _run(
        self,
        jobs: Iterable[JobT],
        fn: Callable[[int, JobT], ResultT],
    ) -> Generator[BlockResult[ResultT] | None, None, None]:
        board = _Board()
        cond = board.cond
        slots = self._slots = _OrderedSlots()
        sem = threading.Semaphore(self._max_inflight)
        stop = self._stop
        stats = self.stats
        stats_lock = threading.Lock()

        def _feed() -> None:
            seq = 0
            end_item: tuple[str, Any] = ("end", None)
            try:
                for job in jobs:
                    # The semaphore is the backpressure valve: it only
                    # frees up when the consumer takes a result out, so
                    # fed-but-unconsumed blocks never exceed the bound.
                    while not sem.acquire(timeout=0.05):
                        if stop.is_set():
                            break
                    if stop.is_set():
                        break
                    with cond:
                        board.jobs.append((seq, job))
                        cond.notify()
                    with stats_lock:
                        stats.fed_blocks += 1
                        self._record_inflight(
                            stats.fed_blocks - stats.consumed_blocks
                        )
                    self._record_depth(board)
                    seq += 1
            except BaseException as exc:  # noqa: BLE001 - relayed in order
                end_item = ("producer_error", exc)
            slots.put(seq, end_item)
            with cond:
                board.fed = True
                cond.notify_all()

        def _next_task() -> tuple[Any, Any] | None:
            """Wait for a shared item ``(work, index)``, else a job
            ``(seq, job)`` (``cond`` held); None when the worker should
            exit."""
            while True:
                if board.shared:
                    work = board.shared[0]
                    index = board.claim(work)
                    if index is not None:
                        return work, index
                elif board.jobs and not board.closed:
                    board.busy += 1
                    return board.jobs.popleft()
                elif board.closed or (board.fed and not board.busy):
                    return None
                else:
                    cond.wait()

        def _work(worker_index: int) -> None:
            while True:
                wait_start = time.perf_counter()
                with cond:
                    task = _next_task()
                waited = time.perf_counter() - wait_start
                with stats_lock:
                    stats.worker_wait_seconds[worker_index] += waited
                if self._instruments is not None:
                    self._instruments.parallel_worker_wait_seconds.inc(
                        waited, worker=str(worker_index)
                    )
                if task is None:
                    return
                if isinstance(task[0], _SharedWork):
                    board.run(task[0], task[1])
                    continue
                self._record_depth(board)
                seq, job = task
                try:
                    if stop.is_set():
                        # cancel(): queued work must not start, but the
                        # consumer may still be draining — park a marker
                        # so no sequence number is awaited forever.
                        slots.put(seq, ("cancelled", _CANCELLED))
                        continue
                    _running.board = board
                    try:
                        value = fn(seq, job)
                    except BaseException as exc:  # noqa: BLE001 - containment
                        slots.put(seq, ("result", BlockResult(seq, error=exc)))
                    else:
                        slots.put(seq, ("result", BlockResult(seq, value=value)))
                    finally:
                        _running.board = None
                finally:
                    with cond:
                        board.busy -= 1
                        cond.notify_all()

        threads = [
            threading.Thread(
                target=_feed, name=f"{self._name}-feeder", daemon=True
            )
        ]
        threads.extend(
            threading.Thread(
                target=_work, args=(i,),
                name=f"{self._name}-worker-{i}", daemon=True,
            )
            for i in range(self._n_workers)
        )
        for thread in threads:
            thread.start()
        try:
            yield None  # primed by run()
            while True:
                kind, item = slots.get_next()
                if kind == "end":
                    return
                if kind == "producer_error":
                    raise item
                if kind == "cancelled":
                    return
                with stats_lock:
                    stats.consumed_blocks += 1
                    self._record_inflight(
                        stats.fed_blocks - stats.consumed_blocks
                    )
                sem.release()
                yield item
        finally:
            stop.set()
            # Queued jobs never start; idle workers leave at once, busy
            # ones after their job.
            with cond:
                board.closed = True
                board.jobs.clear()
                cond.notify_all()
            for thread in threads:
                thread.join(timeout=5.0)
            if self._instruments is not None:
                self._instruments.parallel_queue_depth.set(0, queue="feed")
                self._instruments.parallel_inflight_blocks.set(0)
