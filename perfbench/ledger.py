"""Span ledger: per-layer timing recorded from the benchmark's side.

A traced run wraps the public entry points of each layer of the
package with span recorders and removes them again afterwards; nothing
in ``src/`` is modified.  Every span records its layer, the function,
the thread, its start and end, and its *self* time: its duration minus
the spans nested directly inside it on the same thread.  It also
records the thread CPU time it used outside those spans, its busy
time, which leaves out time the thread spent blocked (waiting for a
worker, a lock or the disk).  Summed per layer, self and busy time add
up over all threads; the union of a layer's span intervals gives the
wall time it covered.  They differ when workers run a layer
concurrently.

The selector's probe compresses and partitions trial samples.  Those
calls are attributed to the selector: nothing nested inside a selector
span records a span of its own, and each trial compression is counted
as ``selector.trials``.

Layers are named after the modules they wrap (see :data:`LAYER_MODULES`).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Layer name -> the modules whose entry points it wraps.
LAYER_MODULES = {
    "analyzer": "core.analyzer",
    "selector": "core.selector",
    "partitioner": "core.partitioner, core.workspace",
    "solver": "codecs",
    "pipeline": "core.pipeline",
    "engine": "core.parallel, core.pipeline_engine",
    "stream": "core.stream",
    "reader": "core.random_access",
    "service": "service",
}
LAYERS = tuple(LAYER_MODULES)

#: Layer of the benchmark's own root span around each timed operation;
#: its self time is the part of the operation no layer accounts for.
ROOT = "bench"


@dataclass(frozen=True)
class Span:
    layer: str
    name: str
    #: The input the benchmark was working on when the span closed.
    label: str
    thread: int
    start: float
    end: float
    self_s: float
    #: Thread CPU seconds outside the nested spans.
    busy_s: float
    #: True when no other span enclosed it on its thread.
    top: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("layer", "child_s", "child_cpu")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_s = 0.0
        self.child_cpu = 0.0


class Ledger:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: Per-label facts the wrappers read off results (exact counts).
        self.facts: dict[str, dict[str, int]] = {}
        #: Set by the benchmark before each operation.
        self.label = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self) -> str | None:
        """Layer of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1].layer if stack else None

    def count(self, key: str, n: int | float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def note(self, label: str, key: str, value: int) -> None:
        """Record an exact per-label fact (last value wins)."""
        with self._lock:
            self.facts.setdefault(label, {})[key] = value

    def call(self, layer: str, name: str, fn: Callable, *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span, unless the selector owns this time."""
        stack = self._stack()
        if stack and stack[-1].layer == "selector":
            return fn(*args, **kwargs)
        frame = _Frame(layer)
        stack.append(frame)
        cpu_start = time.thread_time()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu_start
            stack.pop()
            duration = end - start
            if stack:
                stack[-1].child_s += duration
                stack[-1].child_cpu += cpu
            self.spans.append(
                Span(layer, name, self.label, threading.get_ident(),
                     start, end, duration - frame.child_s,
                     cpu - frame.child_cpu, not stack)
            )

    def root(self, kind: str, fn: Callable, *args: Any) -> Any:
        """Run one timed benchmark operation under a root span."""
        return self.call(ROOT, kind, fn, *args)

    # -- installing wrappers --------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, original: Callable, wrapper: Callable) -> None:
        """Point every ``repro`` module's reference at ``wrapper``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            names = [k for k, v in vars(module).items() if v is original]
            for name in names:
                self._set(module, name, wrapper)

    def _wrap(self, layer: str, fn: Callable,
              after: Callable[..., None] | None = None) -> Callable:
        name = fn.__qualname__
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inside_selector = ledger.current_layer() == "selector"
            result = ledger.call(layer, name, fn, *args, **kwargs)
            if after is not None and not inside_selector:
                after(args, result)
            return result

        return wrapper

    def _wrap_iterator(self, layer: str, fn: Callable) -> Callable:
        """Time each step of the generator ``fn`` returns."""
        name = fn.__qualname__
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            done = object()
            while True:
                item = ledger.call(layer, name, next, inner, done)
                if item is done:
                    return
                yield item

        return wrapper

    def _wrap_codec(self, fn: Callable) -> Callable:
        name = fn.__qualname__
        compressing = fn.__name__ == "compress"
        ledger = self

        @functools.wraps(fn)
        def wrapper(codec: Any, data: Any) -> Any:
            if ledger.current_layer() == "selector":
                if compressing:
                    ledger.count("selector.trials")
                return fn(codec, data)
            result = ledger.call("solver", name, fn, codec, data)
            raw = data if compressing else result
            ledger.count("solver.raw_bytes", len(raw))
            return result

        return wrapper

    def _wrap_counter(self, fn: Callable,
                      after: Callable[..., None]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent per install)."""
        from repro.codecs import standard
        from repro.core import analyzer, partitioner, pipeline, random_access
        from repro.core import selector, stream, workspace
        from repro.core.parallel import ParallelIsobarCompressor
        from repro.service.client import ServiceClient

        if self._undo:
            return
        # analyze() delegates to analyze_matrix(), so wrapping the latter
        # covers both without counting a call twice.
        self._replace_function(analyzer.analyze_matrix, self._wrap(
            "analyzer", analyzer.analyze_matrix,
            lambda args, _r: self.count("analyzer.bytes", args[0].nbytes),
        ))
        self._set(selector.EupaSelector, "select", self._wrap(
            "selector", selector.EupaSelector.select,
            lambda _a, _r: self.count("selector.decisions"),
        ))
        for fn in (partitioner.partition, partitioner.reassemble_matrix):
            self._replace_function(fn, self._wrap("partitioner", fn))
        self._set(workspace.ChunkWorkspace, "partition_streams", self._wrap(
            "partitioner", workspace.ChunkWorkspace.partition_streams
        ))
        for codec_cls in (standard.ZlibCodec, standard.Bzip2Codec,
                          standard.LzmaCodec):
            for attr in ("compress", "decompress"):
                self._set(codec_cls, attr,
                          self._wrap_codec(getattr(codec_cls, attr)))
        for fn in (pipeline.encode_chunk_payload,
                   pipeline.decode_chunk_payload):
            self._replace_function(fn, self._wrap(
                "pipeline", fn, lambda _a, _r: self.count("pipeline.chunks")
            ))
        for cls, layer in ((pipeline.IsobarCompressor, "pipeline"),
                           (ParallelIsobarCompressor, "engine")):
            self._set(cls, "compress_detailed", self._wrap(
                layer, cls.compress_detailed, self._after_compress
            ))
            self._set(cls, "decompress", self._wrap(
                layer, cls.decompress,
                self._after_runner if layer == "engine" else None,
            ))
        self._set(stream.StreamingWriter, "write_chunk",
                  self._wrap("stream", stream.StreamingWriter.write_chunk))
        self._set(stream.StreamingWriter, "close",
                  self._wrap("stream", stream.StreamingWriter.close))
        self._replace_function(
            stream.stream_decompress,
            self._wrap_iterator("stream", stream.stream_decompress),
        )
        self._set(random_access.ContainerFile, "__init__", self._wrap(
            "reader", random_access.ContainerFile.__init__, self._after_open
        ))
        base = random_access._RangeReaderBase
        for attr in ("read_range", "element", "read_chunk"):
            self._set(base, attr, self._wrap_read(getattr(base, attr)))
        for cls in (random_access.ContainerFile, random_access.ContainerReader):
            self._set(cls, "_load_chunk", self._wrap_counter(
                cls._load_chunk, self._after_load
            ))
        self._set(random_access._ChunkCache, "get", self._wrap_counter(
            random_access._ChunkCache.get, self._after_cache_get
        ))
        for attr in ("compress", "decompress"):
            self._set(ServiceClient, attr,
                      self._wrap("service", getattr(ServiceClient, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- result hooks ---------------------------------------------------

    def _after_compress(self, args: tuple, result: Any) -> None:
        self.count("compress.noise_bytes", result.noise_bytes)
        self.count("compress.raw_bytes", result.original_bytes)
        self.note(self.label, "overhead_bytes",
                  result.container_overhead_bytes)
        self._after_runner(args, result)

    def _after_runner(self, args: tuple, _result: Any) -> None:
        stats = getattr(args[0], "last_runner_stats", None)
        if stats is None:
            return
        with self._lock:
            self.counts["engine.worker_wait_s"] += sum(
                stats.worker_wait_seconds.values()
            )
            self.counts["engine.peak_inflight"] = max(
                self.counts["engine.peak_inflight"], stats.peak_inflight
            )

    def _after_open(self, args: tuple, _result: Any) -> None:
        self.count("reader.opens")
        if args[0].opened_via == "footer":
            self.count("reader.footer_opens")

    def _wrap_read(self, fn: Callable) -> Callable:
        """Reader queries; nested ``read_chunk`` calls are not reads."""
        name = fn.__qualname__
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = ledger.current_layer() != "reader"
            result = ledger.call("reader", name, fn, *args, **kwargs)
            if outer:
                ledger.count("reader.reads")
                ledger.count("reader.returned_elements",
                             getattr(result, "size", 1))
            return result

        return wrapper

    def _after_load(self, args: tuple, _result: Any) -> None:
        self.count("reader.chunks_decoded")
        self.count("reader.decoded_elements", args[1].n_elements)

    def _after_cache_get(self, _args: tuple, result: Any) -> None:
        self.count("reader.cache_lookups")
        if result is not None:
            self.count("reader.cache_hits")


def union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total
