"""The benchmark's three workloads, driven through the public API.

Each workload builds its inputs from the seed in :meth:`setup`, then
runs a *phase*: a fixed, seeded schedule of operations repeated until a
deadline.  Every operation is timed and its output checked; a wrong
result or an exception marks the operation failed.  The schedule always
starts from its beginning, so the traced and untraced phases of one
run perform the same operations in the same order.

See ``perfbench/WORKLOADS.md`` for why each workload exists.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
from repro.core.metadata import ContainerHeader
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile
from repro.datasets.synthetic import (
    build_particle_ids,
    build_repetitive,
    build_structured,
)
from repro.service import ServiceClient, ServiceConfig, ServiceThread

from perfbench.ledger import Ledger

MIB = float(1 << 20)

#: The three byte fingerprints: improvable float64 with three noise
#: byte-columns, improvable int64 identifiers, and repetitive float64
#: that the analyzer finds undetermined (the partitioner is bypassed).
FINGERPRINTS: dict[str, Callable[[int, np.random.Generator], np.ndarray]] = {
    "field_f64": lambda n, rng: build_structured(n, np.float64, 3, rng),
    "particles_i64": lambda n, rng: build_particle_ids(n, rng),
    "repetitive_f64": lambda n, rng: build_repetitive(n, np.float64, rng),
}


@dataclass(frozen=True)
class Op:
    """One timed operation and whether its output was correct."""

    kind: str
    label: str
    #: Position in the phase's schedule (equal across phases).
    seq: tuple
    start: float
    seconds: float
    raw_bytes: int
    ok: bool
    error: str | None = None


def same_values(out: Any, expected: np.ndarray) -> bool:
    """Bit-exact equality: dtype, element count and bytes."""
    out = np.asarray(out)
    return (
        out.dtype == expected.dtype
        and out.size == expected.size
        and out.tobytes() == expected.tobytes()
    )


def timed(
    ops: list[Op],
    ledger: Ledger | None,
    kind: str,
    label: str,
    seq: tuple,
    raw_bytes: int,
    fn: Callable[..., Any],
    *args: Any,
    check: Callable[[Any], bool] | None = None,
) -> Any:
    """Run and time one operation; check its result outside the timing.

    Returns the result, or ``None`` when the operation raised.
    """
    start = time.perf_counter()
    try:
        if ledger is None:
            result = fn(*args)
        else:
            result = ledger.root(kind, fn, *args)
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        ops.append(Op(kind, label, seq, start, time.perf_counter() - start,
                      raw_bytes, False, f"{type(exc).__name__}: {exc}"))
        return None
    seconds = time.perf_counter() - start
    ok = check is None or bool(check(result))
    ops.append(Op(kind, label, seq, start, seconds, raw_bytes, ok,
                  None if ok else f"{kind} output differs from its source"))
    return result


def flip_one_byte(container: bytes, seed: int) -> bytes:
    """Flip one seeded byte in the middle half of ``container``."""
    rng = np.random.default_rng([seed, 0xF11F])
    position = int(rng.integers(len(container) // 4, 3 * len(container) // 4))
    damaged = bytearray(container)
    damaged[position] ^= 0xFF
    return bytes(damaged)


def container_choice(container: bytes) -> dict[str, str]:
    """The codec and linearization recorded in a container's header."""
    header, _ = ContainerHeader.decode(container)
    return {"codec": header.codec_name,
            "linearization": header.linearization.value}


class Bulk:
    """Whole arrays through the serial, parallel and streaming paths."""

    name = "bulk"
    loop = "sequential, one caller"
    #: Elements per fingerprint at scale 1.
    SIZES = {"field_f64": 1_500_000, "particles_i64": 3_000_000,
             "repetitive_f64": 500_000}
    WORKERS = 2

    def __init__(self, seed: int, scale: float, workdir: Path,
                 fault: str | None = None):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.fault = fault
        self.arrays: dict[str, np.ndarray] = {}
        self.containers: dict[str, bytes] = {}
        self.choices: dict[str, dict[str, str]] = {}
        self.chunk_elements = IsobarConfig().chunk_elements
        self.parallel: ParallelIsobarCompressor | None = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.arrays = {
            name: build(max(int(self.SIZES[name] * self.scale), 1), rng)
            for name, build in FINGERPRINTS.items()
        }
        self.parallel = ParallelIsobarCompressor(n_workers=self.WORKERS)

    def close(self) -> None:
        pass

    def run_phase(self, deadline: float, ledger: Ledger | None) -> list[Op]:
        ops: list[Op] = []
        rounds = 0
        last = 0.0
        # A round is started only when at most half of it would run
        # past the deadline.
        while rounds == 0 or time.perf_counter() + 0.5 * last <= deadline:
            begin = time.perf_counter()
            for name, values in self.arrays.items():
                self._round(rounds, name, values, ops, ledger)
            last = time.perf_counter() - begin
            rounds += 1
        return ops

    def _round(self, index: int, name: str, values: np.ndarray,
               ops: list[Op], ledger: Ledger | None) -> None:
        assert self.parallel is not None
        if ledger is not None:
            ledger.label = name
        nbytes = values.nbytes

        def same(out: Any) -> bool:
            return same_values(out, values)

        def seq(kind: str) -> tuple:
            return (index, name, kind)

        serial = timed(ops, ledger, "compress", name, seq("compress"), nbytes,
                       repro.compress, values)
        if serial is not None:
            self.containers[name] = serial
            self.choices[name] = container_choice(serial)
            stored = serial
            if self.fault == "flip" and index == 0:
                stored = flip_one_byte(serial, self.seed)
            timed(ops, ledger, "decompress", name, seq("decompress"), nbytes,
                  repro.decompress, stored, check=same)
        expected = self.containers.get(name)
        parallel = timed(ops, ledger, "parallel_compress", name,
                         seq("parallel_compress"), nbytes,
                         self.parallel.compress, values,
                         check=lambda blob: blob == expected)
        if parallel is not None:
            timed(ops, ledger, "parallel_decompress", name,
                  seq("parallel_decompress"), nbytes,
                  self.parallel.decompress, parallel, check=same)
        path = self.workdir / f"{name}.isobar"
        timed(ops, ledger, "stream_compress", name, seq("stream_compress"),
              nbytes, self._stream_write, values, path,
              check=lambda _: path.read_bytes() == expected)
        timed(ops, ledger, "stream_decompress", name,
              seq("stream_decompress"), nbytes, self._stream_read, path,
              check=same)

    def _stream_write(self, values: np.ndarray, path: Path) -> None:
        step = self.chunk_elements
        with repro.open_stream(path, "w", dtype=values.dtype) as writer:
            for start in range(0, values.size, step):
                writer.write_chunk(values[start:start + step])

    @staticmethod
    def _stream_read(path: Path) -> np.ndarray:
        return np.concatenate(list(repro.open_stream(path, "r")))

    def describe(self) -> dict[str, Any]:
        raw = sum(v.nbytes for v in self.arrays.values())
        stored = sum(len(c) for c in self.containers.values())
        return {
            "inputs": {name: {"elements": int(v.size), "dtype": str(v.dtype),
                              "mib": round(v.nbytes / MIB, 2)}
                       for name, v in self.arrays.items()},
            "chunk_elements": self.chunk_elements,
            "parallel_workers": self.WORKERS,
            "choices": self.choices,
            "ratio": raw / stored if stored else None,
        }


class ServiceSmall:
    """Small bodies through an in-process HTTP service, closed loop."""

    name = "service_small"
    loop = "closed"
    #: Body sizes in elements at scale 1, one body of each size per
    #: fingerprint; only the body contents depend on the seed.  Sizes
    #: double so that the nine bodies' latencies stay apart: the median
    #: request is then always a 32k field_f64 body, never a mix of two
    #: bodies whose order swaps with the host's speed.
    SIZES = (16_000, 32_000, 64_000)
    #: Per client: two compress requests, then one decompress request.
    PATTERN = ("compress", "compress", "decompress")
    CLIENT_TIMEOUT_S = 60.0

    def __init__(self, seed: int, scale: float, workdir: Path,
                 fault: str | None = None):
        self.seed = seed
        self.scale = scale
        # One client thread per CPU, and never more than two.
        self.clients = max(1, min(2, len(os.sched_getaffinity(0))))
        self.bodies: list[tuple[str, np.ndarray]] = []
        self.expected: list[bytes] = []
        self.schedule: list[list[int]] = []
        self.handle: ServiceThread | None = None
        self.address: tuple[str, int] = ("", 0)
        self.peak_client_threads = 0
        self.service_stats: dict[str, int] = {}

    def setup(self) -> None:
        self.close()
        rng = np.random.default_rng(self.seed)
        self.bodies = [
            (name, build(max(int(n * self.scale), 1), rng))
            for n in self.SIZES for name, build in FINGERPRINTS.items()
        ]
        self.expected = [repro.compress(values) for _, values in self.bodies]
        self.schedule = [list(rng.permutation(len(self.bodies)))
                         for _ in range(self.clients)]
        self.handle = ServiceThread(ServiceConfig())
        self.address = self.handle.start()

    def close(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None

    def _stats(self) -> dict[str, int]:
        stats = ServiceClient(*self.address, max_retries=0).stats()
        return {"shed": int(stats["shed"]),
                "degraded": int(stats["degraded_responses"])}

    def run_phase(self, deadline: float, ledger: Ledger | None) -> list[Op]:
        if ledger is not None:
            ledger.label = "service"
        before = self._stats()
        ops: list[Op] = []
        threads = [
            threading.Thread(target=self._client, name=f"perfbench-client-{c}",
                             args=(c, deadline, ops, ledger))
            for c in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        self.peak_client_threads = max(
            self.peak_client_threads,
            sum(t.name.startswith("perfbench-client-")
                for t in threading.enumerate()),
        )
        for thread in threads:
            thread.join(max(deadline - time.perf_counter(), 0.0)
                        + self.CLIENT_TIMEOUT_S)
        stuck = sum(thread.is_alive() for thread in threads)
        if stuck:
            ops.append(Op("svc_client", "service", ("stuck",),
                          time.perf_counter(), 0.0, 0, False,
                          f"{stuck} client thread(s) did not finish"))
        after = self._stats()
        for key, value in after.items():
            delta = value - before[key]
            self.service_stats[key] = self.service_stats.get(key, 0) + delta
            if ledger is not None:
                ledger.count(f"service.{key}", delta)
        return ops

    def _client(self, client: int, deadline: float, ops: list[Op],
                ledger: Ledger | None) -> None:
        session = ServiceClient(*self.address, max_retries=0)
        order = self.schedule[client]
        j = 0
        while time.perf_counter() < deadline:
            body = order[(j // len(self.PATTERN)) % len(order)]
            label, values = self.bodies[body]
            expected = self.expected[body]
            if self.PATTERN[j % len(self.PATTERN)] == "compress":
                timed(ops, ledger, "svc_compress", label, (client, j),
                      values.nbytes, session.compress, values,
                      check=lambda out, e=expected: out.payload == e)
            else:
                timed(ops, ledger, "svc_decompress", label, (client, j),
                      values.nbytes, session.decompress, expected,
                      check=lambda out, v=values: same_values(out, v))
            j += 1

    def describe(self) -> dict[str, Any]:
        raw = sum(v.nbytes for _, v in self.bodies)
        stored = sum(len(c) for c in self.expected)
        choices = {}
        for (label, _), container in zip(self.bodies, self.expected):
            choices.setdefault(label, container_choice(container))
        return {
            "inputs": {"bodies": len(self.bodies),
                       "elements": [int(v.size) for _, v in self.bodies],
                       "mib_total": round(raw / MIB, 3)},
            "clients": self.clients,
            "peak_client_threads": self.peak_client_threads,
            "pattern": list(self.PATTERN),
            "choices": choices,
            "service": self.service_stats,
            "ratio": raw / stored if stored else None,
        }


class ArchiveRead:
    """Point and range queries against a multi-chunk archive file."""

    name = "archive_read"
    loop = "sequential sessions, one caller"
    ELEMENTS = 1 << 20
    #: Small chunks, as a random-access archive would use: a cold read
    #: decodes 256 KiB instead of the default chunk's 2.9 MiB.
    CHUNK_ELEMENTS = 1 << 15
    READS_PER_SESSION = 8
    #: Decoded chunks a session's reader may keep; a session touches
    #: more distinct chunks than this, so the cache cannot hold them all.
    CACHE_CHUNKS = 2
    HOT_CHUNKS = 3
    HOT_PROBABILITY = 0.5
    KINDS = ("point", "range", "span")
    KIND_WEIGHTS = (0.3, 0.45, 0.25)

    def __init__(self, seed: int, scale: float, workdir: Path,
                 fault: str | None = None):
        self.seed = seed
        self.scale = scale
        self.path = workdir / "archive.isobar"
        self.values = np.empty(0)
        self.chunk = 1
        self.n_chunks = 0
        self.hot: list[int] = []
        self.choice: dict[str, str] = {}
        self.distinct_chunks: list[int] = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = max(int(self.ELEMENTS * self.scale), 16)
        self.chunk = max(int(self.CHUNK_ELEMENTS * self.scale), 1)
        self.values = FINGERPRINTS["field_f64"](n, rng)
        config = IsobarConfig(chunk_elements=self.chunk)
        with repro.open_stream(self.path, "w", dtype=self.values.dtype,
                               config=config) as writer:
            for start in range(0, n, self.chunk):
                writer.write_chunk(self.values[start:start + self.chunk])
        self.n_chunks = -(-n // self.chunk)
        # Hot chunks are spread evenly; the seed only moves the reads.
        self.hot = sorted({
            int((i + 0.5) * self.n_chunks / self.HOT_CHUNKS)
            for i in range(self.HOT_CHUNKS)
        })
        with open(self.path, "rb") as handle:
            self.choice = container_choice(handle.read(4096))

    def close(self) -> None:
        pass

    def _queries(self, session: int) -> list[tuple[str, int, int]]:
        """The seeded reads of one session: (kind, start, stop)."""
        rng = np.random.default_rng([self.seed, session])
        n = self.values.size
        queries = []
        for _ in range(self.READS_PER_SESSION):
            kind = str(rng.choice(self.KINDS, p=self.KIND_WEIGHTS))
            if rng.random() < self.HOT_PROBABILITY:
                chunk = self.hot[int(rng.integers(len(self.hot)))]
            else:
                chunk = int(rng.integers(self.n_chunks))
            lo = chunk * self.chunk
            hi = min(lo + self.chunk, n)
            if kind == "point":
                start = int(rng.integers(lo, hi))
                queries.append((kind, start, start + 1))
                continue
            length = int(rng.integers(1, max(self.chunk // 4, 2)))
            if kind == "span" and hi < n:
                start = max(hi - int(rng.integers(1, length + 1)), 0)
            else:
                start = int(rng.integers(lo, max(hi - length, lo + 1)))
            queries.append((kind, start, min(start + length, n)))
        return queries

    def run_phase(self, deadline: float, ledger: Ledger | None) -> list[Op]:
        if ledger is not None:
            ledger.label = "archive"
        ops: list[Op] = []
        self.distinct_chunks = []
        session = 0
        while session == 0 or time.perf_counter() < deadline:
            self._session(session, ops, ledger)
            session += 1
        return ops

    def _session(self, session: int, ops: list[Op],
                 ledger: Ledger | None) -> None:
        queries = self._queries(session)
        self.distinct_chunks.append(len({
            c for _, start, stop in queries
            for c in range(start // self.chunk, (stop - 1) // self.chunk + 1)
        }))
        reader = timed(ops, ledger, "open", "archive", (session, "open"), 0,
                       self._open)
        if reader is None:
            return
        try:
            for q, (kind, start, stop) in enumerate(queries):
                expected = self.values[start:stop]
                if kind == "point":
                    fn, args = reader.element, (start,)
                else:
                    fn, args = reader.read_range, (start, stop)
                timed(ops, ledger, kind, "archive", (session, q),
                      expected.nbytes, fn, *args,
                      check=lambda out, e=expected: same_values(out, e))
        finally:
            reader.close()

    def _open(self) -> ContainerFile:
        return ContainerFile(self.path, cache_chunks=self.CACHE_CHUNKS)

    def describe(self) -> dict[str, Any]:
        size = self.path.stat().st_size if self.path.exists() else 0
        touched = self.distinct_chunks
        return {
            "inputs": {"elements": int(self.values.size), "dtype": "float64",
                       "mib": round(self.values.nbytes / MIB, 2),
                       "chunk_elements": self.chunk,
                       "chunks": self.n_chunks, "hot_chunks": self.hot},
            "reads_per_session": self.READS_PER_SESSION,
            "cache_chunks": self.CACHE_CHUNKS,
            "distinct_chunks_per_session_median": (
                float(np.median(touched)) if touched else None
            ),
            "choices": {"field_f64": self.choice},
            "ratio": self.values.nbytes / size if size else None,
        }


WORKLOADS = {cls.name: cls for cls in (Bulk, ServiceSmall, ArchiveRead)}
