"""Seeded, deterministic misbehaving codec wrappers (the chaos harness).

:mod:`repro.testing.faults` attacks *containers*; this module attacks
the *solver* — the adversary the resilience layer
(:mod:`repro.core.resilience`) is proven against.  Each wrapper
delegates to a real codec and misbehaves on a deterministic subset of
calls:

* :class:`FlakyCodec` raises :class:`ChaosCodecError`,
* :class:`HangingCodec` sleeps before delegating (a wedged solver:
  the service's request deadline answers it with 504),
* :class:`CorruptingCodec` flips a byte in the compressed output
  (caught downstream by per-chunk CRCs, or at encode time by
  ``ResiliencePolicy(verify_roundtrip=True)``).

Determinism matters more than realism here: the chaos smoke must fail
the *same* chunks on every run, in serial and parallel alike.  So the
default trigger is keyed on the **payload content** (CRC32 of the
bytes, mixed with the seed) rather than call order — thread scheduling
cannot change which chunks fail.  Call-order triggers (``fail_first``,
``fail_calls``) exist for serial tests, protected by a lock.

Wrappers are registered through the normal codec registry, typically
*shadowing* the real codec's name via :func:`chaos_codec`, so the
container header still records the real name — which is exactly what
makes chaos-compressed output decodable by a pristine decoder.
"""

from __future__ import annotations

import contextlib
import threading
import time
import zlib as _zlib
from typing import Iterator

from repro.codecs.base import (
    Codec,
    get_codec,
    register_codec,
    unregister_codec,
)
from repro.core.exceptions import CodecError

__all__ = [
    "ChaosCodecError",
    "ChaosWrapper",
    "CorruptingCodec",
    "FlakyCodec",
    "HangingCodec",
    "chaos_codec",
    "solver_payloads",
]

#: Knuth's multiplicative-hash constant: spreads small seeds across the
#: 32-bit key space before mixing with the payload CRC.
_SEED_MIX = 2654435761


class ChaosCodecError(CodecError):
    """The deliberate failure a chaos wrapper injects."""


def _payload_key(data: bytes, seed: int) -> int:
    """Deterministic per-payload key in [0, 10000) — content-addressed,
    so the verdict is identical regardless of call order or thread."""
    return ((_zlib.crc32(data) ^ (seed * _SEED_MIX)) & 0xFFFFFFFF) % 10_000


class ChaosWrapper(Codec):
    """Base class: a codec delegating to ``inner`` under its own name.

    ``name`` defaults to the inner codec's name so the wrapper can
    shadow it in the registry (see :func:`chaos_codec`).  ``calls``
    counts delegated operations (compress + decompress) for test
    assertions.
    """

    def __init__(self, inner: Codec | str, *, name: str | None = None):
        self.inner = get_codec(inner) if isinstance(inner, str) else inner
        self.name = name or self.inner.name
        self._lock = threading.Lock()
        self._calls = 0

    @property
    def calls(self) -> int:
        """Operations attempted through this wrapper so far."""
        return self._calls

    def _tick(self) -> int:
        """Increment and return the 1-based call ordinal (thread-safe)."""
        with self._lock:
            self._calls += 1
            return self._calls

    def compress(self, data: bytes) -> bytes:
        self._before("compress", data, self._tick())
        return self._after("compress", self.inner.compress(data))

    def decompress(self, data: bytes) -> bytes:
        self._before("decompress", data, self._tick())
        return self._after("decompress", self.inner.decompress(data))

    # Hooks overridden by concrete wrappers.
    def _before(self, operation: str, data: bytes, ordinal: int) -> None:
        """Called before delegating; raise or sleep to misbehave."""

    def _after(self, operation: str, result: bytes) -> bytes:
        """Called after delegating; return a (possibly mangled) result."""
        return result


class FlakyCodec(ChaosWrapper):
    """Raises :class:`ChaosCodecError` on a deterministic set of calls.

    Parameters
    ----------
    inner:
        The real codec (instance or registry name) to wrap.
    fail_percent:
        Approximate share of *payloads* that fail, selected by a
        content-addressed key — the same payload always gets the same
        verdict, so the failure pattern is identical in serial and
        parallel runs.
    seed:
        Varies which payloads are doomed.
    fail_first:
        The first N calls fail unconditionally (call-order based, for
        serial tests: exactly N consecutive failures, then recovery).
    fail_calls:
        Specific 1-based call ordinals that fail unconditionally
        (serial runs only — ordinals are schedule-dependent under a
        thread pool).
    fail_on:
        Which operations misbehave (default: only ``compress`` — the
        resilience layer guards the encode side).
    """

    def __init__(
        self,
        inner: Codec | str,
        *,
        fail_percent: float = 30.0,
        seed: int = 0,
        fail_first: int = 0,
        fail_calls: tuple[int, ...] = (),
        fail_on: tuple[str, ...] = ("compress",),
        name: str | None = None,
    ):
        super().__init__(inner, name=name)
        self.fail_percent = float(fail_percent)
        self.seed = int(seed)
        self.fail_first = int(fail_first)
        self.fail_calls = tuple(fail_calls)
        self.fail_on = tuple(fail_on)
        self._failures = 0
        self._failed_keys: set[int] = set()

    @property
    def failures(self) -> int:
        """Calls this wrapper has deliberately failed so far."""
        return self._failures

    @property
    def unique_failed_payloads(self) -> int:
        """Distinct payloads (by content key) that have been failed."""
        return len(self._failed_keys)

    def is_doomed(self, data: bytes) -> bool:
        """Whether the content-addressed trigger fails this payload."""
        return _payload_key(data, self.seed) < self.fail_percent * 100

    def _before(self, operation: str, data: bytes, ordinal: int) -> None:
        if operation not in self.fail_on:
            return
        by_order = ordinal <= self.fail_first or ordinal in self.fail_calls
        by_content = self.fail_percent > 0 and self.is_doomed(data)
        if by_order or by_content:
            with self._lock:
                self._failures += 1
                self._failed_keys.add(_payload_key(data, self.seed))
            # Content-doomed payloads report their content key, not the
            # call ordinal: ordinals are schedule-dependent under a
            # thread pool, and the message ends up in degradation
            # events that serial-vs-parallel tests compare verbatim.
            trigger = (
                f"call {ordinal}" if by_order
                else f"payload key {_payload_key(data, self.seed)}"
            )
            raise ChaosCodecError(
                f"{self.name}: injected {operation} failure "
                f"({trigger}, payload {len(data)} bytes)"
            )


class HangingCodec(ChaosWrapper):
    """Sleeps ``hang_seconds`` before delegating, on selected calls.

    Chunk encoding has no deadline — the built-in codecs are C calls on
    finite buffers — so a hang holds its request until the service's
    request deadline answers 504 and abandons the thread.
    ``hang_calls`` picks call ordinals (1-based, deterministic in
    serial runs); ``hang_percent`` picks payloads by content key
    instead.
    """

    def __init__(
        self,
        inner: Codec | str,
        *,
        hang_seconds: float = 0.5,
        hang_calls: tuple[int, ...] = (),
        hang_percent: float = 0.0,
        seed: int = 0,
        hang_on: tuple[str, ...] = ("compress",),
        name: str | None = None,
    ):
        super().__init__(inner, name=name)
        self.hang_seconds = float(hang_seconds)
        self.hang_calls = tuple(hang_calls)
        self.hang_percent = float(hang_percent)
        self.seed = int(seed)
        self.hang_on = tuple(hang_on)
        self._hangs = 0

    @property
    def hangs(self) -> int:
        """Calls this wrapper has deliberately delayed so far."""
        return self._hangs

    def is_doomed(self, data: bytes) -> bool:
        """Whether the content-addressed trigger delays this payload."""
        return (
            self.hang_percent > 0
            and _payload_key(data, self.seed) < self.hang_percent * 100
        )

    def _before(self, operation: str, data: bytes, ordinal: int) -> None:
        if operation not in self.hang_on:
            return
        if ordinal in self.hang_calls or self.is_doomed(data):
            with self._lock:
                self._hangs += 1
            time.sleep(self.hang_seconds)


class CorruptingCodec(ChaosWrapper):
    """Flips one byte of the compressed output on selected payloads.

    The corruption is silent at the codec layer — the point is to prove
    the *next* line of defence catches it: per-chunk CRC32 on decode,
    or ``ResiliencePolicy(verify_roundtrip=True)`` at encode time.
    """

    def __init__(
        self,
        inner: Codec | str,
        *,
        corrupt_percent: float = 100.0,
        seed: int = 0,
        corrupt_on: tuple[str, ...] = ("compress",),
        name: str | None = None,
    ):
        super().__init__(inner, name=name)
        self.corrupt_percent = float(corrupt_percent)
        self.seed = int(seed)
        self.corrupt_on = tuple(corrupt_on)
        self._corruptions = 0

    @property
    def corruptions(self) -> int:
        """Outputs this wrapper has deliberately mangled so far."""
        return self._corruptions

    def compress(self, data: bytes) -> bytes:
        self._tick()
        out = self.inner.compress(data)
        if "compress" in self.corrupt_on and out and (
            _payload_key(data, self.seed) < self.corrupt_percent * 100
        ):
            out = self._flip(out)
        return out

    def decompress(self, data: bytes) -> bytes:
        self._tick()
        out = self.inner.decompress(data)
        if "decompress" in self.corrupt_on and out and (
            _payload_key(data, self.seed) < self.corrupt_percent * 100
        ):
            out = self._flip(out)
        return out

    def _flip(self, payload: bytes) -> bytes:
        with self._lock:
            self._corruptions += 1
        position = _payload_key(payload, self.seed + 1) % len(payload)
        mangled = bytearray(payload)
        mangled[position] ^= 0x40
        return bytes(mangled)


def solver_payloads(
    values,
    *,
    chunk_elements: int,
    tau: float | None = None,
    linearization=None,
) -> list[bytes]:
    """The exact byte string each chunk submits to the solver.

    Mirrors the pipeline's per-chunk encode: improvable chunks submit
    their partitioned compressible stream, undetermined chunks their
    raw little-endian bytes.  Content-keyed chaos triggers
    (:meth:`FlakyCodec.is_doomed`, :meth:`HangingCodec.is_doomed`) can
    therefore predict — before compressing anything — exactly which
    chunks of a run will degrade, which is what the chaos smoke asserts
    against.  Only meaningful when codec and linearization are pinned
    in the config (otherwise the selector might pick a different
    linearization than the one passed here).
    """
    # Imported lazily: this module must stay importable without pulling
    # the whole pipeline in (and pipeline must not import chaos).
    from repro.core.analyzer import analyze
    from repro.core.chunking import iter_chunks
    from repro.core.partitioner import partition
    from repro.core.pipeline import _little_endian_bytes
    from repro.core.preferences import DEFAULT_TAU, Linearization

    tau = DEFAULT_TAU if tau is None else tau
    linearization = (
        Linearization.ROW if linearization is None else linearization
    )
    payloads: list[bytes] = []
    for _span, chunk in iter_chunks(values.reshape(-1), chunk_elements):
        raw = _little_endian_bytes(chunk)
        analysis = analyze(chunk, tau=tau)
        if analysis.improvable:
            payloads.append(
                partition(chunk, analysis.mask, linearization).compressible
            )
        else:
            payloads.append(raw)
    return payloads


@contextlib.contextmanager
def chaos_codec(codec: Codec) -> Iterator[Codec]:
    """Register ``codec`` (typically a wrapper shadowing a real name)
    for the duration of the ``with`` block, then restore the registry.

    Shadowing the real name (e.g. registering a ``FlakyCodec`` wrapping
    zlib *as* ``"zlib"``) means containers compressed under chaos carry
    the real codec name in their header — so a pristine process decodes
    them without ever importing this module.
    """
    previous = None
    try:
        previous = get_codec(codec.name)
    except CodecError:
        previous = None
    register_codec(codec, replace=True)
    try:
        yield codec
    finally:
        if previous is not None:
            register_codec(previous, replace=True)
        else:
            unregister_codec(codec.name)
