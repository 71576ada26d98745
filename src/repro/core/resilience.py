"""Fault containment for the compress path.

PR 1 made the *decode* path corruption-tolerant; this module does the
same for *compression*.  The paper's own workflow supplies the escape
hatch: a chunk whose analyzer mask is all-incompressible is stored raw
(Section II-B "undetermined"), so any chunk whose solver misbehaves can
be *degraded* — first to a stdlib-``zlib`` fallback encoding, then to
raw passthrough — without changing the container format.  The
guarantee becomes: compression never fails on encodable input; the
worst case is ratio 1.0 plus a report.

Three cooperating pieces live here:

* :class:`ResiliencePolicy` — the knobs: an optional per-chunk
  deadline, the fallback chain (codec → stdlib ``zlib`` → raw), and
  strict mode (degradation becomes a hard failure).  Each chunk gets
  one primary-codec try: the built-in codecs are in-process and their
  verdict depends only on the chunk's bytes, so a retry of a failed
  chunk would fail again.
* :class:`CodecCircuitBreaker` / :class:`BreakerBoard` — a per-codec
  breaker that opens after K *consecutive* failing chunks and
  routes the rest of the run straight to the fallback; after a number
  of skipped chunks it lets one half-open probe through, closing again
  on success.  Progress is chunk-count based (not wall-clock) so runs
  are deterministic.
* :class:`DegradationEvent` / :class:`DegradationReport` — the record
  of every degradation (chunk index, cause, attempts, final encoding)
  attached to :class:`~repro.core.pipeline.CompressionResult` and
  dumped by the CLI's ``--resilience-json``.

The chunk encoder itself (:func:`repro.core.pipeline.encode_chunk_payload`)
lives next to its decode counterpart in the pipeline module; this module
stays dependency-light so :class:`~repro.core.preferences.IsobarConfig`
can embed a policy without import cycles.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace as _dc_replace
from typing import Callable

from repro.core.exceptions import ChunkTimeoutError, ConfigurationError

__all__ = [
    "BreakerBoard",
    "BreakerSnapshot",
    "BreakerState",
    "CodecCircuitBreaker",
    "DegradationEvent",
    "DegradationReport",
    "ResiliencePolicy",
    "call_with_deadline",
]


class BreakerState(enum.Enum):
    """Circuit breaker states, with their exported gauge values."""

    CLOSED = "closed"
    HALF_OPEN = "half_open"
    OPEN = "open"

    @property
    def gauge_value(self) -> int:
        """Numeric encoding for ``isobar_breaker_state`` (0/1/2)."""
        return {"closed": 0, "half_open": 1, "open": 2}[self.value]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-chunk fault-containment knobs for the compress path.

    Parameters
    ----------
    chunk_deadline_seconds:
        Wall-clock budget for a single solver call; ``None`` disables
        the deadline.  Enforced by :func:`call_with_deadline`, which
        runs the call on a helper thread — only set it when hung
        encoders are a real risk.
    fallback_zlib:
        When the primary codec fails, try a stdlib-``zlib``
        encoding of the raw chunk bytes (container mode
        ``FALLBACK_ZLIB``) before giving up compression entirely.  The
        stdlib module is called directly — a misbehaving codec
        *registered* under the name ``"zlib"`` cannot poison the
        fallback.
    verify_roundtrip:
        Decompress every primary-codec output and compare against the
        input before accepting it.  Catches codecs that corrupt data
        *silently* (at roughly 2x solver cost); corruption is treated
        as a failure and degrades like any other.
    breaker_threshold:
        Consecutive failing chunks (K) that open that codec's circuit
        breaker.
    breaker_probe_after:
        While open, the breaker short-circuits this many chunks to the
        fallback, then lets a single half-open probe through.
    strict:
        Degradation becomes a hard failure: when the primary codec
        fails a :class:`~repro.core.exceptions.CodecError` propagates
        instead of a fallback encoding.
    """

    chunk_deadline_seconds: float | None = None
    fallback_zlib: bool = True
    verify_roundtrip: bool = False
    breaker_threshold: int = 3
    breaker_probe_after: int = 8
    strict: bool = False

    def __post_init__(self) -> None:
        if (
            self.chunk_deadline_seconds is not None
            and self.chunk_deadline_seconds <= 0
        ):
            raise ConfigurationError(
                "chunk_deadline_seconds must be positive or None, got "
                f"{self.chunk_deadline_seconds!r}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold!r}"
            )
        if self.breaker_probe_after < 1:
            raise ConfigurationError(
                "breaker_probe_after must be >= 1, got "
                f"{self.breaker_probe_after!r}"
            )

    def replace(self, **changes: object) -> "ResiliencePolicy":
        """Return a copy of this policy with ``changes`` applied."""
        return _dc_replace(self, **changes)


@dataclass(frozen=True)
class DegradationEvent:
    """One chunk that could not be stored with the primary codec."""

    chunk_index: int
    #: ``"error"`` (solver raised), ``"timeout"`` (deadline exceeded) or
    #: ``"breaker_open"`` (the codec's breaker short-circuited the call).
    cause: str
    #: Primary-codec tries made: 0 when the breaker was open, else 1.
    attempts: int
    #: Final encoding: ``"zlib-fallback"`` or ``"raw"``.
    encoding: str
    #: Message of the last primary-codec error, when there was one.
    error: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "chunk_index": self.chunk_index,
            "cause": self.cause,
            "attempts": self.attempts,
            "encoding": self.encoding,
            "error": self.error,
        }


@dataclass(frozen=True)
class DegradationReport:
    """Every degradation of one compression run.

    Attached to :class:`~repro.core.pipeline.CompressionResult` as
    ``result.degradation``; an empty report means every chunk was
    stored with the primary codec.
    """

    events: tuple[DegradationEvent, ...] = ()

    @property
    def clean(self) -> bool:
        """True when no chunk was degraded."""
        return not self.events

    @property
    def degraded_chunks(self) -> int:
        """Number of chunks stored with a fallback encoding."""
        return len(self.events)

    def causes(self) -> dict[str, int]:
        """Degradation counts per cause."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.cause] = counts.get(event.cause, 0) + 1
        return counts

    def summary_lines(self) -> list[str]:
        """Human-readable degradation summary (CLI stderr)."""
        if self.clean:
            return ["no degraded chunks"]
        by_cause = ", ".join(
            f"{cause}: {n}" for cause, n in sorted(self.causes().items())
        )
        lines = [f"{self.degraded_chunks} chunk(s) degraded ({by_cause})"]
        for event in self.events:
            detail = (
                f"chunk {event.chunk_index}: {event.cause} -> stored as "
                f"{event.encoding}"
            )
            if event.error:
                detail += f" ({event.error})"
            lines.append(detail)
        return lines

    def to_dict(self) -> dict:
        """JSON-ready representation (``--resilience-json``)."""
        return {
            "degraded_chunks": self.degraded_chunks,
            "causes": self.causes(),
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DegradationReport":
        """Inverse of :meth:`to_dict`."""
        events = tuple(
            DegradationEvent(
                chunk_index=int(e["chunk_index"]),
                cause=str(e["cause"]),
                attempts=int(e["attempts"]),
                encoding=str(e["encoding"]),
                error=e.get("error"),
            )
            for e in payload.get("events", ())
        )
        return cls(events=events)


@dataclass(frozen=True)
class BreakerSnapshot:
    """Point-in-time, lock-consistent view of one codec's breaker.

    Returned by :meth:`CodecCircuitBreaker.snapshot` /
    :meth:`BreakerBoard.snapshot` so health endpoints and tests can
    inspect breaker internals without reaching into private fields.
    """

    codec_name: str
    state: BreakerState
    consecutive_failures: int
    skips_since_open: int
    probe_inflight: bool

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``/healthz`` payload)."""
        return {
            "codec": self.codec_name,
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "skips_since_open": self.skips_since_open,
            "probe_inflight": self.probe_inflight,
        }


class CodecCircuitBreaker:
    """Thread-safe per-codec circuit breaker (chunk-count based).

    State machine:

    * ``CLOSED`` — calls flow; ``threshold`` *consecutive* failures
      (successes reset the streak) transition to ``OPEN``.
    * ``OPEN`` — :meth:`allow` returns False, routing chunks straight
      to the fallback.  After ``probe_after`` skipped calls the breaker
      moves to ``HALF_OPEN`` and lets exactly one probe through.
    * ``HALF_OPEN`` — the probe's outcome decides: success closes the
      breaker, failure re-opens it (and restarts the skip count).

    All transitions are counted in chunks, never wall-clock, so a run
    with a deterministic fault pattern degrades deterministically —
    this is what the chaos harness asserts on.
    """

    def __init__(
        self,
        codec_name: str,
        *,
        threshold: int = 3,
        probe_after: int = 8,
        on_state_change: Callable[[str, BreakerState], None] | None = None,
    ):
        self.codec_name = codec_name
        self._threshold = threshold
        self._probe_after = probe_after
        self._on_state_change = on_state_change
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._skips_since_open = 0
        self._probe_inflight = False

    @property
    def state(self) -> BreakerState:
        """Current breaker state."""
        return self._state

    def snapshot(self) -> BreakerSnapshot:
        """A lock-consistent :class:`BreakerSnapshot` of this breaker."""
        with self._lock:
            return BreakerSnapshot(
                codec_name=self.codec_name,
                state=self._state,
                consecutive_failures=self._consecutive_failures,
                skips_since_open=self._skips_since_open,
                probe_inflight=self._probe_inflight,
            )

    def reset(self) -> None:
        """Force the breaker back to ``CLOSED`` and clear its counters.

        An operator override (exposed via :meth:`BreakerBoard.reset`):
        the state-change callback fires so gauges track the reset.
        """
        with self._lock:
            self._consecutive_failures = 0
            self._skips_since_open = 0
            self._probe_inflight = False
            self._transition(BreakerState.CLOSED)

    def _transition(self, state: BreakerState) -> None:
        # Called with the lock held.
        if state is self._state:
            return
        self._state = state
        if self._on_state_change is not None:
            self._on_state_change(self.codec_name, state)

    def allow(self) -> bool:
        """Whether the next primary-codec call may proceed."""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                self._skips_since_open += 1
                if self._skips_since_open > self._probe_after:
                    self._transition(BreakerState.HALF_OPEN)
                    self._probe_inflight = True
                    return True
                return False
            # HALF_OPEN: only the single probe call is in flight.
            if not self._probe_inflight:
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        """A primary-codec call succeeded; close the breaker."""
        with self._lock:
            self._consecutive_failures = 0
            self._skips_since_open = 0
            self._probe_inflight = False
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """A chunk's primary-codec call failed or timed out."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state is BreakerState.HALF_OPEN:
                # Failed probe: straight back to OPEN.
                self._probe_inflight = False
                self._skips_since_open = 0
                self._transition(BreakerState.OPEN)
            elif (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self._threshold
            ):
                self._skips_since_open = 0
                self._transition(BreakerState.OPEN)


class BreakerBoard:
    """Lazily-created :class:`CodecCircuitBreaker` per codec name.

    One board is shared across a compressor's whole lifetime (and
    across its worker threads), so breaker state persists between runs
    the way an always-on ingest path needs it to.
    """

    def __init__(
        self,
        policy: "ResiliencePolicy | None" = None,
        *,
        on_state_change: Callable[[str, BreakerState], None] | None = None,
    ):
        self._policy = policy or ResiliencePolicy()
        self._on_state_change = on_state_change
        self._lock = threading.Lock()
        self._breakers: dict[str, CodecCircuitBreaker] = {}

    def for_codec(self, name: str) -> CodecCircuitBreaker:
        """The breaker guarding ``name`` (created on first use)."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CodecCircuitBreaker(
                    name,
                    threshold=self._policy.breaker_threshold,
                    probe_after=self._policy.breaker_probe_after,
                    on_state_change=self._on_state_change,
                )
                self._breakers[name] = breaker
            return breaker

    def states(self) -> dict[str, BreakerState]:
        """Snapshot of every breaker's current state."""
        with self._lock:
            return {name: b.state for name, b in self._breakers.items()}

    def snapshot(self) -> dict[str, BreakerSnapshot]:
        """Full :class:`BreakerSnapshot` per codec, for health endpoints
        and tests — no private-field access required."""
        with self._lock:
            breakers = list(self._breakers.values())
        return {b.codec_name: b.snapshot() for b in breakers}

    def reset(self) -> None:
        """Force every breaker on the board back to ``CLOSED``.

        The breakers themselves are kept (state-change callbacks and
        identity survive) — only their failure accounting is cleared.
        """
        with self._lock:
            breakers = list(self._breakers.values())
        for breaker in breakers:
            breaker.reset()


def call_with_deadline(
    fn: Callable[[bytes], bytes],
    data: bytes,
    deadline_seconds: float | None,
) -> bytes:
    """Run ``fn(data)`` with an optional wall-clock deadline.

    With ``deadline_seconds=None`` this is a plain call (zero
    overhead).  Otherwise the call runs on a daemon helper thread;
    if it does not finish in time a
    :class:`~repro.core.exceptions.ChunkTimeoutError` is raised and
    the thread is *abandoned* — Python threads cannot be killed, so a
    truly hung encoder keeps its thread until process exit.  That is
    the accepted cost of containment: the pipeline moves on to the
    fallback instead of hanging with it.
    """
    if deadline_seconds is None:
        return fn(data)
    box: list[tuple[str, object]] = []
    done = threading.Event()

    def _run() -> None:
        try:
            box.append(("ok", fn(data)))
        except BaseException as exc:  # noqa: BLE001 - relayed to caller
            box.append(("err", exc))
        finally:
            done.set()

    worker = threading.Thread(
        target=_run, name="isobar-chunk-deadline", daemon=True
    )
    worker.start()
    if not done.wait(deadline_seconds):
        raise ChunkTimeoutError(
            f"solver call exceeded the {deadline_seconds}s chunk deadline"
        )
    kind, value = box[0]
    if kind == "err":
        raise value  # type: ignore[misc]
    return value  # type: ignore[return-value]
