"""Fault containment for the compress path.

PR 1 made the *decode* path corruption-tolerant; this module does the
same for *compression*.  The paper's own workflow supplies the escape
hatch: a chunk whose analyzer mask is all-incompressible is stored raw
(Section II-B "undetermined"), so any chunk whose solver misbehaves can
be *degraded* — first to a stdlib-``zlib`` fallback encoding, then to
raw passthrough — without changing the container format.  The
guarantee becomes: compression never fails on encodable input; the
worst case is ratio 1.0 plus a report.

Two pieces live here:

* :class:`ResiliencePolicy` — the knobs: the fallback chain (codec →
  stdlib ``zlib`` → raw), round-trip verification and strict mode
  (degradation becomes a hard failure).  Each chunk gets one
  primary-codec try: the built-in codecs are in-process and their
  verdict depends only on the chunk's bytes, so a retry of a failed
  chunk would fail again.  Nothing else enters the verdict — no
  history of earlier chunks, no wall clock, no worker thread — so a
  chunk's encoding is a function of its bytes and the configuration,
  in every mode.
* :class:`DegradationEvent` / :class:`DegradationReport` — the record
  of every degradation (chunk index, cause, final encoding) attached
  to :class:`~repro.core.pipeline.CompressionResult` and dumped by the
  CLI's ``--resilience-json``.

:func:`call_with_deadline` bounds a blocking call by wall-clock time;
the service runs each compute request under it.

The chunk encoder itself (:func:`repro.core.pipeline.encode_chunk_payload`)
lives next to its decode counterpart in the pipeline module; this module
stays dependency-light so :class:`~repro.core.preferences.IsobarConfig`
can embed a policy without import cycles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace as _dc_replace
from typing import Callable

from repro.core.exceptions import ChunkTimeoutError

__all__ = [
    "DegradationEvent",
    "DegradationReport",
    "ResiliencePolicy",
    "call_with_deadline",
]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-chunk fault-containment knobs for the compress path.

    Parameters
    ----------
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
    strict:
        Degradation becomes a hard failure: when the primary codec
        fails a :class:`~repro.core.exceptions.CodecError` propagates
        instead of a fallback encoding.
    """

    fallback_zlib: bool = True
    verify_roundtrip: bool = False
    strict: bool = False

    def replace(self, **changes: object) -> "ResiliencePolicy":
        """Return a copy of this policy with ``changes`` applied."""
        return _dc_replace(self, **changes)


@dataclass(frozen=True)
class DegradationEvent:
    """One chunk that could not be stored with the primary codec."""

    chunk_index: int
    #: ``"error"``: the solver raised or failed round-trip
    #: verification (the label of ``isobar_chunks_degraded_total``).
    cause: str
    #: Final encoding: ``"zlib-fallback"`` or ``"raw"``.
    encoding: str
    #: Message of the last primary-codec error, when there was one.
    error: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "chunk_index": self.chunk_index,
            "cause": self.cause,
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
                encoding=str(e["encoding"]),
                error=e.get("error"),
            )
            for e in payload.get("events", ())
        )
        return cls(events=events)


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
    the accepted cost of containment: the caller (the service, which
    answers 504) moves on instead of hanging with it.
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
        target=_run, name="isobar-deadline", daemon=True
    )
    worker.start()
    if not done.wait(deadline_seconds):
        raise ChunkTimeoutError(
            f"call exceeded its {deadline_seconds}s deadline"
        )
    kind, value = box[0]
    if kind == "err":
        raise value  # type: ignore[misc]
    return value  # type: ignore[return-value]
