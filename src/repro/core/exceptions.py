"""Exception hierarchy for the ISOBAR reproduction library.

Every error raised by this package derives from :class:`IsobarError`, so
callers can catch a single base class at an API boundary.  The concrete
subclasses distinguish the failure domains a user can act on: bad input
arrays, malformed containers, unknown codecs, and configuration mistakes.
"""

from __future__ import annotations

__all__ = [
    "IsobarError",
    "InvalidInputError",
    "ContainerFormatError",
    "TruncatedContainerError",
    "ChecksumError",
    "CodecError",
    "UnknownCodecError",
    "ChunkTimeoutError",
    "ConfigurationError",
    "SelectorError",
]


class IsobarError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidInputError(IsobarError, ValueError):
    """The input array or buffer cannot be processed.

    Raised when an input is empty where data is required, has an
    unsupported dtype, or its byte length is not a multiple of the
    declared element width.
    """


class ContainerFormatError(IsobarError, ValueError):
    """A serialized ISOBAR container is malformed or truncated."""


class TruncatedContainerError(ContainerFormatError):
    """The container byte stream ends before a declared structure does.

    Raised from every truncation path — header record, chunk metadata
    record, chunk payload — so callers can distinguish "cut short"
    (e.g. an interrupted download or a crashed writer) from "malformed".
    Truncated containers are prime candidates for
    :func:`repro.core.salvage.salvage_decompress`.
    """


class ChecksumError(ContainerFormatError):
    """Stored checksum does not match the decoded payload.

    This indicates corruption of the container between compression and
    decompression; the payload must not be trusted.
    """


class CodecError(IsobarError, RuntimeError):
    """A solver (lossless compressor) failed to compress or decompress."""


class UnknownCodecError(CodecError, KeyError):
    """A codec name was requested that is not present in the registry."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = available
        detail = f"unknown codec {name!r}"
        if available:
            detail += f"; available codecs: {', '.join(sorted(available))}"
        super().__init__(detail)


class ChunkTimeoutError(CodecError):
    """A call exceeded its wall-clock deadline.

    Raised by :func:`repro.core.resilience.call_with_deadline` when the
    call does not return in time; the service answers it with 504.
    """


class ConfigurationError(IsobarError, ValueError):
    """An ISOBAR configuration value is out of its legal range."""


class SelectorError(IsobarError, RuntimeError):
    """The EUPA-selector could not produce a decision.

    Raised, for example, when the candidate set is empty after applying
    user constraints, or when a sample cannot be drawn from the input.
    """


class SanitizerError(IsobarError, AssertionError):
    """The runtime concurrency sanitizer observed a violation.

    Subclasses :class:`AssertionError` because the sanitizer's checks
    are assertions about process state (no lock cycle, no leaked
    executor or segment, a scenario's roundtrip held) — a pytest
    fixture raising it fails the test the way a plain assert would.
    """
