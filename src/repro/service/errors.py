"""The service's error vocabulary and the exception → HTTP status map.

This module is the **only** place where repo exceptions become HTTP
status codes.  Every handler funnels failures through
:func:`status_for_exception` / :func:`error_response`; the repo linter
rule ``ISO007`` (:mod:`repro.devtools.rules.service_errors`) enforces
that no handler builds a bare 500 response or swallows a repo
exception outside this funnel.

The mapping (normative; mirrored in ``docs/service.md``):

======  =======================================================
status  condition
======  =======================================================
200     success (possibly degraded — see ``X-Isobar-Degraded``)
206     salvage recovered only part of the container
400     malformed request: bad dtype/params, invalid input array
404     unknown route
405     method not allowed on a known route
408     client stalled while sending the request body
413     request body exceeds the configured limit
422     container undecodable under the requested policy
429     admission queue full — shed, with ``Retry-After``
500     unexpected non-Isobar bug (the single mapped fallback)
503     draining, or a codec/selector failure not degraded (strict)
504     request deadline expired (queue wait + compute)
======  =======================================================
"""

from __future__ import annotations

import json

from repro.core.exceptions import (
    ChecksumError,
    ChunkTimeoutError,
    CodecError,
    ConfigurationError,
    ContainerFormatError,
    InvalidInputError,
    IsobarError,
    SelectorError,
    TruncatedContainerError,
    UnknownCodecError,
)

__all__ = [
    "DrainingError",
    "QueueFullError",
    "ServiceError",
    "ServiceProtocolError",
    "ServiceRequestError",
    "ServiceUnavailableError",
    "error_body",
    "status_for_exception",
]


class ServiceError(IsobarError):
    """Base class for errors raised by the compression service layer."""


class QueueFullError(ServiceError):
    """Admission control shed this request (queue at capacity)."""

    status = 429

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class DrainingError(ServiceError):
    """The service is draining and no longer accepts new work."""

    status = 503

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceProtocolError(ServiceError):
    """The peer spoke malformed HTTP (or violated a size limit)."""

    def __init__(self, message: str, *, status: int = 400):
        super().__init__(message)
        self.status = status


class ServiceRequestError(ServiceError):
    """Client-side: the service answered with a non-retryable error."""

    def __init__(self, message: str, *, status: int):
        super().__init__(message)
        self.status = status


class ServiceUnavailableError(ServiceError):
    """Client-side: retries exhausted against 429/503 or transport
    failures; carries the last observed status (0 for transport)."""

    def __init__(
        self,
        message: str,
        *,
        status: int = 0,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


#: Exception classes mapped to a status, most specific first.  The
#: table is ordered: the first isinstance match wins.
_STATUS_TABLE: tuple[tuple[type[BaseException], int], ...] = (
    (QueueFullError, 429),
    (DrainingError, 503),
    (ServiceProtocolError, 400),
    (ChunkTimeoutError, 504),
    (UnknownCodecError, 400),
    (ChecksumError, 422),
    (TruncatedContainerError, 422),
    (ContainerFormatError, 422),
    (CodecError, 503),
    (SelectorError, 503),
    (InvalidInputError, 400),
    (ConfigurationError, 400),
    (IsobarError, 400),
)


def status_for_exception(exc: BaseException) -> int:
    """The HTTP status code for ``exc`` (500 for non-Isobar bugs).

    ``ServiceProtocolError`` carries its own status (408/413/400);
    everything else resolves through the ordered isinstance table.
    """
    if isinstance(exc, ServiceProtocolError):
        return exc.status
    for exc_type, status in _STATUS_TABLE:
        if isinstance(exc, exc_type):
            return status
    return 500


def retry_after_for_exception(exc: BaseException) -> float | None:
    """The ``Retry-After`` seconds an error response should carry."""
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        return float(retry_after)
    if status_for_exception(exc) in (429, 503):
        return 1.0
    return None


def error_body(exc: BaseException, status: int) -> bytes:
    """The canonical JSON error document for an exception response."""
    return json.dumps(
        {
            "error": str(exc),
            "type": type(exc).__name__,
            "status": status,
        }
    ).encode("utf-8")
