"""The resilient async compression service (``isobar serve``).

An asyncio HTTP/1.1 front end over the ISOBAR pipeline, designed
around failure: bounded admission with load shedding, per-request
deadlines, degraded-response headers, chunked backpressured bodies
and graceful drain.  See
``docs/service.md`` for the wire contract.

Public surface:

* :class:`IsobarService` / :class:`ServiceConfig` — the server.
* :class:`ServiceThread` — run a service on a background thread
  (tests, load harness).
* :class:`ServiceClient` — synchronous client with retry + full-jitter
  backoff honouring ``Retry-After``.
* :class:`NetworkChaos` / :class:`NetworkChaosPolicy` — wire-level
  fault injection middleware.
"""

from repro.service.app import IsobarService, ServiceConfig, ServiceThread
from repro.service.chaos import ChaosPlan, NetworkChaos, NetworkChaosPolicy
from repro.service.client import (
    ClientResponse,
    CompressOutcome,
    SalvageOutcome,
    ServiceClient,
)
from repro.service.errors import (
    DrainingError,
    QueueFullError,
    ServiceError,
    ServiceProtocolError,
    ServiceRequestError,
    ServiceUnavailableError,
    status_for_exception,
)

__all__ = [
    "ChaosPlan",
    "ClientResponse",
    "CompressOutcome",
    "DrainingError",
    "IsobarService",
    "NetworkChaos",
    "NetworkChaosPolicy",
    "QueueFullError",
    "SalvageOutcome",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceProtocolError",
    "ServiceRequestError",
    "ServiceThread",
    "ServiceUnavailableError",
    "status_for_exception",
]
