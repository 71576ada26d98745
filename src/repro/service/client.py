"""Synchronous client for the compression service, with retries.

The client is the other half of the service's resilience contract:

* **Retryable vs. terminal** — 429/503 responses and transport
  failures (refused, reset, truncated chunked body) are retried with
  full-jitter exponential backoff; any other error status is terminal
  and raises :class:`~repro.service.errors.ServiceRequestError`
  immediately (retrying a 400 cannot help).
* **Retry-After wins** — when a shed or draining response names a
  ``Retry-After``, the client sleeps at least that long instead of its
  own (possibly shorter) backoff; the server knows its queue better
  than the client's schedule does.
* **Determinism** — backoff jitter draws from a seeded stream keyed by
  (seed, request ordinal, retry number), and ``sleep`` is injectable,
  so tests assert exact delays without waiting for them.

Transport failures surface as
:class:`~repro.service.errors.ServiceUnavailableError` with
``status=0`` once retries are exhausted — the load harness buckets
these separately so chaos runs still account for every request.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time as _time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.exceptions import InvalidInputError
from repro.service.errors import ServiceRequestError, ServiceUnavailableError

__all__ = [
    "ClientResponse",
    "CompressOutcome",
    "SalvageOutcome",
    "ServiceClient",
]

#: Statuses worth retrying: the server said "later", not "never".
RETRYABLE_STATUSES = frozenset({429, 503})

_JITTER_MIX = 2654435761


def full_jitter_backoff(
    base_seconds: float,
    retry_number: int,
    *,
    cap_seconds: float | None = None,
    rng: random.Random | None = None,
) -> float:
    """Exponential backoff with *full jitter* (AWS architecture-blog
    style): retry *n* waits a uniform draw from
    ``[0, min(cap, base * 2**(n-1))]``.

    With ``rng=None`` the jitter is skipped and the deterministic
    exponential envelope is returned — useful when the caller wants the
    upper bound rather than a sample.
    """
    if base_seconds <= 0 or retry_number < 1:
        return 0.0
    envelope = base_seconds * (2.0 ** (retry_number - 1))
    if cap_seconds is not None:
        envelope = min(envelope, cap_seconds)
    if rng is None:
        return envelope
    return rng.uniform(0.0, envelope)


@dataclass(frozen=True)
class ClientResponse:
    """One raw HTTP exchange (status + headers + complete body)."""

    status: int
    headers: Mapping[str, str]
    body: bytes
    #: How many retries this exchange consumed before succeeding.
    retries: int = 0

    def header(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive response-header lookup."""
        return self.headers.get(name.lower(), default)

    def json(self) -> dict:
        """The body parsed as JSON."""
        return json.loads(self.body.decode("utf-8"))


@dataclass(frozen=True)
class CompressOutcome:
    """A successful ``/v1/compress`` round: container + verdicts."""

    payload: bytes
    codec: str
    ratio: float
    degraded_chunks: int
    degradation_causes: dict[str, int]
    retries: int

    @property
    def degraded(self) -> bool:
        """True when any chunk fell back to a degraded encoding."""
        return self.degraded_chunks > 0


@dataclass(frozen=True)
class SalvageOutcome:
    """A ``/v1/salvage`` round: recovered values + loss accounting."""

    values: np.ndarray
    complete: bool
    recovered_chunks: int
    lost_chunks: int
    recovered_elements: int
    lost_elements: int
    retries: int


class ServiceClient:
    """Talk to one :class:`~repro.service.app.IsobarService`.

    Parameters
    ----------
    host / port:
        Where the service listens.
    timeout_seconds:
        Socket timeout per exchange (connect + read).
    max_retries:
        Additional attempts after the first, spent only on retryable
        failures (429/503/transport).
    backoff_seconds / backoff_max_seconds:
        Full-jitter exponential backoff envelope between attempts.
    jitter_seed:
        Seeds the jitter stream; equal seeds replay equal delays.
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_seconds: float = 30.0,
        max_retries: int = 3,
        backoff_seconds: float = 0.05,
        backoff_max_seconds: float = 2.0,
        jitter_seed: int = 0,
        sleep: Callable[[float], None] = _time.sleep,
    ):
        self.host = host
        self.port = port
        self.timeout_seconds = timeout_seconds
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.backoff_max_seconds = backoff_max_seconds
        self.jitter_seed = jitter_seed
        self.sleep = sleep
        self._ordinal = 0

    # -- one attempt ------------------------------------------------------

    def _attempt(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: Mapping[str, str],
    ) -> ClientResponse:
        """One HTTP exchange; transport trouble raises ``OSError``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_seconds
        )
        try:
            connection.request(method, target, body=body, headers=dict(headers))
            response = connection.getresponse()
            payload = response.read()
            lowered = {
                name.lower(): value
                for name, value in response.getheaders()
            }
            return ClientResponse(
                status=response.status, headers=lowered, body=payload
            )
        finally:
            connection.close()

    def _backoff_for(self, retry_number: int) -> float:
        key = (
            (self.jitter_seed * _JITTER_MIX)
            ^ (self._ordinal * 0x9E3779B1)
            ^ retry_number
        ) & 0xFFFFFFFF
        return full_jitter_backoff(
            self.backoff_seconds,
            retry_number,
            cap_seconds=self.backoff_max_seconds,
            rng=random.Random(key),
        )

    # -- retry loop -------------------------------------------------------

    def request(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
        *,
        retryable: frozenset[int] = RETRYABLE_STATUSES,
    ) -> ClientResponse:
        """Exchange with retries; returns whatever status finally lands.

        Retries cover ``retryable`` statuses (default 429/503,
        honouring ``Retry-After``) and transport failures.  Exhausted
        retries raise
        :class:`~repro.service.errors.ServiceUnavailableError`; other
        statuses — including terminal errors like 400 — return
        normally for the caller to interpret.
        """
        self._ordinal += 1
        send_headers = dict(headers or {})
        last_status = 0
        last_detail = "no attempt made"
        for attempt in range(self.max_retries + 1):
            try:
                response = self._attempt(method, target, body, send_headers)
            except (OSError, http.client.HTTPException, socket.timeout) as exc:
                last_status = 0
                last_detail = f"transport failure: {exc!r}"
            else:
                if response.status not in retryable:
                    return ClientResponse(
                        status=response.status,
                        headers=response.headers,
                        body=response.body,
                        retries=attempt,
                    )
                last_status = response.status
                last_detail = (
                    f"status {response.status}: "
                    f"{response.body[:200].decode('utf-8', 'replace')}"
                )
                retry_after = response.header("retry-after")
                if attempt < self.max_retries and retry_after is not None:
                    try:
                        floor = float(retry_after)
                    except ValueError:
                        floor = 0.0
                    delay = max(self._backoff_for(attempt + 1), floor)
                    if delay > 0:
                        self.sleep(delay)
                    continue
            if attempt < self.max_retries:
                delay = self._backoff_for(attempt + 1)
                if delay > 0:
                    self.sleep(delay)
        raise ServiceUnavailableError(
            f"{method} {target} failed after {self.max_retries + 1} "
            f"attempts; last: {last_detail}",
            status=last_status,
        )

    def _expect(
        self,
        response: ClientResponse,
        *good: int,
    ) -> ClientResponse:
        if response.status in good:
            return response
        raise ServiceRequestError(
            f"service answered {response.status}: "
            f"{response.body[:200].decode('utf-8', 'replace')}",
            status=response.status,
        )

    # -- typed endpoints --------------------------------------------------

    def compress(
        self,
        values: np.ndarray,
        *,
        codec: str | None = None,
        preference: str | None = None,
        linearization: str | None = None,
        chunk_elements: int | None = None,
        tau: float | None = None,
        deadline_ms: float | None = None,
    ) -> CompressOutcome:
        """Compress ``values`` through the service."""
        arr = np.ascontiguousarray(values)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        params = {
            "codec": codec,
            "preference": preference,
            "linearization": linearization,
            "chunk_elements": chunk_elements,
            "tau": tau,
        }
        query = "&".join(
            f"{name}={value}" for name, value in params.items()
            if value is not None
        )
        target = "/v1/compress" + (f"?{query}" if query else "")
        headers = {"X-Isobar-Dtype": str(arr.dtype)}
        if deadline_ms is not None:
            headers["X-Isobar-Deadline-Ms"] = str(deadline_ms)
        response = self._expect(
            self.request("POST", target, arr.tobytes(), headers), 200
        )
        causes_text = response.header("x-isobar-degradation")
        return CompressOutcome(
            payload=response.body,
            codec=response.header("x-isobar-codec", ""),
            ratio=float(response.header("x-isobar-ratio", "0")),
            degraded_chunks=int(response.header("x-isobar-degraded", "0")),
            degradation_causes=(
                json.loads(causes_text) if causes_text else {}
            ),
            retries=response.retries,
        )

    def decompress(
        self,
        payload: bytes,
        *,
        errors: str = "raise",
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Decompress a container through the service."""
        headers: dict[str, str] = {}
        if deadline_ms is not None:
            headers["X-Isobar-Deadline-Ms"] = str(deadline_ms)
        response = self._expect(
            self.request(
                "POST", f"/v1/decompress?errors={errors}", payload, headers
            ),
            200,
        )
        dtype_name = response.header("x-isobar-dtype")
        if dtype_name is None:
            raise ServiceRequestError(
                "response is missing the X-Isobar-Dtype header", status=200
            )
        values = np.frombuffer(response.body, dtype=np.dtype(dtype_name))
        declared = response.header("x-isobar-elements")
        if declared is not None and int(declared) != values.size:
            raise InvalidInputError(
                f"decompressed body holds {values.size} elements but the "
                f"service declared {declared} — truncated response?"
            )
        return values

    def salvage(
        self,
        payload: bytes,
        *,
        policy: str = "skip",
        unclosed: bool = False,
        deadline_ms: float | None = None,
    ) -> SalvageOutcome:
        """Salvage whatever is recoverable from a damaged container."""
        headers: dict[str, str] = {}
        if deadline_ms is not None:
            headers["X-Isobar-Deadline-Ms"] = str(deadline_ms)
        target = f"/v1/salvage?policy={policy}"
        if unclosed:
            target += "&unclosed=1"
        response = self._expect(
            self.request("POST", target, payload, headers), 200, 206
        )
        dtype_name = response.header("x-isobar-dtype")
        values = (
            np.frombuffer(response.body, dtype=np.dtype(dtype_name))
            if dtype_name else np.empty(0)
        )
        return SalvageOutcome(
            values=values,
            complete=response.status == 200,
            recovered_chunks=int(
                response.header("x-isobar-salvage-recovered-chunks", "0")
            ),
            lost_chunks=int(
                response.header("x-isobar-salvage-lost-chunks", "0")
            ),
            recovered_elements=int(
                response.header("x-isobar-salvage-recovered-elements", "0")
            ),
            lost_elements=int(
                response.header("x-isobar-salvage-lost-elements", "0")
            ),
            retries=response.retries,
        )

    def stats(self) -> dict:
        """``GET /v1/stats``."""
        return self._expect(self.request("GET", "/v1/stats"), 200).json()

    def healthz(self) -> dict:
        """``GET /healthz`` (parsed even when the answer is 503)."""
        response = self.request("GET", "/healthz", retryable=frozenset())
        return self._expect(response, 200, 503).json()

    def metrics_text(self) -> str:
        """``GET /metrics`` in Prometheus exposition format."""
        response = self._expect(self.request("GET", "/metrics"), 200)
        return response.body.decode("utf-8")
