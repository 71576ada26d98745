"""Client retry/backoff behaviour, without a live server.

The transport (``ServiceClient._attempt``) is replaced with a scripted
fake and ``sleep`` is captured, so every delay decision is asserted
exactly — no wall-clock waits.
"""

import random

import pytest

from repro.service.client import (
    ClientResponse,
    ServiceClient,
    full_jitter_backoff,
)
from repro.service.errors import ServiceUnavailableError


def _scripted_client(script, **kwargs):
    """A client whose exchanges replay ``script`` and record sleeps.

    ``script`` entries are either a ``ClientResponse`` or an exception
    instance (raised as a transport failure).
    """
    slept = []
    kwargs.setdefault("backoff_seconds", 0.25)
    client = ServiceClient("test", 0, sleep=slept.append, **kwargs)
    remaining = list(script)

    def _attempt(method, target, body, headers):
        step = remaining.pop(0)
        if isinstance(step, BaseException):
            raise step
        return step

    client._attempt = _attempt
    return client, slept, remaining


def _response(status, headers=None, body=b"{}"):
    return ClientResponse(
        status=status, headers=headers or {}, body=body
    )


class TestRetryLoop:
    def test_success_passes_straight_through(self):
        client, slept, remaining = _scripted_client([_response(200)])
        response = client.request("GET", "/v1/stats")
        assert response.status == 200
        assert response.retries == 0
        assert slept == []
        assert remaining == []

    def test_terminal_400_is_not_retried(self):
        client, slept, _ = _scripted_client(
            [_response(400), _response(200)]
        )
        response = client.request("POST", "/v1/compress", b"x")
        assert response.status == 400
        assert slept == []

    def test_429_retries_until_success_and_counts_retries(self):
        client, slept, remaining = _scripted_client([
            _response(429, {"retry-after": "1"}),
            _response(429, {"retry-after": "1"}),
            _response(200),
        ])
        response = client.request("POST", "/v1/compress", b"x")
        assert response.status == 200
        assert response.retries == 2
        assert len(slept) == 2
        assert remaining == []

    def test_retry_after_is_a_floor_on_the_delay(self):
        client, slept, _ = _scripted_client([
            _response(503, {"retry-after": "2"}),
            _response(200),
        ])
        client.request("GET", "/healthz-ish")
        assert len(slept) == 1
        assert slept[0] >= 2.0

    def test_transport_failures_are_retried(self):
        client, slept, _ = _scripted_client([
            ConnectionResetError("boom"),
            _response(200),
        ])
        response = client.request("POST", "/v1/compress", b"x")
        assert response.status == 200
        assert response.retries == 1
        assert len(slept) == 1

    def test_exhausted_retries_raise_with_last_status(self):
        client, slept, _ = _scripted_client(
            [_response(503, {"retry-after": "1"})] * 3,
            max_retries=2,
        )
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.request("POST", "/v1/compress", b"x")
        assert excinfo.value.status == 503
        assert len(slept) == 2

    def test_exhausted_transport_failures_have_status_zero(self):
        client, _, _ = _scripted_client(
            [ConnectionRefusedError("nope")] * 3, max_retries=2,
        )
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.request("GET", "/v1/stats")
        assert excinfo.value.status == 0

    def test_custom_retryable_set_disables_retries(self):
        client, slept, _ = _scripted_client([_response(503)])
        response = client.request(
            "GET", "/healthz", retryable=frozenset()
        )
        assert response.status == 503
        assert slept == []


class TestBackoffDeterminism:
    def test_same_seed_replays_the_same_delays(self):
        script = [
            ConnectionResetError("x"), ConnectionResetError("x"),
            ConnectionResetError("x"), _response(200),
        ]
        client_a, slept_a, _ = _scripted_client(
            list(script), jitter_seed=42, max_retries=3
        )
        client_b, slept_b, _ = _scripted_client(
            list(script), jitter_seed=42, max_retries=3
        )
        client_a.request("GET", "/")
        client_b.request("GET", "/")
        assert slept_a == slept_b
        assert len(slept_a) == 3

    def test_different_seeds_decorrelate(self):
        script = [ConnectionResetError("x")] * 3 + [_response(200)]
        client_a, slept_a, _ = _scripted_client(
            list(script), jitter_seed=1, max_retries=3
        )
        client_b, slept_b, _ = _scripted_client(
            list(script), jitter_seed=2, max_retries=3
        )
        client_a.request("GET", "/")
        client_b.request("GET", "/")
        assert slept_a != slept_b

    def test_delays_stay_inside_the_jitter_envelope(self):
        client, slept, _ = _scripted_client(
            [ConnectionResetError("x")] * 4 + [_response(200)],
            max_retries=4, backoff_seconds=0.1, backoff_max_seconds=0.4,
        )
        client.request("GET", "/")
        assert len(slept) == 4
        for retry_number, delay in enumerate(slept, start=1):
            envelope = min(0.1 * 2 ** (retry_number - 1), 0.4)
            assert 0.0 <= delay <= envelope


class TestFullJitterBackoff:
    def test_without_rng_returns_the_envelope(self):
        assert full_jitter_backoff(0.1, 1) == pytest.approx(0.1)
        assert full_jitter_backoff(0.1, 2) == pytest.approx(0.2)
        assert full_jitter_backoff(0.1, 3) == pytest.approx(0.4)

    def test_cap_bounds_the_envelope(self):
        assert full_jitter_backoff(0.1, 10, cap_seconds=0.5) == 0.5

    def test_degenerate_inputs_are_zero(self):
        assert full_jitter_backoff(0.0, 3) == 0.0
        assert full_jitter_backoff(0.1, 0) == 0.0

    def test_rng_draws_from_the_full_interval(self):
        rng = random.Random(0)
        draws = [
            full_jitter_backoff(0.1, 3, rng=rng) for _ in range(200)
        ]
        assert all(0.0 <= d <= 0.4 for d in draws)
        assert min(draws) < 0.1 and max(draws) > 0.3  # actually spread
