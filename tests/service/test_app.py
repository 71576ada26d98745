"""Integration tests for the resilient compression service.

Every test stands a real :class:`~repro.service.app.IsobarService` up
on a loopback socket (via :class:`~repro.service.app.ServiceThread`)
and talks to it over actual HTTP — the admission gate, deadline
propagation, breaker mapping and drain sequence are exercised exactly
as production traffic would.
"""

import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.service.app import ServiceConfig, ServiceThread
from repro.service.chaos import NetworkChaos, NetworkChaosPolicy
from repro.service.client import ServiceClient
from repro.service.errors import ServiceRequestError, ServiceUnavailableError
from repro.testing.chaos import FlakyCodec, HangingCodec, chaos_codec


@pytest.fixture()
def small_chunks_config():
    """A service config with small chunks (fast, multi-chunk runs)."""
    return ServiceConfig(
        isobar=ServiceConfig().isobar.replace(chunk_elements=2048),
    )


@pytest.fixture()
def service(small_chunks_config):
    handle = ServiceThread(small_chunks_config)
    host, port = handle.start()
    try:
        yield handle, ServiceClient(host, port, max_retries=0)
    finally:
        handle.stop()


def _values(n=10_000, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=n))


class TestRoundTrips:
    def test_compress_decompress_roundtrip(self, service):
        _, client = service
        data = _values()
        outcome = client.compress(data)
        assert outcome.ratio > 1.0
        assert not outcome.degraded
        restored = client.decompress(outcome.payload)
        assert np.array_equal(restored, data)

    def test_concurrent_roundtrips(self, service):
        _, client_proto = service
        errors = []

        def _roundtrip(worker_id):
            try:
                client = ServiceClient(
                    client_proto.host, client_proto.port, max_retries=2
                )
                data = _values(6_000 + worker_id * 131, seed=worker_id)
                restored = client.decompress(client.compress(data).payload)
                if not np.array_equal(restored, data):
                    errors.append(f"worker {worker_id}: data mismatch")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(f"worker {worker_id}: {exc!r}")

        threads = [
            threading.Thread(target=_roundtrip, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_compress_with_query_overrides(self, service):
        _, client = service
        outcome = client.compress(
            _values(), codec="zlib", preference="speed", chunk_elements=4096
        )
        assert outcome.codec == "zlib"

    def test_salvage_of_clean_container_is_complete(self, service):
        _, client = service
        data = _values()
        payload = client.compress(data).payload
        outcome = client.salvage(payload)
        assert outcome.complete
        assert outcome.lost_chunks == 0
        assert np.array_equal(outcome.values, data)

    def test_salvage_of_damaged_container_is_206_partial(self, service):
        _, client = service
        data = _values(20_000)
        payload = bytearray(client.compress(data).payload)
        payload[len(payload) // 2] ^= 0xFF  # corrupt one mid-file chunk
        outcome = client.salvage(bytes(payload))
        assert not outcome.complete
        assert outcome.lost_chunks >= 1
        assert outcome.recovered_chunks >= 1

    def test_decompress_of_garbage_is_422(self, service):
        _, client = service
        with pytest.raises(ServiceRequestError) as excinfo:
            client.decompress(b"this is not a container")
        assert excinfo.value.status == 422


class TestRequestValidation:
    def test_missing_dtype_is_400(self, service):
        _, client = service
        response = client.request("POST", "/v1/compress", b"\x00" * 64)
        assert response.status == 400
        assert json.loads(response.body)["type"] == "InvalidInputError"

    def test_misaligned_body_is_400(self, service):
        _, client = service
        response = client.request(
            "POST", "/v1/compress", b"\x00" * 13,
            {"X-Isobar-Dtype": "float64"},
        )
        assert response.status == 400

    def test_unknown_route_is_404(self, service):
        _, client = service
        assert client.request("GET", "/nope").status == 404

    def test_wrong_method_is_405(self, service):
        _, client = service
        assert client.request("GET", "/v1/compress").status == 405
        assert client.request("POST", "/healthz").status == 405

    def test_unknown_codec_is_400(self, service):
        _, client = service
        arr = _values(1000)
        response = client.request(
            "POST", "/v1/compress?codec=warpdrive", arr.tobytes(),
            {"X-Isobar-Dtype": "float64"},
        )
        assert response.status == 400

    def test_bad_deadline_is_400(self, service):
        _, client = service
        response = client.request(
            "POST", "/v1/compress", _values(100).tobytes(),
            {"X-Isobar-Dtype": "float64", "X-Isobar-Deadline-Ms": "soon"},
        )
        assert response.status == 400


class TestObservability:
    def test_healthz_and_stats_and_metrics(self, service):
        _, client = service
        client.compress(_values(2_000))
        health = client.healthz()
        assert health["status"] == "ok"
        assert not health["draining"]
        assert health["open_breakers"] == []
        stats = client.stats()
        assert stats["requests_by_status"].get("200", 0) >= 1
        assert "POST /v1/compress" in stats["requests_by_route"]
        text = client.metrics_text()
        assert "isobar_service_requests_total" in text
        assert "isobar_service_request_seconds" in text

    def test_metrics_json_format(self, service):
        _, client = service
        response = client.request("GET", "/metrics?format=json")
        assert response.status == 200
        names = {m["name"] for m in response.json()["metrics"]}
        assert "isobar_service_requests_total" in names

    def test_stats_reports_selector_section(self, service):
        _, client = service
        client.compress(_values(2_000))
        stats = client.stats()
        selector = stats["selector"]
        assert set(selector) == {"failed_candidates"}
        assert selector["failed_candidates"] == {}


class TestPlanEndpoint:
    def test_plan_returns_decision_document(self, service):
        _, client = service
        data = _values(8_000)
        response = client.request(
            "POST", "/v1/plan?dtype=float64", data.tobytes()
        )
        assert response.status == 200
        assert response.header("content-type") == "application/json"
        doc = response.json()
        assert doc["origin"] == "probe"
        assert doc["codec"] == response.header("x-isobar-codec")
        assert doc["candidates"]

    def test_plan_honours_overrides(self, service):
        _, client = service
        data = _values(8_000)
        response = client.request(
            "POST",
            "/v1/plan?dtype=float64&codec=zlib&preference=speed",
            data.tobytes(),
        )
        assert response.status == 200
        doc = response.json()
        assert doc["codec"] == "zlib"
        assert doc["preference"] == "speed"

    def test_plan_and_compress_accept_selector_strategies(
        self, service, custom_selector
    ):
        _, client = service
        data = _values(8_000)
        response = client.request(
            "POST",
            f"/v1/plan?dtype=float64&selector={custom_selector}",
            data.tobytes(),
        )
        assert response.status == 200
        assert response.json()["origin"] == "custom"

        outcome = client.compress(data)
        restored = client.decompress(outcome.payload)
        assert np.array_equal(restored, data)
        for _ in range(2):
            custom = client.request(
                "POST",
                f"/v1/compress?dtype=float64&selector={custom_selector}",
                data.tobytes(),
            )
            assert custom.status == 200
        restored = client.decompress(custom.body)
        assert np.array_equal(restored, data)

    def test_plan_requires_dtype(self, service):
        _, client = service
        response = client.request("POST", "/v1/plan", b"\x00" * 64)
        assert response.status == 400

    def test_plan_rejects_unknown_selector(self, service):
        _, client = service
        response = client.request(
            "POST",
            "/v1/plan?dtype=float64&selector=bogus",
            _values(1_000).tobytes(),
        )
        assert response.status == 400


class TestDeadlines:
    def test_deadline_expiry_is_504_and_slot_is_reclaimed(
        self, small_chunks_config
    ):
        handle = ServiceThread(small_chunks_config)
        host, port = handle.start()
        try:
            client = ServiceClient(host, port, max_retries=0)
            data = _values(4_000)
            with chaos_codec(HangingCodec(
                "zlib", hang_seconds=3.0, hang_percent=100.0,
            )):
                started = time.monotonic()
                response = client.request(
                    "POST", "/v1/compress?codec=zlib", data.tobytes(),
                    {"X-Isobar-Dtype": "float64",
                     "X-Isobar-Deadline-Ms": "300"},
                )
                elapsed = time.monotonic() - started
            assert response.status == 504
            assert json.loads(response.body)["type"] == "ChunkTimeoutError"
            # The 504 must arrive on deadline, not after the hang.
            assert elapsed < 2.0
            # The executor slot was reclaimed: the service still
            # answers promptly (no leaked in-flight work).
            outcome = client.compress(data)
            assert outcome.ratio > 0
            assert handle.service.stats()["inflight"] == 0
        finally:
            handle.stop()


class TestAdmissionControl:
    def test_queue_full_sheds_with_429_and_retry_after(self):
        config = ServiceConfig(
            max_inflight=1, max_queue=0,
            isobar=ServiceConfig().isobar.replace(chunk_elements=2048),
        )
        handle = ServiceThread(config)
        host, port = handle.start()
        try:
            data = _values(4_000)
            occupied = threading.Event()
            slow_status = []

            def _occupy():
                client = ServiceClient(host, port, max_retries=0)
                with chaos_codec(HangingCodec(
                    "zlib", hang_seconds=1.5, hang_percent=100.0,
                )):
                    occupied.set()
                    response = client.request(
                        "POST", "/v1/compress?codec=zlib", data.tobytes(),
                        {"X-Isobar-Dtype": "float64"},
                    )
                    slow_status.append(response.status)

            blocker = threading.Thread(target=_occupy)
            blocker.start()
            occupied.wait()
            time.sleep(0.3)  # let the slow request take the only slot

            client = ServiceClient(host, port, max_retries=0)
            response = client.request(
                "POST", "/v1/compress", data.tobytes(),
                {"X-Isobar-Dtype": "float64"}, retryable=frozenset(),
            )
            blocker.join()
            assert response.status == 429
            assert json.loads(response.body)["type"] == "QueueFullError"
            assert float(response.header("retry-after")) >= 1
            assert slow_status == [200]  # the occupant finished normally
            assert handle.service.stats()["shed"] == 1
        finally:
            handle.stop()

    def test_client_retries_through_a_shed(self):
        """With retries enabled the client rides out the 429."""
        config = ServiceConfig(
            max_inflight=1, max_queue=0,
            isobar=ServiceConfig().isobar.replace(chunk_elements=2048),
        )
        handle = ServiceThread(config)
        host, port = handle.start()
        try:
            data = _values(4_000)

            def _occupy():
                with chaos_codec(HangingCodec(
                    "zlib", hang_seconds=1.0, hang_percent=100.0,
                )):
                    ServiceClient(host, port).request(
                        "POST", "/v1/compress?codec=zlib", data.tobytes(),
                        {"X-Isobar-Dtype": "float64"},
                    )

            blocker = threading.Thread(target=_occupy)
            blocker.start()
            time.sleep(0.3)
            client = ServiceClient(
                host, port, max_retries=4, backoff_seconds=0.3,
                jitter_seed=7,
            )
            outcome = client.compress(data)
            blocker.join()
            assert outcome.ratio > 0
            assert outcome.retries >= 1  # at least one shed was ridden out
        finally:
            handle.stop()


class TestBreakerMapping:
    def test_open_breaker_is_503_until_reset(self, small_chunks_config):
        handle = ServiceThread(small_chunks_config)
        host, port = handle.start()
        try:
            client = ServiceClient(host, port, max_retries=0)
            data = _values(20_000)  # ~10 chunks of 2048
            with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
                # Every chunk fails, the fallback keeps the response a
                # degraded 200, and the breaker opens mid-run.
                outcome = client.compress(data, codec="zlib")
                assert outcome.degraded
                assert "error" in outcome.degradation_causes

                response = client.request(
                    "POST", "/v1/compress?codec=zlib", data.tobytes(),
                    {"X-Isobar-Dtype": "float64"}, retryable=frozenset(),
                )
                assert response.status == 503
                assert json.loads(response.body)["type"] == "BreakerOpenError"
                assert response.header("retry-after") is not None

            health = client.healthz()
            assert "zlib" in health["open_breakers"]

            # Operator override: BreakerBoard.reset() through the
            # service — the pinned codec is accepted again.
            handle.service.reset_breakers()
            assert client.healthz()["open_breakers"] == []
            outcome = client.compress(data, codec="zlib")
            assert not outcome.degraded
        finally:
            handle.stop()

    def test_degraded_output_still_decodes_exactly(self, small_chunks_config):
        handle = ServiceThread(small_chunks_config)
        host, port = handle.start()
        try:
            client = ServiceClient(host, port, max_retries=0)
            data = _values(12_000)
            with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
                outcome = client.compress(data, codec="zlib")
            assert outcome.degraded
            restored = client.decompress(outcome.payload)
            assert np.array_equal(restored, data)
        finally:
            handle.stop()


class TestDrain:
    def test_drain_finishes_inflight_and_refuses_new_work(
        self, small_chunks_config
    ):
        handle = ServiceThread(small_chunks_config)
        host, port = handle.start()
        statuses = []

        def _slow_request():
            client = ServiceClient(host, port, max_retries=0)
            data = _values(4_000)
            with chaos_codec(HangingCodec(
                "zlib", hang_seconds=1.0, hang_percent=100.0,
            )):
                response = client.request(
                    "POST", "/v1/compress?codec=zlib", data.tobytes(),
                    {"X-Isobar-Dtype": "float64"},
                )
                statuses.append(response.status)

        inflight = threading.Thread(target=_slow_request)
        inflight.start()
        time.sleep(0.3)  # the slow request is mid-compute
        handle.stop()  # drain: must wait for it, then shut down
        inflight.join()
        assert statuses == [200]
        assert handle.service.draining
        with pytest.raises(ServiceUnavailableError):
            ServiceClient(host, port, max_retries=0).request(
                "GET", "/v1/stats"
            )

    def test_sigterm_drains_a_real_process(self, tmp_path):
        """SIGTERM mid-request: the request completes, exit code 0."""
        repo_root = Path(__file__).resolve().parents[2]
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--port", "0", "--chunk-elements", "2048"],
            env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            banner = proc.stdout.readline()
            port = int(banner.strip().rsplit(":", 1)[1])
            client = ServiceClient("127.0.0.1", port, max_retries=0)
            result = []

            def _request():
                data = _values(400_000)  # big enough to straddle SIGTERM
                outcome = client.compress(data)
                result.append(outcome.ratio)

            worker = threading.Thread(target=_request)
            worker.start()
            # Wait until the request is actually in flight (or already
            # finished) before signalling, else the drain races the
            # admission and the connection is refused instead.
            poll = ServiceClient("127.0.0.1", port, max_retries=0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not result:
                stats = poll.stats()
                if stats["inflight"] > 0:
                    break
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=20)
            assert result and result[0] > 0  # in-flight work completed
            assert proc.wait(timeout=10) == 0  # clean drain exit
            tail = proc.stdout.read()
            assert "drained" in tail
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_healthz_reports_draining(self, small_chunks_config):
        handle = ServiceThread(small_chunks_config)
        host, port = handle.start()
        # Grab the draining flag transition through the public API: ask
        # for the drain, then verify the flag (the listener closes, so
        # healthz-over-HTTP is no longer reachable afterwards).
        handle.stop()
        assert handle.service.draining


class TestNetworkChaosE2E:
    def test_truncated_responses_are_detected_by_the_client(
        self, small_chunks_config
    ):
        chaos = NetworkChaos(NetworkChaosPolicy(truncate_percent=100.0))
        handle = ServiceThread(small_chunks_config, chaos=chaos)
        host, port = handle.start()
        try:
            client = ServiceClient(host, port, max_retries=1,
                                   backoff_seconds=0.01)
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.compress(_values(4_000))
            assert excinfo.value.status == 0  # transport, not an HTTP status
            assert chaos.truncations >= 1
            assert handle.service.stats()["aborted_responses"] >= 1
        finally:
            handle.stop()

    def test_delays_and_stalls_only_slow_requests_down(
        self, small_chunks_config
    ):
        chaos = NetworkChaos(NetworkChaosPolicy(
            delay_percent=100.0, delay_seconds=0.05,
            stall_percent=100.0, stall_seconds=0.05,
        ))
        handle = ServiceThread(small_chunks_config, chaos=chaos)
        host, port = handle.start()
        try:
            client = ServiceClient(host, port, max_retries=0)
            data = _values(6_000)
            restored = client.decompress(client.compress(data).payload)
            assert np.array_equal(restored, data)
            assert chaos.delays >= 1
            assert chaos.stalls >= 1
        finally:
            handle.stop()

    def test_solver_and_network_chaos_compose(self, small_chunks_config):
        chaos = NetworkChaos(NetworkChaosPolicy(
            delay_percent=50.0, delay_seconds=0.02,
        ))
        handle = ServiceThread(small_chunks_config, chaos=chaos)
        host, port = handle.start()
        try:
            client = ServiceClient(host, port, max_retries=2,
                                   backoff_seconds=0.02)
            data = _values(12_000)
            with chaos_codec(FlakyCodec("zlib", fail_percent=30.0, seed=5)):
                outcome = client.compress(data, codec="zlib")
            restored = client.decompress(outcome.payload)
            assert np.array_equal(restored, data)
        finally:
            handle.stop()
