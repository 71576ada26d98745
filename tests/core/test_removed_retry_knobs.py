"""The compress path's retry, breaker and chunk-deadline knobs stay removed.

Earlier releases retried a failing chunk with exponential backoff and
seeded jitter before degrading it, opened a per-codec circuit breaker
after consecutive failing chunks, and ran every solver call under a
per-chunk wall-clock deadline.  The built-in codecs run in process and
their verdict depends only on the chunk's bytes, so a retry failed
again, and the breaker and the deadline made a chunk's encoding depend
on earlier chunks, requests and the clock.  A failing chunk now
degrades on its one try and on nothing else.  Scripts and configs may
still pass the old knobs: each must fail loudly (a ``TypeError`` or a
CLI usage error), never be ignored.
"""

import dataclasses

import numpy as np
import pytest

import repro.core
import repro.core.resilience as resilience
import repro.service
import repro.service.app
import repro.service.errors
from repro.cli import main
from repro.core.pipeline import ChunkReport, EncodedChunk, IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.resilience import (
    DegradationEvent,
    DegradationReport,
    ResiliencePolicy,
)
from repro.datasets.loaders import save_raw
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.testing.chaos import FlakyCodec, chaos_codec

REMOVED_FIELDS = [
    "max_attempts",
    "retry_backoff_seconds",
    "retry_backoff_max_seconds",
    "retry_jitter",
    "retry_jitter_seed",
    "sleep",
    "chunk_deadline_seconds",
    "breaker_threshold",
    "breaker_probe_after",
]

REMOVED_NAMES = [
    "BreakerBoard",
    "BreakerSnapshot",
    "BreakerState",
    "CodecCircuitBreaker",
    "BreakerOpenError",
    "DEFAULT_SERVICE_POLICY",
]

REMOVED_FLAGS = [
    ["--retries", "1"],
    ["--retry-backoff", "0.1"],
    ["--retry-jitter"],
    ["--retry-jitter-seed", "3"],
]


def test_policy_has_exactly_the_three_kept_fields():
    assert [f.name for f in dataclasses.fields(ResiliencePolicy)] == [
        "fallback_zlib",
        "verify_roundtrip",
        "strict",
    ]


@pytest.mark.parametrize("name", REMOVED_FIELDS)
def test_policy_rejects_removed_field(name):
    with pytest.raises(TypeError):
        ResiliencePolicy(**{name: 2})


@pytest.mark.parametrize("name", [
    "backoff_delay", "pause_before_retry", "_JITTER_MIX",
    "full_jitter_backoff",
])
def test_backoff_helpers_are_gone(name):
    assert not hasattr(ResiliencePolicy, name)
    assert not hasattr(resilience, name)


def test_no_retry_accounting_left():
    for cls in (EncodedChunk, ChunkReport, DegradationReport,
                DegradationEvent):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert not fields & {"retries", "attempts"}
    assert "retries" not in DegradationReport().to_dict()
    event = DegradationEvent(0, "error", "raw")
    assert "attempts" not in event.to_dict()
    compressor = IsobarCompressor(IsobarConfig(), collect_metrics=True)
    compressor.compress(np.arange(5_000, dtype=np.float64))
    for name in ("isobar_chunk_retries_total", "isobar_breaker_state"):
        assert compressor.metrics.get(name) is None
    assert not hasattr(compressor, "breakers")


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_breaker_names_are_gone(name):
    for module in (repro.core, resilience, repro.service,
                   repro.service.app, repro.service.errors):
        assert not hasattr(module, name)


def test_pinned_codec_is_never_shed_by_other_failures():
    """A ``?codec=`` pin whose codec keeps failing gets a degraded 200
    on every request: no request's outcome depends on another's."""
    handle = ServiceThread(ServiceConfig(
        isobar=ServiceConfig().isobar.replace(chunk_elements=2048),
    ))
    host, port = handle.start()
    try:
        client = ServiceClient(host, port, max_retries=0)
        data = np.cumsum(np.random.default_rng(0).normal(size=20_000))
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            for _ in range(4):
                response = client.request(
                    "POST", "/v1/compress?codec=zlib", data.tobytes(),
                    {"X-Isobar-Dtype": "float64"}, retryable=frozenset(),
                )
                assert response.status == 200
                assert response.header("x-isobar-degraded") is not None
        health = client.healthz()
        assert "breakers" not in health and "open_breakers" not in health
        assert "breakers" not in client.stats()
    finally:
        handle.stop()


@pytest.mark.parametrize("flag", REMOVED_FLAGS, ids=lambda f: f[0])
@pytest.mark.parametrize("command", ["compress", "serve"])
def test_cli_rejects_removed_flag(command, flag, tmp_path, capsys):
    raw = tmp_path / "in.rds"
    save_raw(raw, np.arange(1_000, dtype=np.float64))
    paths = [str(raw), str(tmp_path / "out.isobar")]
    argv = [command] + (paths if command == "compress" else []) + flag
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out.isobar").exists()
