"""The compress path's chunk-retry knobs stay removed.

Earlier releases retried a failing chunk with exponential backoff and
seeded jitter before degrading it.  The built-in codecs run in process
and their verdict depends only on the chunk's bytes, so a retry failed
again; a failing chunk now degrades on its one try.  Scripts and
configs may still pass the old knobs: each must fail loudly (a
``TypeError`` or a CLI usage error), never be ignored.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.resilience as resilience
from repro.cli import main
from repro.core.pipeline import ChunkReport, EncodedChunk, IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.resilience import DegradationReport, ResiliencePolicy
from repro.datasets.loaders import save_raw

REMOVED_FIELDS = [
    "max_attempts",
    "retry_backoff_seconds",
    "retry_backoff_max_seconds",
    "retry_jitter",
    "retry_jitter_seed",
    "sleep",
]

REMOVED_FLAGS = [
    ["--retries", "1"],
    ["--retry-backoff", "0.1"],
    ["--retry-jitter"],
    ["--retry-jitter-seed", "3"],
]


def test_policy_has_exactly_the_six_kept_fields():
    assert [f.name for f in dataclasses.fields(ResiliencePolicy)] == [
        "chunk_deadline_seconds",
        "fallback_zlib",
        "verify_roundtrip",
        "breaker_threshold",
        "breaker_probe_after",
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
    for cls in (EncodedChunk, ChunkReport, DegradationReport):
        assert "retries" not in {f.name for f in dataclasses.fields(cls)}
    assert "retries" not in DegradationReport().to_dict()
    compressor = IsobarCompressor(IsobarConfig(), collect_metrics=True)
    compressor.compress(np.arange(5_000, dtype=np.float64))
    assert compressor.metrics.get("isobar_chunk_retries_total") is None


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
