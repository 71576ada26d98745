"""A selector name this build no longer registers fails cleanly.

Earlier releases registered two history-dependent strategies,
``"learned"`` and ``"cached"``, so scripts, configs and service
clients may still ask for them.  Every entry point that selects must
answer such a name with a :class:`ConfigurationError` naming it (or
the matching exit status or HTTP 400), never with a crash or a
silent fallback to another strategy.
"""

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.exceptions import ConfigurationError
from repro.core.preferences import IsobarConfig
from repro.core.selector import resolve_selector, selector_strategy_names
from repro.datasets.loaders import save_raw
from repro.service.app import ServiceThread
from repro.service.client import ServiceClient

REMOVED = ["learned", "cached"]


@pytest.fixture(params=REMOVED)
def name(request):
    assert request.param not in selector_strategy_names()
    return request.param


@pytest.fixture
def values():
    return np.cumsum(np.random.default_rng(4).normal(size=5_000))


def _assert_names(excinfo, name):
    assert f"unknown selector strategy {name!r}" in str(excinfo.value)


def test_resolve_selector_raises(name):
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_selector(IsobarConfig(selector=name))
    _assert_names(excinfo, name)


def test_compress_raises(name, values):
    with pytest.raises(ConfigurationError) as excinfo:
        repro.compress(values, selector=name)
    _assert_names(excinfo, name)


def test_plan_raises(name, values):
    with pytest.raises(ConfigurationError) as excinfo:
        repro.plan(values, selector=name)
    _assert_names(excinfo, name)


def test_open_stream_write_raises_and_leaves_no_file(name, tmp_path):
    path = tmp_path / "out.isbr"
    with pytest.raises(ConfigurationError) as excinfo:
        repro.open_stream(path, "w", dtype=np.float64, selector=name)
    _assert_names(excinfo, name)
    assert list(tmp_path.iterdir()) == []


def test_cli_compress_exits_nonzero(name, values, tmp_path, capsys):
    raw = tmp_path / "in.rds"
    save_raw(raw, values)
    out = tmp_path / "out.isobar"
    capsys.readouterr()
    assert main(["compress", str(raw), str(out), "--selector", name]) != 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert repr(name) in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "route, removed",
    [("/v1/compress", "cached"), ("/v1/plan", "learned")],
)
def test_service_is_400(route, removed, values):
    handle = ServiceThread()
    host, port = handle.start()
    try:
        client = ServiceClient(host, port, max_retries=0)
        response = client.request(
            "POST",
            f"{route}?dtype=float64&selector={removed}",
            values.tobytes(),
            retryable=frozenset(),
        )
    finally:
        handle.stop()
    assert response.status == 400
    assert removed in response.body.decode("utf-8")
