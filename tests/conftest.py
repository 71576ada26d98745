"""Shared fixtures for the test suite.

Everything is deterministic: fixtures derive data from fixed seeds so
failures reproduce exactly.

Setting ``ISOBAR_SANITIZE=1`` (what ``isobar sanitize`` does) runs the
whole session under the tsan-lite instrumentation: the repo's
module-global locks are wrapped to feed the process-wide lock-order
graph, the resource leak tracker is installed, and the probe report is
written to ``$ISOBAR_SANITIZE_REPORT`` at session end.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets.synthetic import build_structured


def pytest_sessionstart(session):
    if os.environ.get("ISOBAR_SANITIZE"):
        from repro.devtools.sanitizer.harness import (
            install_suite_instrumentation,
        )

        session.config._isobar_sanitize = install_suite_instrumentation()


def pytest_sessionfinish(session, exitstatus):
    handle = getattr(session.config, "_isobar_sanitize", None)
    if handle is not None:
        handle.finish(os.environ.get("ISOBAR_SANITIZE_REPORT"))


@pytest.fixture
def sanitizer():
    """A scoped tsan-lite harness: lock graph + leak tracker.

    Yields an object with ``graph`` (a fresh
    :class:`~repro.devtools.sanitizer.lockgraph.LockOrderGraph`),
    ``tracker`` (an installed
    :class:`~repro.devtools.sanitizer.leaks.ResourceLeakTracker`) and
    ``lock(name)`` for building instrumented locks on the graph.  At
    teardown the fixture fails the test if the graph contains a
    lock-order cycle or the tracker still holds live resources.
    """
    from repro.core.exceptions import SanitizerError
    from repro.devtools.sanitizer.leaks import ResourceLeakTracker
    from repro.devtools.sanitizer.lockgraph import (
        LockOrderGraph,
        instrumented_lock,
    )

    class _Handle:
        def __init__(self):
            self.graph = LockOrderGraph()
            self.tracker = ResourceLeakTracker().install()

        def lock(self, name, lock=None):
            return instrumented_lock(name, lock=lock, graph=self.graph)

    handle = _Handle()
    try:
        yield handle
    finally:
        handle.tracker.uninstall()
    cycles = handle.graph.find_cycles()
    if cycles:
        raise SanitizerError(
            "lock-order cycle(s): "
            + "; ".join(c.describe() for c in cycles)
        )
    handle.tracker.assert_clean()


@pytest.fixture
def gil_bound_codec():
    """A registered codec that keeps ``releases_gil`` False.

    A :class:`~repro.codecs.CallableCodec` over stdlib zlib, registered
    as ``"gil-bound"`` for the test and unregistered afterwards.
    """
    import zlib

    from repro.codecs.base import (
        CallableCodec,
        register_codec,
        unregister_codec,
    )

    codec = register_codec(
        CallableCodec("gil-bound", zlib.compress, zlib.decompress)
    )
    assert not codec.releases_gil
    try:
        yield codec
    finally:
        unregister_codec(codec.name)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, fixed-seed random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def improvable_doubles(rng) -> np.ndarray:
    """float64 data with 6 noise bytes of 8 — the classic HTC case."""
    return build_structured(20_000, np.float64, 6, rng)


@pytest.fixture
def improvable_floats(rng) -> np.ndarray:
    """float32 data with 2 noise bytes of 4."""
    return build_structured(20_000, np.float32, 2, rng)


@pytest.fixture
def undetermined_doubles(rng) -> np.ndarray:
    """float64 data with no noise bytes — every column compressible."""
    return build_structured(20_000, np.float64, 0, rng)


@pytest.fixture
def incompressible_doubles(rng) -> np.ndarray:
    """float64 data that is pure noise in every byte."""
    bits = rng.integers(0, 1 << 62, size=20_000, dtype=np.int64)
    return bits.view(np.float64)
