"""Fuzz smoke run over every container reader.

Reuses the driver from ``benchmarks/run_fuzz_smoke.py``: N seeded
random containers, every fault type, every reader, asserting only
:class:`IsobarError` ever escapes and skip-mode output is never
fabricated.  The ``fuzz`` marker only labels the 25-case run
(``pytest -m fuzz`` selects it alone); the default ``addopts``
deselect no marker, so both tests here run in every default suite
run, the 2-case one keeping the driver itself from rotting.
"""

import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(_BENCH_DIR))

from run_fuzz_smoke import run  # noqa: E402


def test_driver_smoke():
    """Two cases, always on: keeps the fuzz driver importable and honest."""
    assert run(2, seed=1234, verbose=False) == []


@pytest.mark.fuzz
def test_fuzz_containment_25_cases():
    failures = run(25, seed=0, verbose=False)
    assert failures == []
