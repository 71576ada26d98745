"""Opt-in chaos smoke run (``pytest -m chaos``).

Reuses the driver from ``benchmarks/run_chaos_smoke.py``: seeded flaky
codecs against the resilience layer, asserting compression completes,
the degraded set is exactly the doomed set, serial, 2 and 4 workers,
the streaming writer and a repeat run write one container, and the
output decodes bit-exactly through all four readers with a pristine
registry.  ``test_driver_smoke`` runs one seed; the ``chaos``-marked
sweep runs five more (the default run includes it).
"""

import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
if str(_BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(_BENCH_DIR))

from run_chaos_smoke import run  # noqa: E402


def test_driver_smoke():
    """One full pass, always on: keeps the chaos driver honest."""
    assert run(seed=0, verbose=False) == []


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_chaos_containment_sweep(seed):
    assert run(seed=seed, verbose=False) == []
