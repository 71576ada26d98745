"""Pinned containers whose bzip2 solves span several bzip2 blocks.

The engine-identity digests use 20,000-element inputs, which never fill
a bzip2 block.  Here the three byte fingerprints of the bulk benchmark
(improvable float64 with three noise byte-columns, int64 identifiers,
repetitive float64) run at 500,000 elements: two chunks of 375,000 and
125,000 elements, whose bzip2 solver inputs reach 3 MB (four 900 kB
blocks) on the repetitive array.  ``PINNED`` holds the first 16 hex
digits of each container's SHA-256, recorded with the whole-input
libbz2 call that predates block splitting; every engine mode must still
write exactly those bytes.
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.core.pipeline import IsobarCompressor
from repro.datasets.synthetic import (
    build_particle_ids,
    build_repetitive,
    build_structured,
)

N_ELEMENTS = 500_000
CHUNK = 375_000
SEED = 7321

BUILD = {
    "field_f64": lambda rng: build_structured(N_ELEMENTS, np.float64, 3, rng),
    "particles_i64": lambda rng: build_particle_ids(N_ELEMENTS, rng),
    "repetitive_f64": lambda rng: build_repetitive(
        N_ELEMENTS, np.float64, rng
    ),
}

PINNED = {
    "field_f64": "16c5dcf0d0cb9815",
    "particles_i64": "d1af70a8a2dfbc18",
    "repetitive_f64": "8d23b150fe316743",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module", params=sorted(BUILD))
def fingerprint(request):
    name = request.param
    return name, BUILD[name](np.random.default_rng(SEED))


def test_serial_engine(fingerprint):
    name, values = fingerprint
    assert _digest(IsobarCompressor(n_workers=1).compress(values)) == (
        PINNED[name]
    )


def test_two_worker_engine(fingerprint):
    name, values = fingerprint
    assert _digest(IsobarCompressor(n_workers=2).compress(values)) == (
        PINNED[name]
    )


def test_facade(fingerprint):
    name, values = fingerprint
    assert _digest(repro.compress(values)) == PINNED[name]


def test_stream_file(fingerprint, tmp_path):
    name, values = fingerprint
    path = tmp_path / f"{name}.isobar"
    with repro.open_stream(path, "w", dtype=values.dtype) as writer:
        for start in range(0, values.size, CHUNK):
            writer.write_chunk(values[start:start + CHUNK])
    assert _digest(path.read_bytes()) == PINNED[name]
