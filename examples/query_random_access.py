#!/usr/bin/env python
"""Database-style range queries over a compressed container.

The chunked container format supports random access: a range read only
decodes the chunks it overlaps.  This example stores a large field,
serves point and range queries through
:class:`repro.core.random_access.ContainerFile`, and compares the
work done against naive full decompression.

Run:  python examples/query_random_access.py
"""

import time

import numpy as np

from repro import IsobarCompressor, IsobarConfig
from repro.core import ContainerFile
from repro.datasets import generate_dataset

CHUNK = 30_000
N = 360_000  # 12 chunks


def main() -> None:
    values = generate_dataset("num_brain", n_elements=N)
    compressor = IsobarCompressor(IsobarConfig(chunk_elements=CHUNK,
                                               sample_elements=8_192))
    payload = compressor.compress(values)
    print(f"stored {values.nbytes / 1e6:.1f} MB as {len(payload) / 1e6:.1f} MB "
          f"({values.nbytes / len(payload):.3f}x) in {N // CHUNK} chunks\n")

    reader = ContainerFile(payload)

    # Point queries.
    for position in (0, 123_456, N - 1):
        assert reader.element(position) == values[position]
    print("point lookups verified at 3 positions")

    # A narrow range: touches exactly one chunk.
    start, stop = 95_000, 96_000
    t0 = time.perf_counter()
    window = reader.read_range(start, stop)
    narrow_seconds = time.perf_counter() - t0
    assert np.array_equal(window, values[start:stop])
    touched = (reader.chunk_for_element(stop - 1).index
               - reader.chunk_for_element(start).index + 1)
    print(f"range [{start}, {stop}): decoded {touched} of "
          f"{reader.n_chunks} chunks in {narrow_seconds * 1e3:.1f} ms")

    # Full decode for comparison (fresh reader: no warm cache).
    t0 = time.perf_counter()
    everything = ContainerFile(payload).read_range(0, N)
    full_seconds = time.perf_counter() - t0
    assert np.array_equal(everything, values)
    print(f"full decode: {full_seconds * 1e3:.1f} ms "
          f"({full_seconds / max(narrow_seconds, 1e-9):.0f}x the narrow "
          f"range read)")

    # Repeated queries over a hot region hit the chunk cache.
    t0 = time.perf_counter()
    for _ in range(100):
        reader.read_range(start, stop)
    cached_avg = (time.perf_counter() - t0) / 100
    print(f"hot-region repeat reads: {cached_avg * 1e6:.0f} us average "
          f"(chunk cache)")


if __name__ == "__main__":
    main()
