#!/usr/bin/env python
"""Archive maintenance: append, prune, check — a day in production.

A long campaign accumulates compressed output.  This example walks the
housekeeping loop a production archive needs:

1. per-day containers are **concatenated** into a monthly archive
   without recompression (pure re-framing);
2. the checkpoint store is **pruned** by a retention policy (keep the
   last few steps plus every 5th);
3. the merged archive is **checked** by fsck (structure, every
   chunk's CRC, index footer) and then served through a
   **random-access** range query.

Run:  python examples/archive_maintenance.py
"""

import tempfile

import numpy as np

from repro import IsobarCompressor, IsobarConfig
from repro.core import ContainerFile, concat_containers, fsck
from repro.insitu import (
    CheckpointStore,
    FieldSimulation,
    RetentionPolicy,
    SimulationConfig,
    apply_retention,
)

CFG = IsobarConfig(codec="zlib", linearization="row",
                   chunk_elements=30_000, sample_elements=4_096)


def main() -> None:
    sim = FieldSimulation(SimulationConfig(n_elements=30_000, seed=77))
    compressor = IsobarCompressor(CFG)

    # --- 1. daily containers -> one archive, no recompression ---
    days = [sim.step() for _ in range(6)]
    daily_containers = [compressor.compress(day) for day in days]
    archive = concat_containers(daily_containers)
    expected = np.concatenate(days)
    print(f"archive: {len(daily_containers)} daily containers -> "
          f"{len(archive) / 1e6:.2f} MB merged "
          f"(ratio {expected.nbytes / len(archive):.3f})")

    # --- 2. checkpoint pruning ---
    store = CheckpointStore(tempfile.mkdtemp(prefix="isobar_arch_"),
                            config=CFG)
    for step, day in enumerate(days):
        store.write(step, {"phi": day})
    policy = RetentionPolicy(keep_last=2, keep_every=5)
    dropped = apply_retention(store, policy)
    print(f"retention ({policy.keep_last} last + every "
          f"{policy.keep_every}th): dropped steps {dropped}, "
          f"kept {store.steps()}")

    # --- 3. check + queries over the merged archive ---
    report = fsck(archive)
    print("check:", report.summary_lines()[-1],
          f"({report.n_chunks} chunks decoded and CRC-checked)")
    assert report.intact and report.clean

    reader = ContainerFile(archive)
    day3 = reader.read_range(3 * 30_000, 4 * 30_000)
    assert np.array_equal(day3, days[3])
    print(f"range query: day 3 extracted from the archive bit-exactly "
          f"({day3.nbytes / 1e3:.0f} kB, touched "
          f"{reader.chunk_for_element(4 * 30_000 - 1).index - reader.chunk_for_element(3 * 30_000).index + 1} "
          f"of {reader.n_chunks} chunks)")

    # Bit-exactness of the whole archive, end to end.
    assert np.array_equal(reader.read_all().reshape(-1), expected)
    print("full archive verified bit-exact.")


if __name__ == "__main__":
    main()
