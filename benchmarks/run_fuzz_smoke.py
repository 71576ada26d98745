#!/usr/bin/env python
"""Fuzz smoke: random containers × random faults × salvage.

Round-trips ``--n`` seeded random containers through random fault
injection (:mod:`repro.testing.faults`), then exercises every reader on
the wreckage — strict decode, both lenient salvage policies, the
random-access ``ContainerFile`` under ``raise`` and ``salvage-skip``,
and the ``fsck`` checker — asserting the containment contract: **no
exception other than** :class:`repro.core.exceptions.IsobarError`
**may escape** (fsck may not raise at all), and
whatever skip-mode salvage recovers must be bit-exact chunks of the
original data.

Usage::

    PYTHONPATH=src python benchmarks/run_fuzz_smoke.py [--n 50] [--seed 0]

Every case derives from ``(seed, case_index)`` alone, so a reported
failure reproduces exactly from its printed case line.  The same driver
backs the ``fuzz``-marked pytest tests (``pytest -m fuzz``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.exceptions import IsobarError
from repro.core.fsck import fsck
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile
from repro.core.salvage import salvage_decompress
from repro.datasets.synthetic import build_structured
from repro.testing.faults import FAULT_TYPES, inject

_DTYPES = (np.float64, np.float32)


#: Every reader driven over the damaged bytes, by name.
_READERS = (
    ("strict", lambda d: IsobarCompressor().decompress(d)),
    ("skip", lambda d: salvage_decompress(d, policy="skip").values),
    ("zero_fill", lambda d: salvage_decompress(d, policy="zero_fill").values),
    ("file", lambda d: ContainerFile(d).read_all()),
    ("file_skip", lambda d: ContainerFile(d, errors="salvage-skip").read_all()),
    ("fsck", fsck),
)


def _build_case(rng: np.random.Generator) -> tuple[bytes, np.ndarray, int]:
    """One random container: random dtype, size, noise level, chunking."""
    dtype = np.dtype(_DTYPES[int(rng.integers(0, len(_DTYPES)))])
    n_chunks = int(rng.integers(1, 5))
    chunk_elements = int(rng.integers(512, 4096))
    n_elements = n_chunks * chunk_elements - int(
        rng.integers(0, chunk_elements // 2)
    )
    n_noise = int(rng.integers(0, dtype.itemsize + 1))
    values = build_structured(n_elements, dtype, n_noise,
                              np.random.default_rng(int(rng.integers(1 << 31))))
    config = IsobarConfig(chunk_elements=chunk_elements,
                          sample_elements=min(chunk_elements, 1024))
    return IsobarCompressor(config).compress(values), values, chunk_elements


def run_case(case_seed: int) -> list[str]:
    """Run every fault × every reader for one container; return failures."""
    rng = np.random.default_rng(case_seed)
    failures: list[str] = []
    payload, values, chunk_elements = _build_case(rng)
    source_chunks = {
        values[i:i + chunk_elements].tobytes()
        for i in range(0, values.size, chunk_elements)
    }

    for fault in FAULT_TYPES:
        fault_seed = int(rng.integers(1 << 31))
        tag = f"case_seed={case_seed} fault={fault} fault_seed={fault_seed}"
        try:
            injected = inject(payload, fault, fault_seed)
        except IsobarError:
            continue  # e.g. truncate-to-0 then re-inject: fine to refuse

        for reader_name, reader in _READERS:
            try:
                result = reader(injected.data)
            except IsobarError:
                # A contained failure keeps the contract, except that
                # fsck must report damage rather than raise.
                if reader_name == "fsck":
                    failures.append(
                        f"{tag} reader=fsck: raised instead of reporting "
                        f"({injected.description})"
                    )
                continue
            except Exception as exc:  # noqa: BLE001 - the point of the fuzz
                failures.append(
                    f"{tag} reader={reader_name}: {type(exc).__name__} "
                    f"escaped containment: {exc} ({injected.description})"
                )
                continue
            # stale_footer legitimately *appends* a copy of an existing
            # chunk, shifting every later boundary — re-slicing the
            # restored stream at chunk_elements no longer lines up with
            # the original chunk grid, so the fabrication check below
            # does not apply (the appended data is still original data).
            if reader_name == "skip" and fault != "stale_footer":
                restored = np.asarray(result).reshape(-1)
                whole, tail = divmod(restored.size, chunk_elements)
                for i in range(whole):
                    piece = restored[
                        i * chunk_elements:(i + 1) * chunk_elements
                    ].tobytes()
                    if piece not in source_chunks:
                        failures.append(
                            f"{tag}: skip-mode fabricated chunk {i} "
                            f"({injected.description})"
                        )
                if tail and restored[whole * chunk_elements:].tobytes() \
                        not in source_chunks:
                    failures.append(
                        f"{tag}: skip-mode fabricated the tail chunk "
                        f"({injected.description})"
                    )
    return failures


def run(n_cases: int, seed: int, *, verbose: bool = True) -> list[str]:
    root = np.random.default_rng(seed)
    failures: list[str] = []
    for case in range(n_cases):
        case_seed = int(root.integers(1 << 31))
        case_failures = run_case(case_seed)
        failures.extend(case_failures)
        if verbose:
            status = "FAIL" if case_failures else "ok"
            print(f"case {case + 1:3d}/{n_cases} seed={case_seed:<12d} "
                  f"{status}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=25,
                        help="number of random containers (default 25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed (default 0)")
    args = parser.parse_args()

    failures = run(args.n, args.seed)
    if failures:
        print(f"\n{len(failures)} containment failure(s):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nall {args.n} cases contained "
          f"({len(FAULT_TYPES)} faults x {len(_READERS)} readers each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
