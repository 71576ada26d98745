#!/usr/bin/env python
"""bzip2 sort-budget sweep: libbz2 ``workFactor`` against its default 30.

``workFactor`` sets how much effort bzip2's main block sort spends on
repetitive input before it switches to the fallback sort; the output
bytes do not depend on it.  This sweep times ``Bzip2Codec``'s libbz2
call at several values on the bzip2 solver inputs the pipeline builds
for

* the 24 registry datasets (375 000 elements each), and
* the three throughput fingerprints at bulk size and at the 16k / 32k /
  64k-element sizes of small service requests.

Each repetition visits every input and times every value as a pair
with the default 30, back to back on the same input, the default first
in even repetitions and second in odd ones.  The reported figure for an
(input, value) is the median over repetitions of the paired ratio
value time / default time, so drift in machine speed between pairs
cancels.  Times are process CPU time rather than wall time, which keeps
other tenants' preemption out of a single-threaded measurement.  Every
value is first checked to produce ``bz2.compress`` output byte for
byte.

Canonical invocation (prints the table in ``docs/performance.md``)::

    PYTHONPATH=src python benchmarks/run_bzip2_sweep.py
"""

from __future__ import annotations

import argparse
import bz2
import statistics
import sys
import time

import numpy as np

from repro import plan
from repro.analysis.bytefreq import byte_view
from repro.codecs.standard import _bz2_compress
from repro.core.analyzer import analyze
from repro.core.chunking import iter_chunks
from repro.core.partitioner import partition
from repro.core.preferences import IsobarConfig
from repro.datasets.registry import dataset_names, generate_dataset
from run_throughput import DATASETS as FINGERPRINTS

BULK_ELEMENTS = {
    "field_f64": 1_500_000,
    "particles_i64": 3_000_000,
    "repetitive_f64": 500_000,
}
SERVICE_ELEMENTS = (16_000, 32_000, 64_000)
DEFAULT = 30


def solver_inputs(values: np.ndarray, config: IsobarConfig) -> list[bytes]:
    """The byte strings the pipeline hands bzip2, one per chunk."""
    linearization = plan(values, config=config).linearization
    inputs = []
    for _, chunk in iter_chunks(values.reshape(-1), config.chunk_elements):
        analysis = analyze(chunk, tau=config.tau)
        if analysis.improvable:
            inputs.append(
                partition(chunk, analysis.mask, linearization).compressible
            )
        else:
            inputs.append(byte_view(chunk).tobytes())
    return inputs


def build_inputs(seed: int) -> dict[str, list[bytes]]:
    config = IsobarConfig(codec="bzip2")
    inputs = {
        name: solver_inputs(generate_dataset(name, seed=seed), config)
        for name in dataset_names()
    }
    for name, build in FINGERPRINTS.items():
        rng = np.random.default_rng(seed)
        inputs[f"{name}@bulk"] = solver_inputs(
            build(BULK_ELEMENTS[name], rng), config
        )
        for n in SERVICE_ELEMENTS:
            inputs[f"{name}@{n // 1000}k"] = solver_inputs(
                build(n, rng), config
            )
    return inputs


def _cpu_seconds(chunks: list[bytes], factor: int) -> float:
    start = time.process_time()
    for data in chunks:
        _bz2_compress(data, 9, factor)
    return time.process_time() - start


def sweep(
    inputs: dict[str, list[bytes]], factors: list[int], reps: int
) -> dict[str, dict[int, list[tuple[float, float]]]]:
    """Per input and value, every repetition's (value, default) CPU s."""
    for chunks in inputs.values():
        for data in chunks:
            expected = bz2.compress(data, 9)
            for factor in factors:
                assert _bz2_compress(data, 9, factor) == expected
    others = [factor for factor in factors if factor != DEFAULT]
    pairs: dict[str, dict[int, list[tuple[float, float]]]] = {
        name: {factor: [] for factor in others} for name in inputs
    }
    for rep in range(reps):
        for name, chunks in inputs.items():
            for factor in others:
                if rep % 2 == 0:
                    base = _cpu_seconds(chunks, DEFAULT)
                    value = _cpu_seconds(chunks, factor)
                else:
                    value = _cpu_seconds(chunks, factor)
                    base = _cpu_seconds(chunks, DEFAULT)
                pairs[name][factor].append((value, base))
        print(f"rep {rep + 1}/{reps} done", file=sys.stderr, flush=True)
    return pairs


def render(
    inputs: dict[str, list[bytes]],
    pairs: dict[str, dict[int, list[tuple[float, float]]]],
) -> str:
    """Markdown table of each value's paired time relative to the default.

    Rows are medians of the paired ratios; the summary adds the
    aggregate (total median time over total default median time) and
    the worst row of each input group.
    """
    ratio = {
        name: {
            f: statistics.median(v / b for v, b in runs)
            for f, runs in by_factor.items()
        }
        for name, by_factor in pairs.items()
    }
    median_s = {
        name: {
            f: statistics.median(v for v, _ in runs)
            for f, runs in by_factor.items()
        }
        for name, by_factor in pairs.items()
    }
    for name, by_factor in pairs.items():
        median_s[name][DEFAULT] = statistics.median(
            b for runs in by_factor.values() for _, b in runs
        )
    factors = sorted(next(iter(ratio.values())))
    lines = [
        f"| input | MiB | wf {DEFAULT} CPU s | "
        + " | ".join(f"wf {f}" for f in factors) + " |",
        "|---|---:|---:|" + "---:|" * len(factors),
    ]
    for name, by_factor in ratio.items():
        mib = sum(map(len, inputs[name])) / 2**20
        lines.append(
            f"| `{name}` | {mib:.2f} | {median_s[name][DEFAULT]:.3f} | "
            + " | ".join(f"{by_factor[f]:.2f}" for f in factors)
            + " |"
        )
    groups = {
        "registry": [n for n in ratio if "@" not in n],
        "fingerprints": [n for n in ratio if "@" in n],
    }
    for label, names in groups.items():
        rows = {
            "aggregate": lambda f: sum(median_s[n][f] for n in names)
            / sum(median_s[n][DEFAULT] for n in names),
            "worst": lambda f: max(ratio[n][f] for n in names),
        }
        for kind, value in rows.items():
            lines.append(
                f"| {label} {kind} | | | "
                + " | ".join(f"**{value(f):.2f}**" for f in factors) + " |"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--factors", nargs="+", type=int,
                        default=[3, 5, 7, 10, 15, DEFAULT],
                        help="workFactor values to time (30 is required)")
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args(argv)
    if DEFAULT not in args.factors:
        parser.error(f"--factors must include the default {DEFAULT}")

    inputs = build_inputs(args.seed)
    pairs = sweep(inputs, args.factors, args.reps)
    print(render(inputs, pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
