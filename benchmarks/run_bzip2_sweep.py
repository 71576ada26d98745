#!/usr/bin/env python
"""bzip2 sort-budget sweep: the per-block ``workFactor`` rule against a fixed 7.

``workFactor`` sets how much effort bzip2's main block sort spends on
repetitive input before it switches to the fallback sort; the output
bytes do not depend on it.  ``Bzip2Codec`` gives each block 1 (no
main-sort budget) when the block repeats itself
(``bzip2_repeat_share`` above 0.9) and 7 otherwise.  This sweep times
that rule, and fixed values, against a fixed 7 on every bzip2 block of
the solver inputs the pipeline builds for

* the 24 registry datasets (375 000 elements each), and
* the three throughput fingerprints at bulk size and at the 16k / 32k /
  64k-element sizes of small service requests.

Each repetition visits every block and times each column as a pair
with the fixed 7, back to back on the same block, the fixed 7 first in
even repetitions and second in odd ones.  The ``rule`` column times
the codec's own choice, the statistic included.  An input's figure is
the median over repetitions of its paired ratio (the column's CPU time
over its blocks / the fixed 7's), so drift in machine speed between
pairs cancels.  Times are process CPU time rather than wall time,
which keeps other tenants' preemption out of a single-threaded
measurement.  Each side of a pair repeats its call until it has used
at least 20 ms of CPU and reports the time per call, so blocks of
about a millisecond are not timed from a single, possibly cold, call.  Every column is first checked to produce ``bz2.compress``
output byte for byte.

Canonical invocation (prints the tables in ``docs/performance.md``)::

    PYTHONPATH=src python benchmarks/run_bzip2_sweep.py

``--check`` does no timing.  It exits 1 unless every block of every
sweep input compresses to ``bz2.compress``'s bytes and no block's
repeat share lies within 0.04 of the threshold, so a generator or
statistic change that moves a block to the edge fails loudly instead
of silently picking a slow sort::

    PYTHONPATH=src python benchmarks/run_bzip2_sweep.py --check
"""

from __future__ import annotations

import argparse
import bz2
import statistics
import sys
import time
from typing import Callable

import numpy as np

from repro import plan
from repro.analysis.bytefreq import byte_view
from repro.codecs.standard import (
    _REPEAT_MIN_BYTES,
    _REPEAT_THRESHOLD,
    Bzip2Codec,
    _bz2_compress,
    bzip2_block_starts,
    bzip2_repeat_share,
    bzip2_work_factor,
)
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
LEVEL = 9
#: The fixed ``workFactor`` every column is paired with.
BASE = 7
#: No block's repeat share may lie closer than this to the threshold.
MARGIN = 0.04
#: Gates on the timed sweep: the rule's paired ratio on every input,
#: its time-weighted ratio over the blocks above the threshold, and
#: the statistic's cost on a full level-9 block.
RULE_WORST = 1.03
RULE_REPEATING = 0.90
STATISTIC_MS = 0.5


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


def blocks_of(chunks: list[bytes]) -> list[memoryview]:
    """Each chunk cut where ``bz2.compress`` starts a block."""
    blocks = []
    for data in chunks:
        starts = bzip2_block_starts(data, LEVEL)
        view = memoryview(data)
        blocks += [
            view[start:end]
            for start, end in zip(starts, [*starts[1:], len(data)])
        ]
    return blocks


def build_inputs(seed: int) -> dict[str, list[memoryview]]:
    """Sweep input name -> its bzip2 blocks."""
    config = IsobarConfig(codec="bzip2")
    inputs = {
        name: blocks_of(solver_inputs(generate_dataset(name, seed=seed), config))
        for name in dataset_names()
    }
    for name, build in FINGERPRINTS.items():
        rng = np.random.default_rng(seed)
        inputs[f"{name}@bulk"] = blocks_of(
            solver_inputs(build(BULK_ELEMENTS[name], rng), config)
        )
        for n in SERVICE_ELEMENTS:
            inputs[f"{name}@{n // 1000}k"] = blocks_of(
                solver_inputs(build(n, rng), config)
            )
    return inputs


def repeat_shares(blocks: list[memoryview]) -> list[float]:
    """The repeat share of each block the codec computes it for."""
    return [
        bzip2_repeat_share(block)
        for block in blocks
        if len(block) >= _REPEAT_MIN_BYTES
    ]


def _share_range(shares: list[float]) -> str:
    return f"{min(shares):.3f}–{max(shares):.3f}" if shares else "–"


# -- the check ---------------------------------------------------------------


def check(inputs: dict[str, list[memoryview]]) -> list[str]:
    """What fails the gate: blocks whose codec output differs from
    ``bz2.compress``, and blocks within :data:`MARGIN` of the threshold."""
    problems = []
    codec = Bzip2Codec(LEVEL)
    for name, blocks in inputs.items():
        for i, block in enumerate(blocks):
            if codec.compress(block) != bz2.compress(block, LEVEL):
                problems.append(f"{name} block {i}: output differs from bz2")
            if len(block) < _REPEAT_MIN_BYTES:
                continue
            share = bzip2_repeat_share(block)
            if abs(share - _REPEAT_THRESHOLD) < MARGIN:
                problems.append(
                    f"{name} block {i}: repeat share {share:.3f} is within "
                    f"{MARGIN} of the threshold {_REPEAT_THRESHOLD}"
                )
    return problems


def run_check(seed: int) -> bool:
    inputs = build_inputs(seed)
    shares = [s for blocks in inputs.values() for s in repeat_shares(blocks)]
    below = max(s for s in shares if s <= _REPEAT_THRESHOLD)
    above = min(s for s in shares if s > _REPEAT_THRESHOLD)
    problems = check(inputs)
    for problem in problems:
        print(f"seed {seed}: {problem}", file=sys.stderr)
    blocks = sum(map(len, inputs.values()))
    print(
        f"seed {seed}: {blocks} blocks of {len(inputs)} inputs, repeat "
        f"shares <= {below:.3f} and >= {above:.3f} around "
        f"{_REPEAT_THRESHOLD}: {'FAIL' if problems else 'ok'}"
    )
    return not problems


# -- the timed sweep ---------------------------------------------------------

#: A column: how it compresses one block.
Compress = Callable[[memoryview], bytes]


def fixed(factor: int) -> Compress:
    """libbz2 at one ``workFactor`` on every block."""
    return lambda block: _bz2_compress(block, LEVEL, factor)


def rule(block: memoryview) -> bytes:
    """The codec's own call: the block's ``workFactor``, then libbz2."""
    return _bz2_compress(block, LEVEL, bzip2_work_factor(block))


#: CPU time each side of a timed pair spends on its block, at least.
_MIN_CPU_SECONDS = 0.020


def _cpu_seconds(compress: Compress, block: memoryview) -> float:
    """CPU seconds per ``compress(block)`` call, over as many calls as
    make up :data:`_MIN_CPU_SECONDS`."""
    calls = 0
    start = time.process_time()
    while True:
        compress(block)
        calls += 1
        elapsed = time.process_time() - start
        if elapsed >= _MIN_CPU_SECONDS:
            return elapsed / calls


def sweep(
    inputs: dict[str, list[memoryview]], cols: dict[str, Compress], reps: int
) -> dict[str, dict[str, list[list[tuple[float, float]]]]]:
    """Per input, column and block, every repetition's (column, fixed
    7) CPU seconds."""
    base = fixed(BASE)
    for blocks in inputs.values():
        for block in blocks:
            expected = bz2.compress(block, LEVEL)
            assert base(block) == expected
            for compress in cols.values():
                assert compress(block) == expected
    pairs: dict[str, dict[str, list[list[tuple[float, float]]]]] = {
        name: {col: [[] for _ in blocks] for col in cols}
        for name, blocks in inputs.items()
    }
    for rep in range(reps):
        for name, blocks in inputs.items():
            for col, compress in cols.items():
                for i, block in enumerate(blocks):
                    if rep % 2 == 0:
                        base_s = _cpu_seconds(base, block)
                        value_s = _cpu_seconds(compress, block)
                    else:
                        value_s = _cpu_seconds(compress, block)
                        base_s = _cpu_seconds(base, block)
                    pairs[name][col][i].append((value_s, base_s))
        print(f"rep {rep + 1}/{reps} done", file=sys.stderr, flush=True)
    return pairs


def statistic_ms(inputs: dict[str, list[memoryview]], calls: int = 200) -> float:
    """Median CPU ms of :func:`bzip2_repeat_share` on the full level-9
    blocks (the sample, hence the cost, is the same for any block over
    64 KiB)."""
    full = [
        b for blocks in inputs.values() for b in blocks
        if len(b) >= 100_000 * LEVEL - 19
    ]
    times = []
    for block in full:
        start = time.process_time()
        for _ in range(calls):
            bzip2_repeat_share(block)
        times.append((time.process_time() - start) / calls * 1e3)
    return statistics.median(times)


def render(
    inputs: dict[str, list[memoryview]],
    pairs: dict[str, dict[str, list[list[tuple[float, float]]]]],
    cost_ms: float,
) -> tuple[str, bool]:
    """Markdown table of each column's paired time relative to the fixed
    7, and whether the rule meets its gates.

    Rows are medians of each input's paired ratio; the summary adds the
    aggregate (total median time over total fixed-7 median time) and
    the worst row of each input group, and the same aggregate over the
    blocks above the threshold alone.
    """
    cols = list(next(iter(pairs.values())))
    ratio = {
        name: {
            col: statistics.median(
                sum(block[r][0] for block in runs)
                / sum(block[r][1] for block in runs)
                for r in range(len(runs[0]))
            )
            for col, runs in by_col.items()
        }
        for name, by_col in pairs.items()
    }
    # per block: the column's and the fixed 7's median CPU seconds
    median_s = {
        name: {
            col: [
                (
                    statistics.median(v for v, _ in block),
                    statistics.median(f for _, f in block),
                )
                for block in runs
            ]
            for col, runs in by_col.items()
        }
        for name, by_col in pairs.items()
    }
    lines = [
        f"| input | MiB | blocks | repeat share | wf {BASE} CPU s | "
        + " | ".join(cols) + " |",
        "|---|---:|---:|---:|---:|" + "---:|" * len(cols),
    ]
    for name, by_col in ratio.items():
        blocks = inputs[name]
        mib = sum(map(len, blocks)) / 2**20
        base_s = sum(f for _, f in median_s[name]["rule"])
        lines.append(
            f"| `{name}` | {mib:.2f} | {len(blocks)} | "
            f"{_share_range(repeat_shares(blocks))} | {base_s:.3f} | "
            + " | ".join(f"{by_col[col]:.2f}" for col in cols)
            + " |"
        )

    def aggregate(col: str, keep: Callable[[str, int], bool]) -> float:
        chosen = [
            pair
            for name, by_col in median_s.items()
            for i, pair in enumerate(by_col[col])
            if keep(name, i)
        ]
        return sum(v for v, _ in chosen) / sum(f for _, f in chosen)

    def repeating(name: str, i: int) -> bool:
        block = inputs[name][i]
        return (
            len(block) >= _REPEAT_MIN_BYTES
            and bzip2_repeat_share(block) > _REPEAT_THRESHOLD
        )

    groups = {
        "registry": [n for n in ratio if "@" not in n],
        "fingerprints": [n for n in ratio if "@" in n],
    }
    summary: dict[str, Callable[[str], float]] = {}
    for label, names in groups.items():
        summary[f"{label} aggregate"] = lambda c, names=names: aggregate(
            c, lambda n, _i: n in names
        )
        summary[f"{label} worst"] = lambda c, names=names: max(
            ratio[n][c] for n in names
        )
    summary["blocks above the threshold"] = lambda c: aggregate(c, repeating)
    for label, value in summary.items():
        lines.append(
            f"| {label} | | | | | "
            + " | ".join(f"**{value(c):.2f}**" for c in cols) + " |"
        )
    worst = max(r["rule"] for r in ratio.values())
    above = aggregate("rule", repeating)
    ok = worst <= RULE_WORST and above <= RULE_REPEATING and cost_ms <= STATISTIC_MS
    lines += [
        "",
        f"rule worst input {worst:.2f} (gate <= {RULE_WORST}), blocks above "
        f"the threshold {above:.2f} (gate <= {RULE_REPEATING}), statistic "
        f"{cost_ms:.2f} ms per {100_000 * LEVEL // 1000} kB block "
        f"(gate <= {STATISTIC_MS}): {'ok' if ok else 'FAIL'}",
    ]
    return "\n".join(lines), ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--factors", nargs="+", type=int, default=[1, 30],
                        help="fixed workFactor values to time against 7, "
                             "besides the rule")
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--seeds", nargs="+", type=int, default=[21, 7321])
    parser.add_argument("--check", action="store_true",
                        help="no timing: check bz2 identity and the "
                             "threshold margin of every block")
    args = parser.parse_args(argv)

    if args.check:
        return 0 if all([run_check(seed) for seed in args.seeds]) else 1
    ok = True
    for seed in args.seeds:
        inputs = build_inputs(seed)
        cols = {f"wf {f}": fixed(f) for f in args.factors} | {"rule": rule}
        pairs = sweep(inputs, cols, args.reps)
        table, seed_ok = render(inputs, pairs, statistic_ms(inputs))
        print(f"seed {seed}\n\n{table}\n")
        ok &= seed_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
