#!/usr/bin/env python
"""Regenerate every reproduced table, figure and ablation in one pass.

Convenience entry point around the pytest-benchmark suite::

    python benchmarks/run_all.py [--elements N]

Equivalent to ``ISOBAR_BENCH_ELEMENTS=N pytest benchmarks/
--benchmark-only`` but prints a compact progress line per experiment
and leaves all rendered artefacts in ``benchmarks/results/``.

``--checks`` skips the benchmark sweep and runs the repo's static
gates instead — the invariant linter (``isobar lint``), the docs link
checker, the docs snippet executor, an ``isobar fsck`` of a freshly
written archive (the self-healing container gate), the selector
smoke (predict-first decisions must beat the EUPA probe), the bzip2
sort-rule gate (every sweep block matches ``bz2.compress`` and no
block's repeat share sits within 0.04 of the threshold), and the
concurrency sanitizer smoke (``isobar sanitize --smoke`` must come
back clean, and a seeded lock inversion must turn the report dirty)::

    PYTHONPATH=src python benchmarks/run_all.py --checks
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path


# Writes a fresh streaming archive into a temp dir, fscks it (must be
# CLEAN, exit 0), then strips its footer and proves `fsck --repair`
# restores the file byte-identically.
_FSCK_CHECK = """
import os, tempfile
import numpy as np
from repro.cli import main
from repro.core.metadata import locate_footer
from repro.core.preferences import IsobarConfig
from repro.core.stream import stream_compress
from repro.datasets.synthetic import build_structured

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "fresh.isbr")
    values = build_structured(60_000, np.float64, 6,
                              np.random.default_rng(0))
    stream_compress(
        (values[i:i + 20_000] for i in range(0, 60_000, 20_000)),
        path, np.float64, IsobarConfig(chunk_elements=20_000),
    )
    assert main(["fsck", path]) == 0, "fresh archive must fsck clean"
    original = open(path, "rb").read()
    assert locate_footer(original).ok, "writer must emit a footer"
    with open(path, "wb") as sink:
        sink.write(original[:-7])  # tear the footer trailer off
    assert main(["fsck", path]) == 2, "footer loss must be repairable"
    assert main(["fsck", path, "--repair"]) == 0
    assert open(path, "rb").read() == original, "rebuild not identical"
print("fsck round-trip ok")
"""


# The sanitizer gate's own self-test: a seeded two-thread lock
# inversion must turn the smoke report dirty and name the cycle —
# proving the harness still catches what it exists to catch.
_SANITIZER_SELFTEST = """
from repro.devtools.sanitizer.harness import run_smoke

report = run_smoke(seed_inversion=True, stall_threshold_seconds=5.0)
assert not report.ok, "seeded inversion must fail the smoke run"
paths = {tuple(sorted(c["path"])) for c in report.lock_cycles}
assert ("seeded.alpha", "seeded.beta") in paths, report.lock_cycles
print("seeded inversion caught:", report.lock_cycles[0]["path"])
"""


def run_checks(bench_dir: Path, env: dict) -> int:
    """The static gates: linter, docs links/snippets, archive fsck,
    selector smoke, bzip2 sort rule and sanitizer."""
    repo_root = bench_dir.parent
    src = str(repo_root / "src")
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    checks = [
        ("repo invariant linter (isobar lint)",
         [sys.executable, "-m", "repro.devtools.lint"]),
        ("docs link checker",
         [sys.executable, str(bench_dir / "run_docs_linkcheck.py")]),
        ("docs snippet executor",
         [sys.executable, str(bench_dir / "run_docs_snippets.py")]),
        ("archive fsck (isobar fsck on a fresh archive)",
         [sys.executable, "-c", _FSCK_CHECK]),
        ("selector smoke (staged probe vs EUPA oracle)",
         [sys.executable, str(bench_dir / "run_selector.py"), "--smoke"]),
        ("bzip2 sort rule (bz2 identity, threshold margin)",
         [sys.executable, str(bench_dir / "run_bzip2_sweep.py"), "--check"]),
        ("concurrency sanitizer smoke (isobar sanitize --smoke)",
         [sys.executable, str(bench_dir / "run_sanitizer.py")]),
        ("sanitizer self-test (seeded inversion must be caught)",
         [sys.executable, "-c", _SANITIZER_SELFTEST]),
    ]
    failed = []
    for label, command in checks:
        print(f"check: {label}...", flush=True)
        completed = subprocess.run(command, env=env, cwd=repo_root)
        if completed.returncode:
            failed.append(label)
    if failed:
        print(f"{len(failed)} check(s) FAILED: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--elements", type=int, default=60_000,
                        help="per-dataset element count (375000 = paper "
                             "chunk scale)")
    parser.add_argument("--only", default=None,
                        help="substring filter on benchmark file names")
    parser.add_argument("--checks", action="store_true",
                        help="run the static gates (lint, docs links, "
                             "docs snippets) instead of the benchmarks")
    args = parser.parse_args()

    bench_dir = Path(__file__).parent
    env = dict(os.environ)
    env["ISOBAR_BENCH_ELEMENTS"] = str(args.elements)

    if args.checks:
        return run_checks(bench_dir, env)

    command = [
        sys.executable, "-m", "pytest", str(bench_dir),
        "--benchmark-only", "-p", "no:cacheprovider", "-q",
    ]
    if args.only:
        command.extend(["-k", args.only])
    print("service load smoke (baseline + chaos scenarios)...")
    service_smoke = subprocess.run(
        [sys.executable, str(bench_dir / "run_service_load.py"),
         "--smoke",
         "--json", str(bench_dir / "results" / "BENCH_service_smoke.json")],
        env=env,
    )
    if service_smoke.returncode:
        print("service load smoke FAILED", file=sys.stderr)
        return service_smoke.returncode

    print(f"regenerating all experiments at {args.elements} elements "
          f"per dataset...")
    completed = subprocess.run(command, env=env)
    results = bench_dir / "results"
    if results.is_dir():
        print(f"\nartefacts in {results}:")
        for path in sorted(results.glob("*.txt")):
            print(f"  {path.name}")
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
