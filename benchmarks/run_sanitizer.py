#!/usr/bin/env python
"""Concurrency sanitizer smoke: the tsan-lite harness as a CI gate.

Runs the ``isobar sanitize --smoke`` scenario battery — lock-discipline
exercise, parallel compress/decompress round-trip, pipelined stream
round-trip, and a live service request — under the
runtime probes (lock-order graph, resource leak tracker, event-loop
stall probe) and writes the probe report as a JSON artefact::

    PYTHONPATH=src python benchmarks/run_sanitizer.py \\
        [--json benchmarks/results/BENCH_sanitizer.json] [--seed-inversion]

Exit status is the report verdict: 0 when every probe comes back clean,
1 on any lock-order cycle, leaked resource, loop stall or scenario
error.  ``--seed-inversion`` plants a deliberate two-thread lock
inversion and therefore must exit 1 — that mode is the gate's own
self-test, proving the harness still catches what it exists to catch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.devtools.sanitizer.harness import run_smoke


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--json",
        default=str(Path(__file__).parent / "results"
                    / "BENCH_sanitizer.json"),
        help="where to write the probe report artefact",
    )
    parser.add_argument(
        "--seed-inversion", action="store_true",
        help="plant a deliberate lock inversion (self-test: must exit 1)",
    )
    parser.add_argument(
        "--stall-threshold-ms", type=float, default=1000.0,
        help="loop-stall threshold for the service scenario",
    )
    args = parser.parse_args()

    report = run_smoke(
        seed_inversion=args.seed_inversion,
        stall_threshold_seconds=args.stall_threshold_ms / 1000.0,
    )

    artefact = Path(args.json)
    artefact.parent.mkdir(parents=True, exist_ok=True)
    artefact.write_text(json.dumps(report.to_dict(), indent=2) + "\n")

    print(report.render_text())
    print(f"\nreport written to {artefact}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
