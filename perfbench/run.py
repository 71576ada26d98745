#!/usr/bin/env python3
"""Run one benchmark workload against the package and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

The workloads are ``bulk``, ``service_small`` and ``archive_read``
(see ``perfbench/WORKLOADS.md``).  The inputs are generated from
``--seed``.  Set-up runs several times and its median is reported.
The workload then runs its schedule for ``--seconds`` and checks every
output.

``--trace 0`` measures untraced and reports the end-to-end metrics.
``--trace 1`` spends half the time untraced and half with span
recorders wrapped around each layer's entry points, in four phases
(traced, untraced, untraced, traced), and reports the per-layer
metrics together with the tracing overhead (traced over untraced wall
time of the same operations).

Standard output carries the full report as indented JSON; its last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the metrics ``BENCHMARK.json`` names.

Exit status: 0 when every operation was correct, 1 when any failed (the
result is still printed), 2 when the package cannot be imported from
``src/`` (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: Set-up runs this many times; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Errors quoted in the report (the count is always complete).
MAX_QUOTED_ERRORS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk", "service_small", "archive_read"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (self-tests use "
                             "small values)")
    parser.add_argument("--fault", choices=("flip",),
                        help="self-test only: flip one seeded byte of a "
                             "bulk container before it is decompressed")
    return parser.parse_args(argv)


def cache_sizes() -> dict[str, str]:
    """Data/unified cache sizes of CPU 0 by level, as the kernel reports."""
    sizes: dict[str, str] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict[str, Any]:
    import numpy

    from repro.analysis import native_available
    from repro.codecs import isal_available

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "native_available": bool(native_available()),
        "isal_available": bool(isal_available()),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict]:
    """Set up, measure and summarise; returns (report, last line)."""
    from perfbench import report as rp
    from perfbench.ledger import LAYER_MODULES, Ledger
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, workdir,
                                        args.fault)
    try:
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_runs.append(time.perf_counter() - start)
        layers = None
        if args.trace:
            # Four phases run traced, untraced, untraced, traced.  Each
            # pair runs the same schedule; the order cancels a linear
            # drift in machine speed and puts the first, warm-up phase
            # on the traced side, so the overhead is not understated.
            ledger = Ledger()
            phases = {}
            for name in ("T1", "U1", "U2", "T2"):
                if name.startswith("T"):
                    ledger.install()
                try:
                    phases[name] = workload.run_phase(
                        time.perf_counter() + args.seconds / 4.0,
                        ledger if name.startswith("T") else None,
                    )
                finally:
                    ledger.uninstall()
            info = workload.describe()
            traced = phases["T1"] + phases["T2"]
            layers = rp.layer_report(
                ledger, traced,
                [(phases["U1"], phases["T1"]), (phases["U2"], phases["T2"])],
                info["choices"],
            )
            layers["modules"] = LAYER_MODULES
            measured = phases["U1"] + phases["U2"]
            ops = measured + traced
        else:
            measured = ops = workload.run_phase(
                time.perf_counter() + args.seconds, None
            )
            info = workload.describe()
    finally:
        workload.close()

    failed = [op for op in ops if not op.ok]
    setup_s = statistics.median(setup_runs)
    rss = peak_rss_mib()
    named = {
        "setup_s": rp.metric(setup_s, "s", runs=setup_runs),
        "peak_rss_mb": rp.metric(rss, "MiB"),
        "error_rate": rp.metric(len(failed) / len(ops), "fraction",
                                failed=len(failed), attempted=len(ops)),
        "ratio": rp.metric(info["ratio"], "x"),
        **rp.named_metrics(args.workload, measured),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "loop": workload.loop,
        "environment": environment(),
        "workload_info": info,
        "metrics": named,
        "errors": [f"{op.kind} {op.label} {op.seq}: {op.error}"
                   for op in failed[:MAX_QUOTED_ERRORS]],
    }
    if layers is not None:
        report["layers"] = layers
        metrics = rp.gate_layer_metrics(layers)
    else:
        metrics = rp.gate_metrics(args.workload, measured, setup_s, rss,
                                    info["ratio"])
    last = {"correct": not failed, "attempted": len(ops),
            "failed": len(failed), "metrics": metrics}
    return report, last


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
        import perfbench.workloads  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    workdir = scratch / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, last = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report, indent=1, default=float))
    print(json.dumps(last, default=float))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
