"""Command-line interface: ``isobar compress|decompress|analyze|bench``.

The CLI operates on raw dataset files (see
:mod:`repro.datasets.loaders`) and ISOBAR containers::

    isobar generate gts_chkp_zion field.rds --elements 375000
    isobar analyze field.rds
    isobar plan field.rds --json
    isobar compress field.rds field.isobar --preference speed
    isobar decompress field.isobar restored.rds
    isobar stats field.rds
    isobar bench --table 5 --elements 100000

``plan`` dry-runs the selector — the decision plus its evaluation or
prediction record, no container written; ``--selector`` (also on
``compress``, ``stats`` and ``serve``) picks the selection strategy
(``eupa`` default, or any registered name — see ``docs/selector.md``).

``bench`` regenerates any of the paper's tables or figures on the
synthetic datasets and prints them in the paper's layout.  ``stats``
profiles a compress (and round-trip decompress) run with the
observability layer enabled and prints the per-stage breakdown; the
``compress``, ``decompress`` and ``salvage`` subcommands accept
``--metrics-json PATH`` to dump the full metrics registry of the run
(see ``docs/observability.md``).  ``compress`` exits 2 (output still
written and exactly decodable) when any chunk degraded through the
resilience layer; ``--strict`` turns degradation into a hard failure
and ``--resilience-json PATH`` dumps the degradation report (see
``docs/resilience.md``).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.analysis.bitfreq import bit_frequency_profile
from repro.analysis.entropy import dataset_statistics
from repro.analysis.metrics import MEGABYTE, Stopwatch
from repro.core.analyzer import analyze
from repro.core.exceptions import IsobarError
from repro.core.pipeline import IsobarCompressor
from repro.core.pipeline_engine import usable_cpus
from repro.core.preferences import IsobarConfig, Linearization, Preference
from repro.datasets.loaders import load_raw, save_raw
from repro.datasets.registry import dataset_names, generate_dataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="isobar",
        description="ISOBAR preconditioner for lossless compression "
                    "(ICDE 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset file")
    gen.add_argument("dataset", choices=sorted(dataset_names()))
    gen.add_argument("output", help="output raw dataset file (.rds)")
    gen.add_argument("--elements", type=int, default=375_000)
    gen.add_argument("--seed", type=int, default=None)

    ana = sub.add_parser("analyze", help="run the ISOBAR-analyzer on a file")
    ana.add_argument("input", help="raw dataset file")
    ana.add_argument("--tau", type=float, default=IsobarConfig().tau)
    ana.add_argument("--bits", action="store_true",
                     help="also print the Figure-1 bit-frequency profile")
    ana.add_argument("--full", action="store_true",
                     help="print the complete compressibility profile")

    comp = sub.add_parser("compress", help="compress a raw dataset file")
    comp.add_argument("input", help="raw dataset file")
    comp.add_argument("output", help="output ISOBAR container")
    comp.add_argument("--preference", choices=["ratio", "speed"],
                      default="ratio")
    comp.add_argument("--codec", default=None,
                      help="explicit solver override (e.g. zlib, bzip2)")
    comp.add_argument("--linearization", choices=["row", "column"],
                      default=None)
    comp.add_argument("--chunk-elements", type=int, default=None)
    comp.add_argument("--tau", type=float, default=None)
    _add_selector_argument(comp)
    comp.add_argument("--metrics-json", metavar="PATH", default=None,
                      help="collect run metrics and write the registry "
                           "as JSON to PATH ('-' for stdout)")
    comp.add_argument("--strict", action="store_true",
                      help="fail hard on any chunk degradation instead of "
                           "falling back to zlib/raw storage")
    comp.add_argument("--resilience-json", metavar="PATH", default=None,
                      help="write the degradation report as JSON to PATH "
                           "('-' for stdout)")
    comp.add_argument("--workers", type=int, default=usable_cpus(),
                      help="pipeline worker count (>1 uses the pipelined "
                           "parallel compressor; default: one per usable "
                           "CPU, here %(default)s)")
    comp.add_argument("--max-inflight", type=int, default=None,
                      help="backpressure bound: chunk blocks fed to "
                           "workers but not yet reassembled (default: "
                           "2 x workers)")

    dec = sub.add_parser("decompress", help="restore a raw dataset file")
    dec.add_argument("input", help="ISOBAR container")
    dec.add_argument("output", help="output raw dataset file")
    dec.add_argument("--metrics-json", metavar="PATH", default=None,
                     help="collect run metrics and write the registry "
                          "as JSON to PATH ('-' for stdout)")
    dec.add_argument("--workers", type=int, default=usable_cpus(),
                     help="pipeline worker count (>1 decodes chunks in "
                          "parallel; default: one per usable CPU, here "
                          "%(default)s)")
    dec.add_argument("--max-inflight", type=int, default=None,
                     help="backpressure bound for parallel decode "
                          "(default: 2 x workers)")

    tune = sub.add_parser("autotune", help="find the tau plateau for a file")
    tune.add_argument("input", help="raw dataset file")
    tune.add_argument("--sample-elements", type=int, default=65_536)

    info = sub.add_parser("info", help="inspect an ISOBAR container")
    info.add_argument("input", help="ISOBAR container")

    verify = sub.add_parser(
        "verify", help="check an ISOBAR container (fsck report + verdict)"
    )
    verify.add_argument("input", help="ISOBAR container")
    verify.add_argument(
        "--deep", action="store_true",
        help="additionally run the salvage scanner and report how much "
             "of a damaged container is recoverable",
    )

    fsck = sub.add_parser(
        "fsck",
        help="check a container's index footer, chunk chain and "
             "writer temp files; --repair fixes what is safely fixable",
    )
    fsck.add_argument(
        "input",
        help="ISOBAR container (may not exist yet if a crashed writer "
             "left only its temp file)",
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help="rebuild a lost or damaged index footer from the chunk "
             "chain, finalize crashed-writer temp files, and remove "
             "empty ones (lost payload is reported, never fabricated)",
    )

    salvage = sub.add_parser(
        "salvage",
        help="recover everything readable from a damaged container",
    )
    salvage.add_argument("input", help="(possibly damaged) ISOBAR container")
    salvage.add_argument("output", help="output raw dataset file")
    salvage.add_argument(
        "--policy", choices=["skip", "zero_fill"], default="skip",
        help="skip: drop damaged chunks; zero_fill: keep absolute "
             "element positions by substituting zeros (default: skip)",
    )
    salvage.add_argument(
        "--unclosed", action="store_true",
        help="treat the input as a never-closed stream (crashed writer) "
             "and discover chunks by forward scan",
    )
    salvage.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="collect salvage metrics and write the registry as JSON "
             "to PATH ('-' for stdout)",
    )

    stats = sub.add_parser(
        "stats",
        help="profile a compression run with the observability layer",
    )
    stats.add_argument("input", help="raw dataset file")
    stats.add_argument("--preference", choices=["ratio", "speed"],
                       default="ratio")
    stats.add_argument("--codec", default=None,
                       help="explicit solver override (e.g. zlib, bzip2)")
    stats.add_argument("--linearization", choices=["row", "column"],
                       default=None)
    stats.add_argument("--chunk-elements", type=int, default=None)
    stats.add_argument("--tau", type=float, default=None)
    _add_selector_argument(stats)
    stats.add_argument("--workers", type=int, default=usable_cpus(),
                       help="pipeline worker count (>1 uses the parallel "
                            "compressor; default: one per usable CPU, "
                            "here %(default)s)")
    stats.add_argument("--max-inflight", type=int, default=None,
                       help="backpressure bound for the pipelined engine "
                            "(default: 2 x workers)")
    stats.add_argument("--no-roundtrip", action="store_true",
                       help="skip the decompression leg of the profile")
    stats.add_argument("--metrics-json", metavar="PATH", default=None,
                       help="also write the metrics registry as JSON "
                            "to PATH ('-' for stdout)")
    stats.add_argument("--prometheus", metavar="PATH", default=None,
                       help="also write Prometheus text exposition "
                            "to PATH ('-' for stdout)")

    extract = sub.add_parser(
        "extract", help="random-access read of an element range"
    )
    extract.add_argument("input", help="ISOBAR container")
    extract.add_argument("output", help="output raw dataset file")
    extract.add_argument("--start", type=int, required=True)
    extract.add_argument("--stop", type=int, required=True)

    sub.add_parser("codecs", help="list registered solvers")

    concat = sub.add_parser(
        "concat", help="merge containers without recompression"
    )
    concat.add_argument("inputs", nargs="+",
                        help="input ISOBAR containers, in order")
    concat.add_argument("output", help="merged container")

    serve = sub.add_parser(
        "serve",
        help="run the resilient async compression service",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 picks an ephemeral port)")
    serve.add_argument("--max-inflight", type=int, default=4,
                       help="concurrent compute requests (executor threads)")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="admitted-but-waiting requests before shedding "
                            "with 429")
    serve.add_argument("--deadline-seconds", type=float, default=30.0,
                       help="default per-request wall-clock budget")
    serve.add_argument("--max-deadline-seconds", type=float, default=120.0,
                       help="cap on client-requested deadlines")
    serve.add_argument("--drain-seconds", type=float, default=10.0,
                       help="grace period for in-flight work on SIGTERM")
    serve.add_argument("--max-body-mb", type=float, default=64.0,
                       help="request body limit in MiB (413 beyond it)")
    serve.add_argument("--pipeline-workers", type=int, default=1,
                       help="per-request chunk parallelism (>1 serves "
                            "each request with the pipelined parallel "
                            "compressor; default: 1)")
    serve.add_argument("--pipeline-max-inflight", type=int, default=None,
                       help="backpressure bound for the per-request "
                            "pipeline (default: 2 x pipeline workers)")
    serve.add_argument("--preference", choices=["ratio", "speed"],
                       default="ratio")
    serve.add_argument("--codec", default=None,
                       help="explicit solver override served by default")
    serve.add_argument("--linearization", choices=["row", "column"],
                       default=None)
    serve.add_argument("--chunk-elements", type=int, default=None)
    serve.add_argument("--tau", type=float, default=None)
    _add_selector_argument(serve)
    serve.add_argument("--strict", action="store_true",
                       help="serve with strict resilience (degradation "
                            "becomes 503 instead of a degraded 200)")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for the wire-level fault injectors")
    serve.add_argument("--chaos-delay-percent", type=float, default=0.0,
                       help="percent of requests delayed before handling")
    serve.add_argument("--chaos-stall-percent", type=float, default=0.0,
                       help="percent of responses stalled mid-body")
    serve.add_argument("--chaos-truncate-percent", type=float, default=0.0,
                       help="percent of responses truncated mid-body")
    serve.add_argument("--stall-probe-ms", type=float, default=None,
                       help="attach the tsan-lite event-loop stall probe: "
                            "count callbacks holding the loop longer than "
                            "this many milliseconds (default: off)")

    plan = sub.add_parser(
        "plan",
        help="dry-run the selector on a file: decision and "
             "evaluations/predictions, no container written",
    )
    plan.add_argument("input", help="raw dataset file")
    plan.add_argument("--preference", choices=["ratio", "speed"],
                      default="ratio")
    plan.add_argument("--codec", default=None,
                      help="explicit solver override (restricts candidates)")
    plan.add_argument("--linearization", choices=["row", "column"],
                      default=None)
    plan.add_argument("--chunk-elements", type=int, default=None)
    plan.add_argument("--tau", type=float, default=None)
    _add_selector_argument(plan)
    plan.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the full decision document as JSON")

    lint = sub.add_parser(
        "lint", help="check repo invariants (rules ISO001-ISO011)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON report instead of text",
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="run the tsan-lite concurrency sanitizer (lock-order "
             "graph, loop-stall probe, leak tracker)",
    )
    sanitize.add_argument(
        "--smoke", action="store_true",
        help="run the fixed smoke scenarios instead of the full "
             "instrumented test suite",
    )
    sanitize.add_argument(
        "--seed-inversion", action="store_true",
        help="plant a two-thread lock inversion; the run must then "
             "report the cycle (sanitizer self-test)",
    )
    sanitize.add_argument(
        "--stall-threshold-ms", type=float, default=1000.0,
        help="loop-stall threshold for the service smoke scenario "
             "(default: 1000)",
    )
    sanitize.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )
    sanitize.add_argument(
        "pytest_args", nargs="*",
        help="extra pytest arguments for the full instrumented run",
    )

    bench = sub.add_parser("bench", help="regenerate a paper table or figure")
    bench.add_argument("--table", type=int, choices=range(1, 11),
                       help="paper table number (1-10)")
    bench.add_argument("--figure", type=int, choices=(1, 8, 9, 10),
                       help="paper figure number")
    bench.add_argument("--section-f", action="store_true",
                       help="run the Section F consistency experiment")
    bench.add_argument("--elements", type=int, default=100_000)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    values = generate_dataset(args.dataset, n_elements=args.elements,
                              seed=args.seed)
    written = save_raw(args.output, values)
    print(f"wrote {args.dataset}: {values.size} x {values.dtype} "
          f"({written} bytes) -> {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    values = load_raw(args.input)
    if args.full:
        from repro.analysis.profile import profile_dataset

        print(profile_dataset(args.input, values, tau=args.tau).render())
        return 0
    stats = dataset_statistics(args.input, values)
    result = analyze(values, tau=args.tau)
    print(f"elements        : {stats.n_elements} x {stats.dtype}")
    print(f"unique values   : {stats.unique_percent:.1f}%")
    print(f"shannon entropy : {stats.entropy_bits:.2f} bits")
    print(f"randomness      : {stats.randomness:.1f}%")
    print(f"analyzer        : {result.summary()}")
    print(f"hard-to-compress: {'yes' if result.hard_to_compress else 'no'}; "
          f"improvable: {'yes' if result.improvable else 'no'}")
    if args.bits:
        profile = bit_frequency_profile(args.input, values)
        print(f"bit profile     : {profile.render_ascii()}")
        print(f"noisy bits      : {profile.noisy_bits}/{profile.n_bits}")
    return 0


def _apply_strict(
    config: IsobarConfig, args: argparse.Namespace
) -> IsobarConfig:
    """Fold ``--strict`` into ``config.resilience``."""
    if not args.strict:
        return config
    from repro.core.resilience import ResiliencePolicy

    policy = config.resilience or ResiliencePolicy()
    return config.replace(resilience=policy.replace(strict=True))


def _add_selector_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--selector`` strategy flag."""
    parser.add_argument(
        "--selector", default=None, metavar="STRATEGY",
        help="selection strategy: eupa (default, the paper's staged "
             "timing probe) or any registered strategy name",
    )


def _config_from_args(args: argparse.Namespace) -> IsobarConfig:
    """Build an :class:`IsobarConfig` from compress/stats CLI flags."""
    overrides: dict[str, object] = {
        "preference": Preference.parse(args.preference),
    }
    if args.codec:
        overrides["codec"] = args.codec
    if args.linearization:
        overrides["linearization"] = Linearization.parse(args.linearization)
    if args.chunk_elements:
        overrides["chunk_elements"] = args.chunk_elements
    if args.tau:
        overrides["tau"] = args.tau
    if getattr(args, "selector", None):
        overrides["selector"] = args.selector
    return IsobarConfig().replace(**overrides)


def _pipeline_compressor(
    config: IsobarConfig | None,
    args: argparse.Namespace,
    *,
    collect_metrics: bool = False,
) -> IsobarCompressor:
    """The compressor the ``--workers``/``--max-inflight`` flags ask for.

    ``--workers 1`` runs every chunk inline; above that (the default on
    a multi-CPU host), multi-chunk inputs run on the pipelined engine
    with the requested backpressure bound.  Both produce identical
    containers.
    """
    return IsobarCompressor(
        config,
        getattr(args, "workers", 1),
        max_inflight=getattr(args, "max_inflight", None),
        collect_metrics=collect_metrics,
    )


def _write_metrics_json(registry, path: str, *, decision=None) -> None:
    """Dump a metrics registry as JSON to ``path`` ('-' for stdout).

    ``decision`` (a :class:`~repro.core.selector.SelectorDecision`)
    embeds the run's full selector record — including any
    ``failed_candidates`` — next to the metric series.
    """
    import json

    from repro.observability import to_json

    text = to_json(registry, indent=2)
    if decision is not None:
        document = json.loads(text)
        document["selector_decision"] = decision.to_dict()
        text = json.dumps(document, indent=2)
    if path == "-":
        print(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"metrics         : wrote registry JSON -> {path}")


def _cmd_compress(args: argparse.Namespace) -> int:
    import json

    values = load_raw(args.input)
    config = _apply_strict(_config_from_args(args), args)
    compressor = _pipeline_compressor(
        config, args, collect_metrics=args.metrics_json is not None
    )
    with Stopwatch() as sw:
        result = compressor.compress_detailed(values)
    with open(args.output, "wb") as handle:
        handle.write(result.payload)
    mb = result.original_bytes / MEGABYTE
    print(f"codec           : {result.decision.summary()}")
    print(f"ratio           : {result.ratio:.3f} "
          f"(payload-only {result.payload_ratio:.3f})")
    print(f"throughput      : {mb / sw.seconds:.1f} MB/s "
          f"({result.original_bytes} -> {result.compressed_bytes} bytes)")
    print(f"container bytes : {result.stored_payload_bytes} payload "
          f"+ {result.container_overhead_bytes} metadata overhead")
    improvable_chunks = sum(1 for c in result.chunks if c.improvable)
    print(f"chunks          : {len(result.chunks)} "
          f"({improvable_chunks} improvable)")
    if result.decision.failed_candidates:
        for fail in result.decision.failed_candidates:
            print(f"warning: selector candidate ({fail.codec_name}, "
                  f"{fail.linearization.value}) failed: {fail.error}",
                  file=sys.stderr)
    if args.metrics_json is not None:
        report = compressor.last_report
        if report is not None:
            for line in report.summary_lines():
                print(line)
        _write_metrics_json(
            compressor.metrics, args.metrics_json,
            decision=result.decision,
        )
    if args.resilience_json is not None:
        text = json.dumps(result.degradation.to_dict(), indent=2)
        if args.resilience_json == "-":
            print(text)
        else:
            with open(args.resilience_json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"resilience      : wrote degradation report -> "
                  f"{args.resilience_json}")
    if result.degraded:
        # Mirror salvage: output was written and decodes exactly, but
        # the run was not clean — exit 2 so scripts can tell.
        for line in result.degradation.summary_lines():
            print(f"warning: {line}", file=sys.stderr)
        return 2
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as handle:
        payload = handle.read()
    compressor = _pipeline_compressor(
        None, args, collect_metrics=args.metrics_json is not None
    )
    with Stopwatch() as sw:
        values = compressor.decompress(payload)
    save_raw(args.output, np.asarray(values))
    mb = values.nbytes / MEGABYTE
    print(f"restored {values.size} x {values.dtype} elements "
          f"at {mb / sw.seconds:.1f} MB/s -> {args.output}")
    if args.metrics_json is not None:
        report = compressor.last_report
        if report is not None:
            for line in report.summary_lines():
                print(line)
        _write_metrics_json(compressor.metrics, args.metrics_json)
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    from repro.core.autotune import autotune_tau

    values = load_raw(args.input)
    sweep = autotune_tau(values, sample_elements=args.sample_elements)
    print(f"{'tau':>8s} {'ratio':>8s} plateau")
    for tau, ratio, in_plateau in sweep.as_rows():
        marker = "*" if in_plateau else ""
        print(f"{tau:8.3f} {ratio:8.3f} {marker}")
    print(f"chosen tau       : {sweep.chosen_tau}")
    print(f"statistical floor: {sweep.statistical_floor:.3f} "
          f"(for {min(args.sample_elements, values.size)} sampled elements)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core.random_access import ContainerFile

    size = os.path.getsize(args.input)
    with ContainerFile(args.input) as reader:
        header = reader.header
        entries = reader.chunk_index()
    print(f"dtype           : {header.dtype}")
    print(f"elements        : {header.n_elements} (shape {header.shape})")
    print(f"codec           : {header.codec_name}")
    print(f"linearization   : {header.linearization.value}")
    print(f"preference      : {header.preference.value}")
    print(f"tau             : {header.tau}")
    print(f"chunks          : {header.n_chunks} "
          f"(nominal {header.chunk_elements} elements each)")
    original = header.n_elements * header.element_width
    print(f"ratio           : {original / size:.3f} "
          f"({original} -> {size} bytes)")
    improvable = sum(1 for entry in entries if entry.incompressible_size > 0)
    print(f"improvable      : {improvable}/{header.n_chunks} chunks "
          f"partitioned")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.fsck import fsck

    report = fsck(args.input)
    for line in report.summary_lines():
        print(line)
    print("VERIFY: " + ("VALID" if report.intact else "INVALID"))
    if args.deep:
        from repro.core.salvage import salvage_decompress

        with open(args.input, "rb") as handle:
            payload = handle.read()
        try:
            salvaged = salvage_decompress(payload, policy="skip")
        except IsobarError as exc:
            print(f"salvage: not recoverable ({exc})")
        else:
            lines = salvaged.report.summary_lines()
            print("salvage: " + "; ".join(
                line for line in lines
                if line.startswith(("policy ", "RESULT:"))
            ))
    # 0: every declared element decodes with a good CRC (footer-only
    # damage included); 1: data damage.
    return 0 if report.intact else 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.core.fsck import fsck

    report = fsck(args.input, repair=args.repair)
    for line in report.summary_lines():
        print(line)
    # 0: clean (or fully repaired); 2: fixable with --repair;
    # 1: damage --repair cannot fix.
    if report.clean:
        return 0
    return 2 if report.repairable else 1


def _cmd_salvage(args: argparse.Namespace) -> int:
    from repro.core.salvage import salvage_decompress

    registry = None
    if args.metrics_json is not None:
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
    with open(args.input, "rb") as handle:
        payload = handle.read()
    with Stopwatch() as sw:
        result = salvage_decompress(
            payload, policy=args.policy, to_eof=args.unclosed,
            metrics=registry,
        )
    for line in result.report.summary_lines():
        print(line)
    if registry is not None:
        _write_metrics_json(registry, args.metrics_json)
    save_raw(args.output, np.asarray(result.values).reshape(-1))
    mb = result.values.nbytes / MEGABYTE
    print(f"wrote {result.values.size} elements "
          f"({mb / max(sw.seconds, 1e-9):.1f} MB/s) -> {args.output}")
    # 0: everything recovered; 2: partial recovery (output still written).
    return 0 if result.report.complete else 2


def _cmd_extract(args: argparse.Namespace) -> int:
    from repro.core.random_access import ContainerFile

    with ContainerFile(args.input) as reader, Stopwatch() as sw:
        window = reader.read_range(args.start, args.stop)
    save_raw(args.output, window)
    first = reader.chunk_for_element(args.start).index if window.size else 0
    last = (reader.chunk_for_element(args.stop - 1).index
            if window.size else 0)
    print(f"extracted [{args.start}, {args.stop}) "
          f"({window.size} elements) touching chunks {first}..{last} "
          f"of {reader.n_chunks} in {sw.seconds * 1e3:.1f} ms -> "
          f"{args.output}")
    return 0


def _cmd_concat(args: argparse.Namespace) -> int:
    from repro.core.concat import concat_containers
    from repro.core.random_access import ContainerFile

    payloads = []
    for path in args.inputs:
        with open(path, "rb") as handle:
            payloads.append(handle.read())
    merged = concat_containers(payloads)
    with open(args.output, "wb") as handle:
        handle.write(merged)
    reader = ContainerFile(merged)
    print(f"merged {len(payloads)} containers -> {args.output}: "
          f"{reader.n_elements} elements in {reader.n_chunks} chunks "
          f"({len(merged)} bytes, no recompression)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.observability import to_prometheus_text

    values = load_raw(args.input)
    config = _config_from_args(args)
    compressor = _pipeline_compressor(config, args, collect_metrics=True)

    result = compressor.compress_detailed(values)
    compress_report = compressor.last_report
    print("== compress ==")
    for line in compress_report.summary_lines():
        print(line)
    print(f"container: {result.stored_payload_bytes} payload bytes + "
          f"{result.container_overhead_bytes} metadata overhead "
          f"(ratio {result.ratio:.3f}, payload-only "
          f"{result.payload_ratio:.3f})")

    if not args.no_roundtrip:
        restored = compressor.decompress(result.payload)
        if not np.array_equal(np.asarray(restored), np.asarray(values)):
            print("error: round-trip mismatch", file=sys.stderr)
            return 1
        print("== decompress ==")
        for line in compressor.last_report.summary_lines():
            print(line)

    if args.prometheus is not None:
        text = to_prometheus_text(compressor.metrics)
        if args.prometheus == "-":
            print(text, end="")
        else:
            with open(args.prometheus, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"metrics         : wrote Prometheus text -> "
                  f"{args.prometheus}")
    if args.metrics_json is not None:
        _write_metrics_json(compressor.metrics, args.metrics_json)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from repro.api import plan

    values = load_raw(args.input)
    config = _config_from_args(args)
    with Stopwatch() as sw:
        decision = plan(values, config=config)
    if args.as_json:
        print(json.dumps(decision.to_dict(), indent=2))
        return 0
    print(f"decision        : {decision.summary()}")
    print(f"origin          : {decision.origin} "
          f"({sw.seconds * 1e3:.1f} ms)")
    print(f"improvable      : {'yes' if decision.improvable else 'no'}; "
          f"sample {decision.sample_elements} elements")
    for cand in decision.candidates:
        print(f"  measured {cand.codec_name:>6s} + "
              f"{cand.linearization.value:<6s}: ratio {cand.ratio:.3f}, "
              f"{cand.throughput / MEGABYTE:.1f} MB/s")
    for pred in decision.predictions:
        marker = "" if pred.confident else " (uncertain)"
        print(f"  predicted {pred.codec_name:>6s} + "
              f"{pred.linearization.value:<6s}: ratio "
              f"{pred.predicted_ratio:.3f}{marker}")
    for fail in decision.failed_candidates:
        print(f"  failed {fail.codec_name} + {fail.linearization.value}: "
              f"{fail.error}", file=sys.stderr)
    return 0


def _cmd_codecs(args: argparse.Namespace) -> int:
    from repro.codecs.base import iter_codecs

    sample = bytes(range(64)) * 64  # 4 KiB probe with structure
    print(f"{'name':14s} {'type':26s} probe ratio")
    for codec in iter_codecs():
        ratio = len(sample) / len(codec.compress(sample))
        print(f"{codec.name:14s} {type(codec).__name__:26s} {ratio:10.3f}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.devtools.lint import default_lint_root, run

    report = run(args.paths or [default_lint_root()])
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    import json

    from repro.devtools.sanitizer.harness import run_smoke, run_tests

    if args.smoke:
        report = run_smoke(
            seed_inversion=args.seed_inversion,
            stall_threshold_seconds=args.stall_threshold_ms / 1000.0,
        )
    else:
        report = run_tests(args.pytest_args)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imports are local: the bench stack pulls in every subsystem and
    # is only needed for this subcommand.
    from repro.bench import tables as bench_tables
    from repro.bench import figures as bench_figures

    n = args.elements
    emitted = False
    if args.table:
        table_fns = {
            1: lambda: bench_tables.table1_datasets(),
            2: lambda: bench_tables.table2_summary(n_elements=n),
            3: lambda: bench_tables.table3_statistics(n_elements=n),
            4: lambda: bench_tables.table4_analyzer(n_elements=n),
            5: lambda: bench_tables.table5_comparison(n_elements=n),
            6: lambda: bench_tables.table6_speed_preference(n_elements=n),
            7: lambda: bench_tables.table7_ratio_preference(n_elements=n),
            8: lambda: bench_tables.table8_single_precision(n_elements=n),
            9: lambda: bench_tables.table9_decompression(n_elements=n),
            10: lambda: bench_tables.table10_fpc_fpzip(n_elements=n),
        }
        print(table_fns[args.table]().render())
        emitted = True
    if args.figure:
        figure_fns = {
            1: lambda: bench_figures.figure1_bit_frequencies(n_elements=n),
            8: lambda: bench_figures.figure8_chunk_size(n_elements=max(n, 100_000)),
            9: lambda: bench_figures.figure9_linearization_cr(
                n_side=max(int(n ** 0.5), 50)),
            10: lambda: bench_figures.figure10_linearization_sp(
                n_side=max(int(n ** 0.5), 50)),
        }
        print(figure_fns[args.figure]().render())
        emitted = True
    if args.section_f:
        print(bench_tables.section_f_consistency(n_elements=n).render())
        emitted = True
    if not emitted:
        print("nothing to do: pass --table N, --figure N or --section-f",
              file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.app import IsobarService, ServiceConfig
    from repro.service.chaos import NetworkChaos, NetworkChaosPolicy

    config = _apply_strict(_config_from_args(args), args)

    chaos = None
    if (
        args.chaos_delay_percent
        or args.chaos_stall_percent
        or args.chaos_truncate_percent
    ):
        chaos = NetworkChaos(NetworkChaosPolicy(
            seed=args.chaos_seed,
            delay_percent=args.chaos_delay_percent,
            stall_percent=args.chaos_stall_percent,
            truncate_percent=args.chaos_truncate_percent,
        ))
        print("chaos           : wire-level fault injection ENABLED",
              file=sys.stderr)

    service = IsobarService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            default_deadline_seconds=args.deadline_seconds,
            max_deadline_seconds=args.max_deadline_seconds,
            drain_seconds=args.drain_seconds,
            max_body_bytes=int(args.max_body_mb * 1024 * 1024),
            pipeline_workers=args.pipeline_workers,
            pipeline_max_inflight=args.pipeline_max_inflight,
            stall_probe_threshold_seconds=(
                args.stall_probe_ms / 1000.0
                if args.stall_probe_ms is not None else None
            ),
            isobar=config,
        ),
        chaos=chaos,
    )

    async def _run() -> None:
        await service.start()
        print(f"listening       : http://{args.host}:{service.port}")
        print(f"admission       : {args.max_inflight} in flight, "
              f"{args.max_queue} queued, then 429")
        if args.pipeline_workers > 1:
            print(f"pipeline        : {args.pipeline_workers} chunk "
                  "workers per request")
        print("drain           : SIGTERM/SIGINT finishes in-flight work "
              f"(up to {args.drain_seconds:.0f}s)")
        await service.serve_forever()
        print("drained         : all in-flight work settled, bye")

    asyncio.run(_run())
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "autotune": _cmd_autotune,
    "info": _cmd_info,
    "verify": _cmd_verify,
    "fsck": _cmd_fsck,
    "salvage": _cmd_salvage,
    "stats": _cmd_stats,
    "extract": _cmd_extract,
    "plan": _cmd_plan,
    "codecs": _cmd_codecs,
    "concat": _cmd_concat,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except IsobarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
