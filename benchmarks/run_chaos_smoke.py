#!/usr/bin/env python
"""Chaos smoke: misbehaving solvers × the compress-side resilience layer.

Compresses seeded datasets while the registered codec misbehaves
(:mod:`repro.testing.chaos`) and asserts the fault-containment
contract of :mod:`repro.core.resilience`:

* compression **completes** under injected faults — no exception
  escapes, the worst case is a degraded (zlib-fallback or raw) chunk;
* the degraded set is **deterministic** and exactly matches the set of
  chunks whose solver payload the chaos trigger dooms, and each doomed
  chunk calls the codec once (no retry);
* ``isobar_chunks_degraded_total`` matches the injected fault count;
* the circuit breaker opens after K *consecutive* failures and routes
  subsequent chunks straight to the fallback (with half-open probes);
* the resulting container decodes **bit-exactly** through all four
  readers — strict serial, parallel, streaming and salvage — in a
  *pristine* process (the chaos wrapper shadows the real codec name,
  so no chaos code is needed to read the output).

Usage::

    PYTHONPATH=src python benchmarks/run_chaos_smoke.py [--seed 0]

Faults are keyed on payload *content*, never call order or wall-clock,
so every run (serial or parallel) degrades the same chunks.  The same
driver backs the ``chaos``-marked pytest tests (``pytest -m chaos``).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Linearization
from repro.core.resilience import BreakerState, ResiliencePolicy
from repro.core.salvage import salvage_decompress
from repro.core.stream import stream_decompress
from repro.datasets.synthetic import build_structured
from repro.testing.chaos import (
    FlakyCodec,
    HangingCodec,
    chaos_codec,
    solver_payloads,
)

_CHUNK_ELEMENTS = 2048
_DEGRADATION_CAUSES = ("error", "timeout", "breaker_open")


def _build_values(seed: int, n_chunks: int = 10) -> np.ndarray:
    """A structured float64 dataset spanning ``n_chunks`` chunks."""
    rng = np.random.default_rng(seed)
    return build_structured(
        n_chunks * _CHUNK_ELEMENTS - _CHUNK_ELEMENTS // 3,
        np.dtype(np.float64), 3, rng,
    )


def _base_config(policy: ResiliencePolicy) -> IsobarConfig:
    """Pin codec and linearization so chunk payloads are predictable."""
    return IsobarConfig(
        codec="zlib",
        linearization=Linearization.ROW,
        chunk_elements=_CHUNK_ELEMENTS,
        sample_elements=1024,
        resilience=policy,
    )


def _payloads(values: np.ndarray, config: IsobarConfig) -> list[bytes]:
    """The exact byte string each chunk submits to the solver."""
    return solver_payloads(
        values,
        chunk_elements=config.chunk_elements,
        tau=config.tau,
        linearization=config.linearization,
    )


def _pick_fault_seed(payloads, make_trigger, start: int):
    """First seed (scanning from ``start``) whose content-keyed trigger
    dooms some but not all chunk payloads — deterministic for a given
    dataset, never degenerate."""
    for seed in range(start, start + 500):
        trigger = make_trigger(seed)
        doomed = {
            i for i, payload in enumerate(payloads)
            if trigger.is_doomed(payload)
        }
        if 0 < len(doomed) < len(payloads):
            return seed, doomed
    raise RuntimeError("no non-degenerate fault seed in 500 tries")


def _degraded_total(compressor) -> float:
    """Sum of ``isobar_chunks_degraded_total`` across all causes."""
    counter = compressor.metrics.get("isobar_chunks_degraded_total")
    if counter is None:
        return 0.0
    return sum(counter.value(cause=c) for c in _DEGRADATION_CAUSES)


def _check_all_readers(
    payload: bytes, values: np.ndarray, tag: str, failures: list[str]
) -> None:
    """Decode ``payload`` with every reader (pristine registry) and
    demand bit-exact equality with ``values``."""
    flat = np.asarray(values).reshape(-1)

    def _stream_read(data: bytes) -> np.ndarray:
        fd, path = tempfile.mkstemp(suffix=".isobar")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            return np.concatenate(list(stream_decompress(path)))
        finally:
            os.unlink(path)

    readers = (
        ("serial", lambda d: IsobarCompressor().decompress(d)),
        ("parallel",
         lambda d: ParallelIsobarCompressor(n_workers=2).decompress(d)),
        ("stream", _stream_read),
        ("salvage", lambda d: salvage_decompress(d, policy="skip").values),
    )
    for name, reader in readers:
        try:
            restored = np.asarray(reader(payload)).reshape(-1)
        except Exception as exc:  # noqa: BLE001 - the point of the smoke
            failures.append(
                f"{tag} reader={name}: {type(exc).__name__} escaped: {exc}"
            )
            continue
        if restored.dtype != flat.dtype or not np.array_equal(restored, flat):
            failures.append(f"{tag} reader={name}: round-trip mismatch")


def scenario_flaky(seed: int) -> list[str]:
    """Partial flakiness: doomed chunks degrade, the rest stay healthy."""
    failures: list[str] = []
    tag = f"scenario=flaky seed={seed}"
    policy = ResiliencePolicy(breaker_threshold=10_000)
    config = _base_config(policy)
    values = _build_values(seed)

    fault_seed, doomed = _pick_fault_seed(
        _payloads(values, config),
        lambda s: FlakyCodec("zlib", fail_percent=35.0, seed=s),
        seed * 1000,
    )
    flaky = FlakyCodec("zlib", fail_percent=35.0, seed=fault_seed)

    with chaos_codec(flaky):
        compressor = IsobarCompressor(config, collect_metrics=True)
        try:
            result = compressor.compress_detailed(values)
        except Exception as exc:  # noqa: BLE001
            return [f"{tag}: compression failed to complete: "
                    f"{type(exc).__name__}: {exc}"]

    degraded = {event.chunk_index for event in result.degradation.events}
    if degraded != doomed:
        failures.append(
            f"{tag}: degraded chunks {sorted(degraded)} != doomed "
            f"{sorted(doomed)} (nondeterministic or leaked fault)"
        )
    # Each doomed chunk calls the codec once: every failed call hit a
    # payload no earlier call had failed on.
    if flaky.failures != flaky.unique_failed_payloads or any(
        event.attempts != 1 for event in result.degradation.events
    ):
        failures.append(
            f"{tag}: {flaky.failures} failed codec calls on "
            f"{flaky.unique_failed_payloads} payloads; expected one "
            f"call per doomed chunk"
        )
    for event in result.degradation.events:
        if event.cause != "error" or event.encoding != "zlib-fallback":
            failures.append(
                f"{tag}: chunk {event.chunk_index} degraded as "
                f"{event.cause}/{event.encoding}, expected "
                f"error/zlib-fallback"
            )
    metric = _degraded_total(compressor)
    if metric != len(doomed):
        failures.append(
            f"{tag}: isobar_chunks_degraded_total={metric}, "
            f"expected {len(doomed)}"
        )
    _check_all_readers(result.payload, values, tag, failures)
    return failures


def scenario_hang(seed: int) -> list[str]:
    """Hung solver calls: the chunk deadline fires, chunks degrade."""
    failures: list[str] = []
    tag = f"scenario=hang seed={seed}"
    policy = ResiliencePolicy(
        chunk_deadline_seconds=0.05,
        breaker_threshold=10_000,
    )
    config = _base_config(policy)
    values = _build_values(seed + 1)

    fault_seed, doomed = _pick_fault_seed(
        _payloads(values, config),
        lambda s: HangingCodec("zlib", hang_percent=20.0, seed=s),
        seed * 1000,
    )
    hanging = HangingCodec(
        "zlib", hang_seconds=0.4, hang_percent=20.0, seed=fault_seed
    )

    with chaos_codec(hanging):
        compressor = IsobarCompressor(config, collect_metrics=True)
        try:
            result = compressor.compress_detailed(values)
        except Exception as exc:  # noqa: BLE001
            return [f"{tag}: compression failed to complete: "
                    f"{type(exc).__name__}: {exc}"]

    degraded = {event.chunk_index for event in result.degradation.events}
    if degraded != doomed:
        failures.append(
            f"{tag}: degraded chunks {sorted(degraded)} != doomed "
            f"{sorted(doomed)}"
        )
    for event in result.degradation.events:
        if event.cause != "timeout":
            failures.append(
                f"{tag}: chunk {event.chunk_index} cause={event.cause}, "
                f"expected timeout"
            )
    metric = _degraded_total(compressor)
    if metric != len(doomed):
        failures.append(
            f"{tag}: isobar_chunks_degraded_total={metric}, "
            f"expected {len(doomed)}"
        )
    _check_all_readers(result.payload, values, tag, failures)
    return failures


def scenario_breaker(seed: int) -> list[str]:
    """Total codec outage: the breaker opens after K consecutive
    failures, short-circuits the rest, and half-open probes keep
    re-testing the (still broken) codec."""
    failures: list[str] = []
    tag = f"scenario=breaker seed={seed}"
    threshold, probe_after = 3, 2
    policy = ResiliencePolicy(
        breaker_threshold=threshold,
        breaker_probe_after=probe_after,
    )
    config = _base_config(policy)
    values = _build_values(seed + 2)
    n_chunks = len(_payloads(values, config))

    with chaos_codec(FlakyCodec("zlib", fail_percent=100.0, seed=seed)):
        compressor = IsobarCompressor(config, collect_metrics=True)
        try:
            result = compressor.compress_detailed(values)
        except Exception as exc:  # noqa: BLE001
            return [f"{tag}: compression failed to complete: "
                    f"{type(exc).__name__}: {exc}"]
        state = compressor.breakers.for_codec("zlib").state

    if state is not BreakerState.OPEN:
        failures.append(f"{tag}: breaker ended {state.value}, expected open")
    if result.degradation.degraded_chunks != n_chunks:
        failures.append(
            f"{tag}: {result.degradation.degraded_chunks}/{n_chunks} "
            f"chunks degraded under a total outage"
        )
    causes = [event.cause for event in result.degradation.events]
    # Chunks 0..K-1 fail through the codec; the breaker then opens and
    # alternates probe_after short-circuits with one failing probe.
    expected: list[str] = []
    while len(expected) < n_chunks:
        if len(expected) < threshold:
            expected.append("error")
        elif (len(expected) - threshold) % (probe_after + 1) < probe_after:
            expected.append("breaker_open")
        else:
            expected.append("error")  # the failed half-open probe
    if causes != expected:
        failures.append(f"{tag}: causes {causes} != expected {expected}")
    if any(
        event.cause == "breaker_open" and event.attempts != 0
        for event in result.degradation.events
    ):
        failures.append(f"{tag}: breaker-open chunk reported attempts > 0")
    _check_all_readers(result.payload, values, tag, failures)
    return failures


SCENARIOS = (
    ("flaky", scenario_flaky),
    ("hang", scenario_hang),
    ("breaker", scenario_breaker),
)


def run(seed: int = 0, *, verbose: bool = True) -> list[str]:
    """Run every scenario; return the list of assertion failures."""
    failures: list[str] = []
    for name, scenario in SCENARIOS:
        scenario_failures = scenario(seed)
        failures.extend(scenario_failures)
        if verbose:
            status = "FAIL" if scenario_failures else "ok"
            print(f"scenario {name:8s} seed={seed:<6d} {status}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed (default 0)")
    args = parser.parse_args()

    failures = run(args.seed)
    if failures:
        print(f"\n{len(failures)} containment failure(s):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nall {len(SCENARIOS)} chaos scenarios contained "
          f"(4 readers each, pristine decode)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
