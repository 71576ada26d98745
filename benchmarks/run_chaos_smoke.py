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
* a chunk's encoding depends only on its bytes: serial, 2 and 4
  engine workers, the streaming writer and a second run on the same
  compressor write one container, byte for byte;
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
import io
import os
import sys
import tempfile

import numpy as np

from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig, Linearization
from repro.core.resilience import ResiliencePolicy
from repro.core.salvage import salvage_decompress
from repro.core.stream import StreamingWriter, stream_decompress
from repro.datasets.synthetic import build_structured
from repro.testing.chaos import FlakyCodec, chaos_codec, solver_payloads

_CHUNK_ELEMENTS = 2048


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
    """``isobar_chunks_degraded_total`` (its one cause, ``error``)."""
    counter = compressor.metrics.get("isobar_chunks_degraded_total")
    if counter is None:
        return 0.0
    return counter.value(cause="error")


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
    config = _base_config(ResiliencePolicy())
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
    if flaky.failures != flaky.unique_failed_payloads:
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


def _stream_container(values: np.ndarray, config: IsobarConfig) -> bytes:
    """``values`` written one configured chunk at a time through
    :class:`~repro.core.stream.StreamingWriter`."""
    sink = io.BytesIO()
    writer = StreamingWriter(sink, values.dtype, config)
    for start in range(0, values.size, config.chunk_elements):
        writer.write_chunk(values[start:start + config.chunk_elements])
    writer.close()
    return sink.getvalue()


def scenario_determinism(seed: int) -> list[str]:
    """A chunk's encoding depends only on its bytes: under a flaky codec
    every mode writes one container and degrades exactly the doomed
    chunks."""
    failures: list[str] = []
    config = _base_config(ResiliencePolicy())
    values = _build_values(seed + 2, n_chunks=40)
    payloads = _payloads(values, config)

    for fail_percent in (30.0, 60.0):
        tag = f"scenario=determinism seed={seed} fail={fail_percent:g}%"
        fault_seed, doomed = _pick_fault_seed(
            payloads,
            lambda s: FlakyCodec("zlib", fail_percent=fail_percent, seed=s),
            seed * 1000 + 1,
        )
        flaky = FlakyCodec("zlib", fail_percent=fail_percent, seed=fault_seed)
        containers: dict[str, bytes] = {}
        with chaos_codec(flaky):
            try:
                serial = IsobarCompressor(config)
                first = serial.compress_detailed(values)
                containers["serial"] = first.payload
                containers["serial again"] = serial.compress(values)
                for n_workers in (2, 4):
                    containers[f"{n_workers} workers"] = IsobarCompressor(
                        config, n_workers
                    ).compress(values)
                containers["stream"] = _stream_container(values, config)
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{tag}: compression failed to complete: "
                                f"{type(exc).__name__}: {exc}")
                continue

        degraded = {event.chunk_index for event in first.degradation.events}
        if degraded != doomed:
            failures.append(
                f"{tag}: degraded chunks {sorted(degraded)} != doomed "
                f"{sorted(doomed)}"
            )
        for mode, payload in containers.items():
            if payload != first.payload:
                failures.append(
                    f"{tag}: {mode} container differs from the serial one"
                )
        _check_all_readers(first.payload, values, tag, failures)
    return failures


SCENARIOS = (
    ("flaky", scenario_flaky),
    ("determinism", scenario_determinism),
)


def run(seed: int = 0, *, verbose: bool = True) -> list[str]:
    """Run every scenario; return the list of assertion failures."""
    failures: list[str] = []
    for name, scenario in SCENARIOS:
        scenario_failures = scenario(seed)
        failures.extend(scenario_failures)
        if verbose:
            status = "FAIL" if scenario_failures else "ok"
            print(f"scenario {name:11s} seed={seed:<6d} {status}")
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
