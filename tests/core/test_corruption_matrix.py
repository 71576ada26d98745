"""Corruption matrix: every fault type × every decode mode.

Satellite requirement: drive every fault in :mod:`repro.testing.faults`
against every decode mode (strict, skip, zero_fill), plus truncation at
every structural boundary of a small container.  The invariant under
test is *containment*: no matter the damage, decoding either succeeds
or raises an :class:`~repro.core.exceptions.IsobarError` subclass —
never a bare ``struct.error`` / ``IndexError`` / ``ValueError``.
"""

import numpy as np
import pytest

from repro.core.exceptions import IsobarError
from repro.core.fsck import fsck
from repro.core.metadata import ChunkMetadata, ContainerHeader
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.salvage import SALVAGE_POLICIES, salvage_decompress
from repro.datasets.synthetic import build_structured
from repro.testing.faults import FAULT_TYPES, inject

_CFG = IsobarConfig(chunk_elements=4096, sample_elements=1024)
_N = 3 * 4096

DECODE_MODES = ("raise",) + tuple(p for p in SALVAGE_POLICIES if p != "raise")


@pytest.fixture(scope="module")
def container():
    rng = np.random.default_rng(99)
    values = build_structured(_N, np.float64, 6, rng)
    return IsobarCompressor(_CFG).compress(values), values


@pytest.fixture(scope="module")
def degraded_container():
    """A container where every chunk degraded through the resilience
    fallback chain (one run zlib-fallback, one run raw)."""
    from repro.core.preferences import Linearization
    from repro.core.resilience import ResiliencePolicy
    from repro.testing.chaos import FlakyCodec, chaos_codec

    rng = np.random.default_rng(99)
    values = build_structured(_N, np.float64, 6, rng)
    payloads = {}
    for label, fallback in (("zlib-fallback", True), ("raw", False)):
        config = _CFG.replace(
            codec="zlib",
            linearization=Linearization.ROW,
            resilience=ResiliencePolicy(
                max_attempts=1, fallback_zlib=fallback,
                breaker_threshold=10_000,
            ),
        )
        with chaos_codec(FlakyCodec("zlib", fail_percent=100.0)):
            result = IsobarCompressor(config).compress_detailed(values)
        assert result.degradation.degraded_chunks == len(result.chunks)
        payloads[label] = result.payload
    return payloads, values


def _boundaries(payload):
    """Every structural boundary: header end, each chunk-record end,
    each payload section end."""
    header, offset = ContainerHeader.decode(payload)
    cuts = [0, 4, offset]  # start, mid-magic, end of header
    for _ in range(header.n_chunks):
        meta, payload_offset = ChunkMetadata.decode(
            payload, offset, header.element_width
        )
        cuts.append(offset + 4)       # just past CHNK magic
        cuts.append(payload_offset)   # end of chunk record
        cuts.append(payload_offset + meta.compressed_size)
        offset = payload_offset + meta.compressed_size + meta.incompressible_size
        cuts.append(offset)           # end of chunk
    return sorted(set(cuts))


def _decode(payload, mode):
    if mode == "raise":
        return IsobarCompressor(_CFG).decompress(payload)
    return salvage_decompress(payload, policy=mode).values


@pytest.mark.parametrize("mode", DECODE_MODES)
@pytest.mark.parametrize("fault", FAULT_TYPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fault_times_mode_containment(container, fault, mode, seed):
    payload, values = container
    injected = inject(payload, fault, seed)
    try:
        restored = _decode(injected.data, mode)
    except IsobarError:
        return  # contained failure is a valid outcome
    # A successful decode must return a well-formed array of the right
    # dtype; in zero_fill mode it must preserve the element count.
    restored = np.asarray(restored)
    assert restored.dtype == values.dtype, injected.description
    if mode == "zero_fill" and fault not in ("truncate", "header_magic"):
        assert restored.size >= 0
    # Whatever was recovered must be a faithful subset: every recovered
    # chunk-aligned run that matches positionally is bit-exact (checked
    # in detail in test_salvage.py; here we only require containment).


@pytest.mark.parametrize("mode", DECODE_MODES)
def test_truncation_at_every_boundary(container, mode):
    payload, values = container
    for cut in _boundaries(payload):
        truncated = payload[:cut]
        if mode == "raise":
            try:
                restored = _decode(truncated, mode)
            except IsobarError:
                continue
            # Strict decode may only succeed once the whole chunk chain
            # is present; cuts inside the trailing index footer lose
            # only (rebuildable) index data, never elements.
            assert cut >= _boundaries(payload)[-1]
            assert np.array_equal(np.asarray(restored).reshape(-1), values)
            continue
        try:
            result = salvage_decompress(truncated, policy=mode)
        except IsobarError:
            # Only damage before the first chunk is unsalvageable.
            assert cut < _boundaries(payload)[2] or cut <= 8
            continue
        # Truncation only loses trailing chunks: whatever was recovered
        # is a bit-exact leading prefix of the original values.
        recovered = result.report.recovered_elements
        assert recovered % _CFG.chunk_elements == 0
        restored = np.asarray(result.values).reshape(-1)
        assert np.array_equal(restored[:recovered], values[:recovered])
        if mode == "zero_fill":
            assert np.all(restored[recovered:] == 0)


@pytest.mark.parametrize("fault", FAULT_TYPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_validate_never_escapes(container, fault, seed):
    payload, _ = container
    injected = inject(payload, fault, seed)
    # fsck reports rather than raises: a damaged container must never
    # be declared intact.  Footer-only damage is the one sanctioned
    # exception — every element remains decodable, so the report stays
    # intact but must flag the footer as unhealthy (fsck --repair can
    # rebuild it from the intact chain).
    report = fsck(injected.data)
    if fault in ("torn_tail", "truncate_footer", "footer_crc",
                 "stale_footer") and report.intact:
        assert report.footer_status != "ok", injected.description
        return
    if fault != "zero_range" or injected.data != payload:
        assert not report.intact or injected.data == payload


class TestDegradedContainers:
    """Degraded (fallback-encoded) chunks are first-class citizens of
    the container format: every reader must round-trip them bit-exactly
    and every fault must stay contained."""

    @pytest.mark.parametrize("encoding", ["zlib-fallback", "raw"])
    def test_all_decoders_bit_exact(self, degraded_container, encoding):
        from repro.core.parallel import ParallelIsobarCompressor
        from repro.core.stream import stream_decompress

        payloads, values = degraded_container
        payload = payloads[encoding]

        for restored in (
            IsobarCompressor(_CFG).decompress(payload),
            ParallelIsobarCompressor(_CFG, n_workers=2).decompress(payload),
            salvage_decompress(payload, policy="skip").values,
        ):
            assert np.array_equal(
                np.asarray(restored).reshape(-1), values
            )

        import os
        import tempfile

        fd, path = tempfile.mkstemp(suffix=".isobar")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            streamed = np.concatenate(list(stream_decompress(path)))
        finally:
            os.unlink(path)
        assert np.array_equal(streamed, values)

    @pytest.mark.parametrize("encoding", ["zlib-fallback", "raw"])
    def test_random_access_and_validate(self, degraded_container, encoding):
        from repro.core.random_access import ContainerReader

        payloads, values = degraded_container
        payload = payloads[encoding]
        reader = ContainerReader(payload)
        assert np.array_equal(reader.read_all().reshape(-1), values)
        assert fsck(payload).clean

    @pytest.mark.parametrize("mode", DECODE_MODES)
    @pytest.mark.parametrize("fault", FAULT_TYPES)
    @pytest.mark.parametrize("encoding", ["zlib-fallback", "raw"])
    def test_faults_stay_contained(self, degraded_container, encoding,
                                   fault, mode):
        payloads, values = degraded_container
        injected = inject(payloads[encoding], fault, 1)
        try:
            restored = _decode(injected.data, mode)
        except IsobarError:
            return  # contained failure is a valid outcome
        assert np.asarray(restored).dtype == values.dtype, \
            injected.description


@pytest.mark.parametrize("fault", ["torn_tail", "truncate_footer",
                                   "footer_crc", "stale_footer"])
@pytest.mark.parametrize("seed", range(6))
def test_footer_faults_land_in_documented_outcomes(container, tmp_path,
                                                   fault, seed):
    """Every footer fault ends in exactly one sanctioned bucket:
    a clean footer open, a fallback-to-scan open, or an actionable
    fsck report — never an undocumented failure mode."""
    from repro.core.fsck import fsck
    from repro.core.random_access import ContainerFile

    payload, values = container
    injected = inject(payload, fault, seed)
    path = tmp_path / f"{fault}_{seed}.isobar"
    path.write_bytes(injected.data)

    try:
        with ContainerFile(path, errors="salvage-skip") as reader:
            opened_via = reader.opened_via
            restored = reader.read_range(0, reader.n_elements)
    except IsobarError:
        # Bucket 3: the damage reached the chunk chain itself (e.g. a
        # torn tail that cut into the last chunk) — fsck must turn that
        # into an actionable report rather than a repair-by-guessing.
        report = fsck(path)
        assert not report.clean
        assert report.issues or any(
            not orphan.finalized for orphan in report.orphans
        )
        return
    if opened_via == "footer":
        # Bucket 1: the fault degenerated to harmless damage (e.g. a
        # header-area flip on a seed with no footer to target) or left
        # the footer validating; recovered data must be a prefix.
        assert np.array_equal(
            restored[: values.size], values[: restored.size]
        )
        return
    # Bucket 2: documented fallback-to-scan with a recorded reason, and
    # whatever the scan recovered is original data, chunk for chunk.
    assert reader.fallback_reason in (
        "absent", "truncated", "malformed", "crc_mismatch", "inconsistent"
    )
    chunk = _CFG.chunk_elements
    source = {
        values[i * chunk:(i + 1) * chunk].tobytes() for i in range(3)
    }
    flat = np.asarray(restored).reshape(-1)
    for i in range(flat.size // chunk):
        assert flat[i * chunk:(i + 1) * chunk].tobytes() in source, \
            injected.description


@pytest.mark.parametrize("seed", range(4))
def test_skip_mode_never_fabricates(container, seed):
    """skip-mode output is always a subsequence of whole source chunks."""
    payload, values = container
    chunk = _CFG.chunk_elements
    source_chunks = [
        values[i * chunk:(i + 1) * chunk].tobytes() for i in range(3)
    ]
    for fault in FAULT_TYPES:
        injected = inject(payload, fault, seed)
        try:
            restored = salvage_decompress(injected.data, policy="skip").values
        except IsobarError:
            continue
        restored = np.asarray(restored).reshape(-1)
        assert restored.size % chunk == 0, injected.description
        for i in range(restored.size // chunk):
            piece = restored[i * chunk:(i + 1) * chunk].tobytes()
            assert piece in source_chunks, injected.description
