"""Tests for the chunk-index footer and the seekable ContainerFile.

The footer is derived data: every test here checks one side of that
contract — O(1) footer opens return exactly what the scan would, every
footer defect degrades to the scan (with a metrics signal), and
pre-footer containers keep working untouched.
"""

import io

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.metadata import (
    ChunkIndexRecord,
    ContainerFooter,
    ContainerHeader,
    chunk_record_nbytes,
    locate_footer,
)
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile, ContainerReader
from repro.datasets.synthetic import build_structured
from repro.observability.registry import MetricsRegistry
from repro.testing.faults import (
    chunk_chain_end,
    flip_footer_crc,
    stale_footer,
    truncate_footer,
)

_CFG = IsobarConfig(chunk_elements=10_000, sample_elements=2048)
_N = 40_000  # -> 4 chunks


@pytest.fixture(scope="module")
def stored():
    rng = np.random.default_rng(21)
    values = build_structured(_N, np.float64, 6, rng)
    return IsobarCompressor(_CFG).compress(values), values


@pytest.fixture
def on_disk(stored, tmp_path):
    payload, values = stored
    path = tmp_path / "c.isobar"
    path.write_bytes(payload)
    return path, payload, values


def _strip_footer(payload: bytes) -> bytes:
    """A pre-footer container: same chain, footer removed, header
    untouched (strict decoders read exactly n_chunks records)."""
    return payload[:locate_footer(payload).start]


class TestFooterEncoding:
    def test_every_writer_emits_a_validating_footer(self, stored):
        payload, _ = stored
        location = locate_footer(payload)
        assert location.ok
        assert location.footer.n_chunks == 4
        assert location.footer.n_elements == _N
        assert location.start == chunk_chain_end(payload)

    def test_encode_is_deterministic_and_self_locating(self, stored):
        payload, _ = stored
        footer = locate_footer(payload).footer
        encoded = footer.encode()
        assert len(encoded) == footer.encoded_nbytes
        assert locate_footer(encoded).footer == footer
        # Rebuilding from the chain reproduces the original bytes.
        assert payload.endswith(encoded)

    def test_entries_mirror_the_chunk_records(self, stored):
        payload, _ = stored
        header, offset = ContainerHeader.decode(payload)
        footer = locate_footer(payload).footer
        record_len = chunk_record_nbytes(header.element_width)
        for entry in footer.entries:
            assert entry.record_offset(header.element_width) == offset
            assert payload[offset:offset + 4] == b"CHNK"
            offset = entry.payload_end
        assert offset == locate_footer(payload).start

    def test_empty_footer_round_trips(self):
        footer = ContainerFooter(entries=())
        location = locate_footer(footer.encode())
        assert location.ok
        assert location.footer.n_chunks == 0

    def test_locate_statuses(self, stored):
        payload, _ = stored
        assert locate_footer(b"").status == "absent"
        assert locate_footer(_strip_footer(payload)).status == "absent"
        assert locate_footer(payload[:-5]).status == "absent"  # magic gone
        assert locate_footer(
            truncate_footer(payload, 40)
        ).status == "absent"  # trailer gone with the end magic
        assert locate_footer(
            flip_footer_crc(payload, 7)
        ).status == "crc_mismatch"
        # A footer whose declared length reaches before byte 0.
        tail = payload[locate_footer(payload).start + 30:]
        assert locate_footer(tail).status == "truncated"


class TestContainerFileOpen:
    def test_footer_open_matches_scan_reader(self, on_disk):
        path, payload, values = on_disk
        with ContainerFile(path) as reader:
            assert reader.opened_via == "footer"
            assert reader.fallback_reason is None
            assert np.array_equal(reader.read_all().reshape(-1), values)
            scan = ContainerReader(payload)
            assert len(reader.chunk_index()) == len(scan.chunk_index())
            for ours, theirs in zip(reader.chunk_index(),
                                    scan.chunk_index()):
                assert ours.payload_offset == theirs.payload_offset
                assert ours.n_elements == theirs.n_elements

    def test_random_reads_are_bit_exact(self, on_disk):
        path, _, values = on_disk
        rng = np.random.default_rng(5)
        with ContainerFile(path) as reader:
            for _ in range(20):
                start = int(rng.integers(0, _N - 1))
                stop = int(rng.integers(start + 1, _N + 1))
                assert np.array_equal(reader.read_range(start, stop),
                                      values[start:stop])
            assert reader.element(12_345) == values[12_345]

    def test_accepts_file_object_without_owning_it(self, on_disk):
        _, payload, values = on_disk
        handle = io.BytesIO(payload)
        reader = ContainerFile(handle)
        assert reader.opened_via == "footer"
        assert np.array_equal(reader.read_chunk(2),
                              values[20_000:30_000])
        reader.close()
        assert not handle.closed  # caller's handle stays the caller's

    def test_pre_footer_container_opens_via_scan(self, on_disk, tmp_path):
        path, payload, values = on_disk
        legacy = tmp_path / "legacy.isobar"
        legacy.write_bytes(_strip_footer(payload))
        registry = MetricsRegistry()
        with ContainerFile(legacy, metrics=registry) as reader:
            assert reader.opened_via == "scan"
            assert reader.fallback_reason == "absent"
            assert np.array_equal(reader.read_all().reshape(-1), values)
        counter = registry.get("isobar_container_footer_fallback_total")
        assert counter.value(reason="absent") == 1

    @pytest.mark.parametrize("damage, reason", [
        (lambda p: truncate_footer(p, 40), "absent"),
        (lambda p: flip_footer_crc(p, 3), "crc_mismatch"),
        (lambda p: stale_footer(p, 1), "inconsistent"),
    ])
    def test_footer_damage_falls_back_with_reason(self, on_disk, tmp_path,
                                                  damage, reason):
        path, payload, _ = on_disk
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(damage(payload))
        registry = MetricsRegistry()
        with ContainerFile(bad, metrics=registry) as reader:
            assert reader.opened_via == "scan"
            assert reader.fallback_reason == reason
            # Fallback still decodes every original element.
            assert reader.n_elements >= _N
            reader.read_chunk(0)
        assert registry.get(
            "isobar_container_footer_fallback_total"
        ).value(reason=reason) == 1

    def test_footer_roundtrip_through_streaming_writer(self, tmp_path):
        from repro.core.stream import stream_compress

        values = build_structured(25_000, np.float64, 6,
                                  np.random.default_rng(3))
        path = tmp_path / "s.isobar"
        stream_compress(
            (values[i:i + 10_000] for i in range(0, 25_000, 10_000)),
            path, np.float64, config=_CFG,
        )
        with ContainerFile(path) as reader:
            assert reader.opened_via == "footer"
            assert np.array_equal(reader.read_all(), values)


class TestBackwardCompat:
    """Pre-footer containers remain first-class in both directions."""

    def test_footer_less_round_trip_everywhere(self, on_disk, tmp_path):
        from repro.core.salvage import salvage_decompress
        from repro.core.stream import stream_decompress
        from repro.core.fsck import fsck

        _, payload, values = on_disk
        legacy = _strip_footer(payload)
        assert np.array_equal(
            IsobarCompressor().decompress(legacy).reshape(-1), values
        )
        assert np.array_equal(
            salvage_decompress(legacy, policy="skip").values, values
        )
        assert np.array_equal(
            ContainerReader(legacy).read_all().reshape(-1), values
        )
        path = tmp_path / "legacy.isobar"
        path.write_bytes(legacy)
        assert np.array_equal(
            np.concatenate(list(stream_decompress(path))), values
        )
        report = fsck(legacy)
        assert report.intact and report.clean
        assert report.footer_status == "absent"

    def test_strict_decoder_ignores_the_footer_entirely(self, stored):
        # Forward compat: today's containers decode on readers that
        # stop after n_chunks records — the footer is invisible to the
        # strict walk, so corrupting it must not affect decode.
        payload, values = stored
        mangled = bytearray(payload)
        mangled[-10] ^= 0xFF
        assert np.array_equal(
            IsobarCompressor().decompress(bytes(mangled)).reshape(-1),
            values,
        )


class TestChunkCache:
    def test_lru_bound_and_identity(self, on_disk):
        path, _, _ = on_disk
        with ContainerFile(path, cache_chunks=2) as reader:
            first = reader.read_chunk(0)
            assert reader.read_chunk(0) is first  # cache hit
            reader.read_chunk(1)
            reader.read_chunk(2)  # evicts chunk 0
            assert reader.cached_chunks == 2
            assert reader.read_chunk(0) is not first

    def test_unbounded_default_and_disabled(self, stored):
        payload, _ = stored
        reader = ContainerReader(payload)
        for i in range(4):
            reader.read_chunk(i)
        assert reader.cached_chunks == 4
        uncached = ContainerReader(payload, cache_chunks=0)
        uncached.read_chunk(0)
        assert uncached.cached_chunks == 0

    def test_negative_capacity_rejected(self, stored):
        payload, _ = stored
        with pytest.raises(ConfigurationError):
            ContainerReader(payload, cache_chunks=-1)


class TestOpenCost:
    """Footer opens must not touch the payload at all."""

    def _bytes_read_at_open(self, path, payload):
        reads = []

        class CountingFile(io.BytesIO):
            def read(self, n=-1):
                data = super().read(n)
                reads.append(len(data))
                return data

        reader = ContainerFile(CountingFile(payload))
        assert reader.opened_via == "footer"
        return sum(reads)

    def test_open_reads_only_header_and_footer(self, on_disk):
        path, payload, _ = on_disk
        total = self._bytes_read_at_open(path, payload)
        # Header probe + tail probe, regardless of payload size.
        assert total <= 2 * 4096
        assert total < len(payload) // 10

    @pytest.mark.perf
    def test_open_cost_independent_of_payload(self, tmp_path):
        """O(footer): a 16x larger container must not open 4x slower."""
        import time

        rng = np.random.default_rng(11)
        paths = []
        for label, n in (("small", 40_000), ("large", 640_000)):
            values = build_structured(n, np.float64, 6, rng)
            path = tmp_path / f"{label}.isobar"
            path.write_bytes(IsobarCompressor(_CFG).compress(values))
            paths.append(path)

        def open_time(path):
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                ContainerFile(path).close()
                best = min(best, time.perf_counter() - start)
            return best

        small, large = (open_time(p) for p in paths)
        # 16x the payload, 16x the chunk entries: allow generous noise
        # but reject anything resembling a linear payload scan.
        assert large < small * 8 + 0.05
