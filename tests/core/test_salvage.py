"""Tests for the corruption-tolerant salvage decoder."""

import io

import numpy as np
import pytest

from repro.core.exceptions import (
    ChecksumError,
    ConfigurationError,
    ContainerFormatError,
    IsobarError,
)
from repro.core.metadata import ChunkMetadata, ContainerHeader
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.salvage import (
    _RESYNC_WINDOW,
    _find_magic,
    salvage_decompress,
    scan_chunks,
)
from repro.datasets.synthetic import build_structured

_CFG = IsobarConfig(chunk_elements=20_000, sample_elements=2048)
_N = 60_000  # -> 3 chunks
_CHUNK = _CFG.chunk_elements


@pytest.fixture(scope="module")
def payload_and_values():
    rng = np.random.default_rng(7)
    values = build_structured(_N, np.float64, 6, rng)
    return IsobarCompressor(_CFG).compress(values), values


def _chunk_starts(payload):
    header, offset = ContainerHeader.decode(payload)
    starts = []
    for _ in range(header.n_chunks):
        starts.append(offset)
        meta, pos = ChunkMetadata.decode(payload, offset, header.element_width)
        offset = pos + meta.compressed_size + meta.incompressible_size
    return starts, offset


class TestCleanContainers:
    def test_clean_skip_is_bit_exact(self, payload_and_values):
        payload, values = payload_and_values
        result = salvage_decompress(payload, policy="skip")
        assert np.array_equal(result.values, values)
        assert result.report.complete
        assert result.report.recovered_chunks == 3
        assert result.report.lost_elements == 0

    def test_clean_raise_is_bit_exact(self, payload_and_values):
        payload, values = payload_and_values
        result = salvage_decompress(payload, policy="raise")
        assert np.array_equal(result.values, values)

    def test_clean_zero_fill_is_bit_exact(self, payload_and_values):
        payload, values = payload_and_values
        result = salvage_decompress(payload, policy="zero_fill")
        assert np.array_equal(result.values, values)

    def test_empty_container(self):
        payload = IsobarCompressor(_CFG).compress(np.array([], dtype=np.float64))
        result = salvage_decompress(payload)
        assert result.values.size == 0
        assert result.report.complete

    def test_unknown_policy_rejected(self, payload_and_values):
        payload, _ = payload_and_values
        with pytest.raises(ConfigurationError):
            salvage_decompress(payload, policy="ignore")


class TestEveryChunkCorrupted:
    """Acceptance criterion: with any single chunk corrupted, skip mode
    recovers all remaining chunks bit-exactly and the report identifies
    the damaged chunk's index and byte range."""

    @pytest.mark.parametrize("damaged_index", [0, 1, 2])
    def test_payload_corruption_skip(self, payload_and_values, damaged_index):
        payload, values = payload_and_values
        starts, end = _chunk_starts(payload)
        bounds = starts + [end]
        # Flip a byte deep inside the damaged chunk's payload.
        target = (bounds[damaged_index] + bounds[damaged_index + 1]) // 2
        corrupted = bytearray(payload)
        corrupted[target] ^= 0xFF
        result = salvage_decompress(bytes(corrupted), policy="skip")

        expected = np.concatenate([
            values[i * _CHUNK:(i + 1) * _CHUNK]
            for i in range(3) if i != damaged_index
        ])
        assert np.array_equal(result.values, expected)
        assert len(result.report.damaged) == 1
        outcome = result.report.damaged[0]
        assert outcome.index == damaged_index
        assert outcome.start == bounds[damaged_index]
        assert outcome.end == bounds[damaged_index + 1]
        assert outcome.byte_range[0] <= target < outcome.byte_range[1]
        assert outcome.cause is not None

    @pytest.mark.parametrize("damaged_index", [0, 1, 2])
    def test_payload_corruption_zero_fill(self, payload_and_values,
                                          damaged_index):
        payload, values = payload_and_values
        starts, end = _chunk_starts(payload)
        bounds = starts + [end]
        corrupted = bytearray(payload)
        corrupted[(bounds[damaged_index] + bounds[damaged_index + 1]) // 2] ^= 0xFF
        result = salvage_decompress(bytes(corrupted), policy="zero_fill")

        assert result.values.size == _N
        lo, hi = damaged_index * _CHUNK, (damaged_index + 1) * _CHUNK
        assert np.all(result.values[lo:hi] == 0)
        keep = np.ones(_N, dtype=bool)
        keep[lo:hi] = False
        assert np.array_equal(result.values[keep], values[keep])

    @pytest.mark.parametrize("damaged_index", [0, 1, 2])
    def test_chunk_magic_destroyed_resyncs(self, payload_and_values,
                                           damaged_index):
        payload, values = payload_and_values
        starts, _ = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[starts[damaged_index]:starts[damaged_index] + 4] = b"XXXX"
        result = salvage_decompress(bytes(corrupted), policy="skip")

        expected = np.concatenate([
            values[i * _CHUNK:(i + 1) * _CHUNK]
            for i in range(3) if i != damaged_index
        ])
        assert np.array_equal(result.values, expected)
        assert result.report.lost_chunks == 1
        assert result.report.damaged[0].index == damaged_index

    def test_raise_policy_propagates(self, payload_and_values):
        payload, _ = payload_and_values
        _, end = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[end - 2] ^= 0xFF  # last payload byte of the chain
        with pytest.raises(ChecksumError) as excinfo:
            salvage_decompress(bytes(corrupted), policy="raise")
        assert "chunk 2" in str(excinfo.value)


class TestStructuralDamage:
    def test_truncation_recovers_leading_chunks(self, payload_and_values):
        payload, values = payload_and_values
        result = salvage_decompress(payload[:-200], policy="skip")
        assert result.report.recovered_chunks == 2
        assert np.array_equal(result.values, values[: 2 * _CHUNK])

    def test_deleted_chunk_recovers_the_rest(self, payload_and_values):
        payload, values = payload_and_values
        starts, _ = _chunk_starts(payload)
        deleted = payload[: starts[1]] + payload[starts[2]:]
        result = salvage_decompress(deleted, policy="skip")
        # Chunk 1 is gone without a trace; 0 and 2 survive.
        assert result.report.recovered_chunks == 2
        expected = np.concatenate(
            [values[:_CHUNK], values[2 * _CHUNK:]]
        )
        assert np.array_equal(result.values, expected)

    def test_destroyed_header_not_salvageable(self, payload_and_values):
        payload, _ = payload_and_values
        with pytest.raises(ContainerFormatError):
            salvage_decompress(b"XXXX" + payload[4:], policy="skip")

    def test_zero_fill_estimates_gap_elements(self, payload_and_values):
        payload, values = payload_and_values
        starts, _ = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[starts[1]:starts[1] + 4] = b"XXXX"
        result = salvage_decompress(bytes(corrupted), policy="zero_fill")
        assert result.values.size == _N
        assert np.array_equal(result.values[:_CHUNK], values[:_CHUNK])
        assert np.all(result.values[_CHUNK:2 * _CHUNK] == 0)
        assert np.array_equal(result.values[2 * _CHUNK:],
                              values[2 * _CHUNK:])
        assert result.report.damaged[0].estimated

    def test_multiple_damaged_chunks(self, payload_and_values):
        payload, values = payload_and_values
        starts, end = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[(starts[0] + starts[1]) // 2] ^= 0xFF
        corrupted[(starts[2] + end) // 2] ^= 0xFF
        result = salvage_decompress(bytes(corrupted), policy="skip")
        assert result.report.recovered_chunks == 1
        assert {o.index for o in result.report.damaged} == {0, 2}
        assert np.array_equal(result.values, values[_CHUNK:2 * _CHUNK])


class TestScanChunks:
    def test_clean_scan_yields_all_chunks(self, payload_and_values):
        payload, _ = payload_and_values
        header, offset = ContainerHeader.decode(payload)
        events = list(scan_chunks(payload, header, offset))
        assert [e.kind for e in events] == ["chunk"] * 3
        assert events[0].start == offset
        assert all(e.meta is not None for e in events)

    def test_scan_reports_gap_and_resync(self, payload_and_values):
        payload, _ = payload_and_values
        from repro.codecs.base import get_codec

        header, offset = ContainerHeader.decode(payload)
        starts, _ = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[starts[1]:starts[1] + 4] = b"XXXX"
        events = list(scan_chunks(bytes(corrupted), header, offset,
                                  get_codec(header.codec_name)))
        kinds = [e.kind for e in events]
        assert kinds == ["chunk", "gap", "chunk"]
        assert events[1].start == starts[1]
        assert events[1].end == starts[2]
        assert events[2].resynced

    def test_file_scan_matches_bytes_scan(self, payload_and_values):
        """Over a file the scan reads one record or search window at a
        time and finds the same regions."""
        from repro.codecs.base import get_codec

        payload, _ = payload_and_values
        header, offset = ContainerHeader.decode(payload)
        starts, _ = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[starts[1]:starts[1] + 4] = b"XXXX"
        codec = get_codec(header.codec_name)

        def regions(source):
            return [
                (e.kind, e.start, e.end, e.resynced)
                for e in scan_chunks(source, header, offset, codec)
            ]

        assert starts[2] - starts[1] > _RESYNC_WINDOW  # spans windows
        assert regions(io.BytesIO(bytes(corrupted))) == \
            regions(bytes(corrupted))

    @pytest.mark.parametrize("shift", [-4, -3, -2, -1, 0])
    def test_magic_found_across_file_windows(self, shift):
        position = _RESYNC_WINDOW + shift
        data = bytes(position) + b"CHNK" + bytes(10)
        assert _find_magic(io.BytesIO(data), 0) == position
        assert _find_magic(io.BytesIO(data), position + 1) == -1

    def test_report_summary_lines(self, payload_and_values):
        payload, _ = payload_and_values
        _, end = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[end - 2] ^= 0xFF
        report = salvage_decompress(bytes(corrupted)).report
        text = "\n".join(report.summary_lines())
        assert "PARTIAL" in text
        assert "chunk 2" in text
        clean = salvage_decompress(payload).report
        assert "COMPLETE" in "\n".join(clean.summary_lines())


class TestLenientPipelines:
    """errors= plumbed through the serial and parallel decoders."""

    def test_serial_decompress_skip(self, payload_and_values):
        payload, values = payload_and_values
        _, end = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[end - 2] ^= 0xFF
        restored = IsobarCompressor().decompress(bytes(corrupted),
                                                 errors="skip")
        assert np.array_equal(restored, values[: 2 * _CHUNK])

    def test_parallel_decompress_zero_fill(self, payload_and_values):
        from repro.core.parallel import ParallelIsobarCompressor

        payload, values = payload_and_values
        _, end = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[end - 2] ^= 0xFF
        restored = ParallelIsobarCompressor(n_workers=2).decompress(
            bytes(corrupted), errors="zero_fill"
        )
        assert restored.size == _N
        assert np.array_equal(restored[: 2 * _CHUNK], values[: 2 * _CHUNK])
        assert np.all(restored[2 * _CHUNK:] == 0)

    def test_strict_errors_carry_location(self, payload_and_values):
        payload, _ = payload_and_values
        starts, end = _chunk_starts(payload)
        corrupted = bytearray(payload)
        corrupted[(starts[1] + starts[2]) // 2] ^= 0xFF
        with pytest.raises(IsobarError) as excinfo:
            IsobarCompressor().decompress(bytes(corrupted))
        message = str(excinfo.value)
        assert "chunk 1" in message
        assert f"byte offset {starts[1]}" in message
