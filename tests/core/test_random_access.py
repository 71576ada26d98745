"""Unit tests for random access into ISOBAR containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ChecksumError, InvalidInputError
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerReader
from repro.datasets.synthetic import build_structured
from repro.testing.faults import chunk_chain_end

# 25k-element chunks: reliable analyzer statistics at tau=1.42.
_CFG = IsobarConfig(chunk_elements=25_000, sample_elements=2048)


@pytest.fixture(scope="module")
def stored():
    rng = np.random.default_rng(77)
    values = build_structured(100_000, np.float64, 6, rng)
    payload = IsobarCompressor(_CFG).compress(values)
    return payload, values


@pytest.fixture(scope="module")
def reader(stored):
    payload, _ = stored
    return ContainerReader(payload)


class TestIndex:
    def test_index_covers_all_elements(self, reader, stored):
        _, values = stored
        assert reader.n_elements == values.size
        assert reader.n_chunks == 4  # ceil(100000/25000)
        entries = reader.chunk_index()
        assert entries[0].element_start == 0
        assert entries[-1].element_stop == values.size
        for prev, cur in zip(entries, entries[1:]):
            assert prev.element_stop == cur.element_start

    def test_chunk_for_element(self, reader):
        assert reader.chunk_for_element(0).index == 0
        assert reader.chunk_for_element(24_999).index == 0
        assert reader.chunk_for_element(25_000).index == 1
        assert reader.chunk_for_element(99_999).index == 3

    def test_chunk_for_element_bounds(self, reader):
        with pytest.raises(InvalidInputError):
            reader.chunk_for_element(-1)
        with pytest.raises(InvalidInputError):
            reader.chunk_for_element(100_000)


class TestReads:
    def test_read_chunk(self, reader, stored):
        _, values = stored
        chunk = reader.read_chunk(2)
        assert np.array_equal(chunk, values[50_000:75_000])

    def test_read_chunk_bounds(self, reader):
        with pytest.raises(InvalidInputError):
            reader.read_chunk(4)

    def test_read_range_within_chunk(self, reader, stored):
        _, values = stored
        assert np.array_equal(reader.read_range(100, 200), values[100:200])

    def test_read_range_across_chunks(self, reader, stored):
        _, values = stored
        assert np.array_equal(
            reader.read_range(24_500, 51_500), values[24_500:51_500]
        )

    def test_read_range_everything(self, reader, stored):
        _, values = stored
        assert np.array_equal(reader.read_range(0, values.size), values)

    def test_read_range_empty(self, reader):
        assert reader.read_range(10, 10).size == 0

    def test_read_range_bounds(self, reader):
        with pytest.raises(InvalidInputError):
            reader.read_range(-1, 10)
        with pytest.raises(InvalidInputError):
            reader.read_range(0, 100_001)
        with pytest.raises(InvalidInputError):
            reader.read_range(20, 10)

    def test_point_lookup(self, reader, stored):
        _, values = stored
        for position in (0, 1, 24_999, 25_000, 60_000, 99_999):
            assert reader.element(position) == values[position]

    def test_read_all_matches_pipeline(self, reader, stored):
        payload, values = stored
        assert np.array_equal(reader.read_all().reshape(-1), values)

    def test_cache_returns_same_array(self, reader):
        first = reader.read_chunk(1)
        second = reader.read_chunk(1)
        assert first is second

    @settings(max_examples=30, deadline=None)
    @given(start=st.integers(0, 99_999), length=st.integers(0, 40_000))
    def test_arbitrary_ranges_property(self, reader, stored, start, length):
        _, values = stored
        stop = min(start + length, values.size)
        assert np.array_equal(
            reader.read_range(start, stop), values[start:stop]
        )


class TestIntegrity:
    def test_corrupt_chunk_detected_on_access(self, stored):
        payload, _ = stored
        corrupted = bytearray(payload)
        # Inside the last chunk's raw noise, just before the footer.
        corrupted[chunk_chain_end(payload) - 2] ^= 0xFF
        reader = ContainerReader(bytes(corrupted))
        # Index builds fine; only touching the bad chunk raises.
        reader.read_chunk(0)
        with pytest.raises(ChecksumError):
            reader.read_chunk(reader.n_chunks - 1)

    def test_truncated_container_rejected_at_index(self, stored):
        payload, _ = stored
        from repro.core.exceptions import TruncatedContainerError

        # Cut past the footer and into the last chunk so the chain
        # itself is short; the error carries the damage location.
        keep = chunk_chain_end(payload) - 100
        with pytest.raises(TruncatedContainerError) as excinfo:
            ContainerReader(payload[:keep])
        assert "byte offset" in str(excinfo.value)


class TestOwnedHandleOnFailedOpen:
    """A path-opened handle is closed when the constructor raises."""

    @pytest.fixture
    def opened(self, monkeypatch):
        from repro.core import random_access

        handles = []

        def recording_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(random_access, "open", recording_open,
                            raising=False)
        return handles

    def test_unknown_codec_closes_handle(self, stored, tmp_path, opened):
        import dataclasses

        from repro.core.exceptions import UnknownCodecError
        from repro.core.metadata import ContainerHeader

        payload, _ = stored
        header, offset = ContainerHeader.decode(payload)
        path = tmp_path / "unknown.isobar"
        path.write_bytes(
            dataclasses.replace(header, codec_name="no-such-codec").encode()
            + payload[offset:]
        )
        with pytest.raises(UnknownCodecError):
            ContainerReader(path)
        assert len(opened) == 1 and opened[0].closed

    def test_bad_errors_policy_closes_handle(self, stored, tmp_path, opened):
        from repro.core.exceptions import ConfigurationError

        path = tmp_path / "ok.isobar"
        path.write_bytes(stored[0])
        with pytest.raises(ConfigurationError):
            ContainerReader(path, errors="ignore")
        assert all(handle.closed for handle in opened)

    def test_negative_cache_closes_handle(self, stored, tmp_path, opened):
        from repro.core.exceptions import ConfigurationError

        path = tmp_path / "ok.isobar"
        path.write_bytes(stored[0])
        with pytest.raises(ConfigurationError):
            ContainerReader(path, cache_chunks=-1)
        assert all(handle.closed for handle in opened)
