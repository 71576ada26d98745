"""Unit and fuzz tests for the ``isobar verify`` verdict.

``verify`` prints the :func:`~repro.core.fsck.fsck` report; its verdict
is :attr:`~repro.core.fsck.FsckReport.intact` — every declared element
decodes with a good CRC.  These checks run fsck on container bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import IsobarError
from repro.core.fsck import fsck
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.datasets.synthetic import build_structured
from repro.testing.faults import chunk_chain_end, chunk_extents

_CFG = IsobarConfig(chunk_elements=30_000, sample_elements=2048)


@pytest.fixture(scope="module")
def container():
    rng = np.random.default_rng(5)
    values = build_structured(90_000, np.float64, 6, rng)
    return IsobarCompressor(_CFG).compress(values)


def _data_issues(report):
    return [issue for issue in report.issues if issue.kind != "footer"]


def _strict_decode_succeeds(data: bytes) -> bool:
    try:
        IsobarCompressor().decompress(data)
    except IsobarError:
        return False
    return True


class TestValidContainers:
    def test_clean_container_validates(self, container):
        report = fsck(container)
        assert report.intact and report.clean
        assert not report.issues
        assert report.n_chunks == 3
        assert report.n_elements == 90_000
        assert report.header is not None
        assert report.header.codec_name in ("zlib", "bzip2")

    def test_passthrough_container_validates(self):
        values = np.full(30_000, 1.5)
        payload = IsobarCompressor(_CFG).compress(values)
        report = fsck(payload)
        assert report.intact

    def test_empty_container_validates(self):
        payload = IsobarCompressor(_CFG).compress(np.array([], dtype=np.float64))
        report = fsck(payload)
        assert report.intact
        assert report.n_chunks == 0

    def test_summary_lines(self, container):
        lines = fsck(container).summary_lines()
        assert lines[-1] == "RESULT: CLEAN"
        assert any(line.startswith("header: ") for line in lines)


class TestCorruptionDetection:
    def test_bad_magic(self, container):
        report = fsck(b"XXXX" + container[4:])
        assert not report.intact
        assert report.issues[0].kind == "header"
        assert report.header is None

    def test_crc_corruption_localised(self, container):
        corrupted = bytearray(container)
        corrupted[chunk_chain_end(container) - 2] ^= 0xFF  # last chunk's raw noise
        report = fsck(bytes(corrupted))
        assert not report.intact
        # Only the final chunk is damaged, and the issue spans exactly it.
        assert [(i.kind, i.start, i.end) for i in report.issues] == [
            ("payload", *chunk_extents(container)[2])
        ]
        assert "chunk 2 " in report.issues[0].detail
        assert "CRC" in report.issues[0].detail

    def test_multiple_corruptions_all_reported(self, container):
        corrupted = bytearray(container)
        corrupted[chunk_chain_end(container) - 2] ^= 0xFF
        corrupted[len(corrupted) // 3] ^= 0xFF
        report = fsck(bytes(corrupted))
        assert not report.intact
        assert len(_data_issues(report)) >= 2

    def test_truncation(self, container):
        report = fsck(container[: len(container) - 200])
        assert not report.intact

    def test_trailing_garbage_is_warning(self, container):
        report = fsck(container + b"\x00" * 64)
        assert report.intact  # data intact
        assert report.issues and not _data_issues(report)

    def test_empty_input(self):
        report = fsck(b"")
        assert not report.intact

    def test_validator_never_raises_on_bitflips(self, container):
        """Single bit flips anywhere must produce a report, not a crash."""
        for position in range(0, len(container), max(len(container) // 60, 1)):
            corrupted = bytearray(container)
            corrupted[position] ^= 0x10
            report = fsck(bytes(corrupted))
            assert report.intact == _strict_decode_succeeds(bytes(corrupted))

    @settings(max_examples=40, deadline=None)
    @given(garbage=st.binary(min_size=0, max_size=600))
    def test_validator_never_raises_on_garbage(self, garbage):
        report = fsck(garbage)
        assert report.intact == _strict_decode_succeeds(garbage)


class TestFuzzDecoders:
    """Random bytes into every decoder: fail loudly, never crash oddly."""

    @settings(max_examples=40, deadline=None)
    @given(garbage=st.binary(min_size=0, max_size=400))
    def test_pipeline_decompress_raises_isobar_errors_only(self, garbage):
        from repro.core.exceptions import IsobarError

        try:
            IsobarCompressor().decompress(garbage)
        except IsobarError:
            pass  # the only acceptable failure mode

    @settings(max_examples=40, deadline=None)
    @given(garbage=st.binary(min_size=0, max_size=400))
    def test_reader_raises_isobar_errors_only(self, garbage):
        from repro.core.exceptions import IsobarError
        from repro.core.random_access import ContainerReader

        try:
            ContainerReader(garbage)
        except IsobarError:
            pass
