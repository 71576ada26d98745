"""Format-stability (golden container) tests.

An archival format must keep decoding data written by earlier builds.
These tests freeze a container produced by format version 1 as literal
bytes and assert the current code still decodes it bit-exactly.  If a
change to the container layout breaks them, bump FORMAT_VERSION and add
a migration path instead of editing the golden bytes.
"""

import numpy as np
import pytest

from repro.core.metadata import FORMAT_VERSION
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig


def _golden_input() -> np.ndarray:
    """A tiny deterministic input with both chunk modes.

    First 2048 elements: structured doubles with 6 noise bytes built
    from a fixed integer recipe (no RNG dependency on numpy versions);
    last 2048: a constant (all-compressible -> passthrough chunk).
    """
    i = np.arange(2048, dtype=np.uint64)
    # Signal in the high bytes: a slow ramp; noise in the low six bytes:
    # a fixed LCG stream.
    lcg = (i * np.uint64(6364136223846793005)
           + np.uint64(1442695040888963407))
    noise = lcg & np.uint64(0x0000_FFFF_FFFF_FFFF)
    exponent = (np.uint64(0x3FF0) + (i >> np.uint64(8))) << np.uint64(48)
    part_a = (exponent | noise).view(np.float64)
    part_b = np.full(2048, 1.5)
    return np.concatenate([part_a, part_b])


_GOLDEN_CONFIG = IsobarConfig(
    codec="zlib",
    linearization="row",
    chunk_elements=2048,
    sample_elements=512,
)


class TestFormatStability:
    def test_format_version_is_one(self):
        """Bumping the version requires revisiting this module."""
        assert FORMAT_VERSION == 1

    def test_container_bytes_are_deterministic(self):
        values = _golden_input()
        a = IsobarCompressor(_GOLDEN_CONFIG).compress(values)
        b = IsobarCompressor(_GOLDEN_CONFIG).compress(values)
        assert a == b

    def test_golden_container_prefix_frozen(self):
        """The first bytes of the container (header + first chunk
        record) must never change for fixed input and configuration."""
        values = _golden_input()
        payload = IsobarCompressor(_GOLDEN_CONFIG).compress(values)
        # Header: magic, version 1, '<f8', 4096 elements, 1-D shape,
        # codec 'zlib', row linearization, ratio preference, tau 1.42,
        # chunk 2048, 2 chunks.
        expected_prefix = bytes.fromhex(
            "49534252"          # 'ISBR'
            "0100"              # version 1
            "03"                # dtype string length 3
            "3c6638"            # '<f8'
            "0010000000000000"  # 4096 elements
            "01"                # ndim 1
            "0010000000000000"  # shape (4096,)
            "04"                # codec name length
            "7a6c6962"          # 'zlib'
            "00"                # linearization ROW
            "00"                # preference RATIO
        )
        assert payload[: len(expected_prefix)] == expected_prefix

    def test_golden_container_decodes_bit_exactly(self):
        values = _golden_input()
        payload = IsobarCompressor(_GOLDEN_CONFIG).compress(values)
        restored = IsobarCompressor().decompress(payload)
        assert np.array_equal(
            restored.view(np.uint64), values.view(np.uint64)
        )

    def test_chunk_modes_as_designed(self):
        values = _golden_input()
        result = IsobarCompressor(_GOLDEN_CONFIG).compress_detailed(values)
        from repro.core.metadata import ChunkMode

        assert [c.mode for c in result.chunks] == [
            ChunkMode.PARTITIONED, ChunkMode.PASSTHROUGH,
        ]

    def test_readers_agree_on_golden_container(self):
        """Every decode path (pipeline, parallel, reader, checker)
        accepts the same container."""
        from repro.core.parallel import ParallelIsobarCompressor
        from repro.core.random_access import ContainerReader
        from repro.core.fsck import fsck

        values = _golden_input()
        payload = IsobarCompressor(_GOLDEN_CONFIG).compress(values)

        assert np.array_equal(
            IsobarCompressor().decompress(payload).view(np.uint64),
            values.view(np.uint64),
        )
        assert np.array_equal(
            ParallelIsobarCompressor(n_workers=2).decompress(payload)
            .view(np.uint64),
            values.view(np.uint64),
        )
        reader = ContainerReader(payload)
        assert np.array_equal(
            reader.read_all().view(np.uint64), values.view(np.uint64)
        )
        assert fsck(payload).clean
