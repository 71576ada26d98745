"""Cross-implementation consistency: one format, many readers/writers.

The container format has two encode paths: the chunk engine
(``IsobarCompressor`` at any worker count, which the streaming writer
also runs on) and concat, which re-frames existing chunks.  It has
four readers: the engine's decode (any worker count), the streaming
reader, the random-access ``ContainerFile`` (here under its in-memory
name ``ContainerReader``) and the ``fsck`` checker, which decodes every
chunk.  These property tests drive
random inputs through the writer/reader pairings, one and several
workers included, and assert bit-exact agreement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.concat import concat_containers
from repro.core.fsck import fsck
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerReader
from repro.core.stream import stream_decompress

_CFG = IsobarConfig(codec="zlib", linearization="row",
                    chunk_elements=64, sample_elements=64)

_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 400),
    elements=st.floats(allow_nan=True, allow_infinity=True),
)


def _bits(values):
    return np.asarray(values).reshape(-1).view(np.uint64)


class TestEveryReaderAgrees:
    @settings(max_examples=30, deadline=None)
    @given(values=_arrays)
    def test_all_readers_on_pipeline_output(self, values, tmp_path_factory):
        payload = IsobarCompressor(_CFG).compress(values)

        from_pipeline = IsobarCompressor().decompress(payload)
        from_parallel = ParallelIsobarCompressor(n_workers=2).decompress(
            payload
        )
        from_reader = ContainerReader(payload).read_all()

        assert np.array_equal(_bits(from_pipeline), _bits(values))
        assert np.array_equal(_bits(from_parallel), _bits(values))
        assert np.array_equal(_bits(from_reader), _bits(values))
        assert fsck(payload).clean

    @settings(max_examples=20, deadline=None)
    @given(values=_arrays)
    def test_stream_reader_on_pipeline_output(self, values, tmp_path_factory):
        payload = IsobarCompressor(_CFG).compress(values)
        path = tmp_path_factory.mktemp("ximpl") / "c.isobar"
        path.write_bytes(payload)
        chunks = list(stream_decompress(path))
        restored = (np.concatenate(chunks) if chunks
                    else np.empty(0, dtype=np.float64))
        assert np.array_equal(_bits(restored), _bits(values))

    @settings(max_examples=25, deadline=None)
    @given(values=_arrays)
    def test_parallel_writer_serial_reader(self, values):
        payload = ParallelIsobarCompressor(_CFG, n_workers=3).compress(values)
        restored = IsobarCompressor().decompress(payload)
        assert np.array_equal(_bits(restored), _bits(values))


class TestConcatProperty:
    @settings(max_examples=25, deadline=None)
    @given(pieces=st.lists(_arrays, min_size=1, max_size=4))
    def test_concat_equals_concatenation(self, pieces):
        containers = [IsobarCompressor(_CFG).compress(p) for p in pieces]
        merged = concat_containers(containers)
        restored = IsobarCompressor().decompress(merged)
        expected = np.concatenate([p.reshape(-1) for p in pieces])
        assert np.array_equal(_bits(restored), _bits(expected))
        assert fsck(merged).clean

    @settings(max_examples=15, deadline=None)
    @given(pieces=st.lists(_arrays, min_size=2, max_size=3))
    def test_concat_is_associative(self, pieces):
        containers = [IsobarCompressor(_CFG).compress(p) for p in pieces]
        left = concat_containers(
            [concat_containers(containers[:-1]), containers[-1]]
        )
        flat = concat_containers(containers)
        assert (IsobarCompressor().decompress(left).tobytes()
                == IsobarCompressor().decompress(flat).tobytes())
