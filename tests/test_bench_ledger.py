"""The benchmark's span ledger leaves the engine classes as it found them.

``perfbench.ledger.Ledger.install()`` wraps methods on each class with
``getattr``/``setattr`` and ``uninstall()`` puts back what it read.
That round trip only restores a class exactly when every wrapped
method is the class's own attribute; this test pins it for the three
chunk-engine entry classes and for the random-access reader classes
(``ContainerReader`` must own ``_load_chunk``, not inherit it).
"""

import io

import numpy as np
import pytest

from perfbench.ledger import Ledger
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile, ContainerReader, _ChunkCache
from repro.core.stream import StreamingWriter

CONFIG = IsobarConfig(chunk_elements=2_000)
CLASSES = (IsobarCompressor, ParallelIsobarCompressor, StreamingWriter,
           ContainerFile, ContainerReader, _ChunkCache)
#: Each class as imported, before any test installs a ledger: one
#: install/uninstall round trip wraps every class, so a class it
#: leaves changed would already look changed to the next case.
PRISTINE = {cls: dict(vars(cls)) for cls in CLASSES}


def _compress_through(cls: type, values: np.ndarray) -> None:
    if cls is StreamingWriter:
        writer = StreamingWriter(io.BytesIO(), values.dtype, CONFIG)
        writer.write_chunk(values)
        writer.close()
    elif cls in (ContainerFile, ContainerReader, _ChunkCache):
        # _ChunkCache is reached through a reader's read_chunk.
        reader_cls = ContainerReader if cls is ContainerReader else ContainerFile
        reader = reader_cls(IsobarCompressor(CONFIG).compress(values))
        reader.read_range(1_000, 3_000)
        reader.element(5_999)
    else:
        compressor = cls(CONFIG, n_workers=2)
        compressor.decompress(compressor.compress(values))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_uninstall_restores_the_class(cls):
    before = PRISTINE[cls]
    ledger = Ledger()
    ledger.install()
    ledger.uninstall()
    after = dict(vars(cls))
    assert after.keys() == before.keys()
    assert [name for name in after if after[name] is not before[name]] == []
    _compress_through(cls, np.linspace(0.0, 1.0, 6_000))
    assert ledger.spans == []
