"""The benchmark's span ledger leaves the engine classes as it found them.

``perfbench.ledger.Ledger.install()`` wraps methods on each class with
``getattr``/``setattr`` and ``uninstall()`` puts back what it read.
That round trip only restores a class exactly when every wrapped
method is the class's own attribute; this test pins it for the three
chunk-engine entry classes.
"""

import io

import numpy as np
import pytest

from perfbench.ledger import Ledger
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.stream import StreamingWriter

CONFIG = IsobarConfig(chunk_elements=2_000)
CLASSES = (IsobarCompressor, ParallelIsobarCompressor, StreamingWriter)


def _compress_through(cls: type, values: np.ndarray) -> None:
    if cls is StreamingWriter:
        writer = StreamingWriter(io.BytesIO(), values.dtype, CONFIG)
        writer.write_chunk(values)
        writer.close()
    else:
        compressor = cls(CONFIG, n_workers=2)
        compressor.decompress(compressor.compress(values))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_uninstall_restores_the_class(cls):
    before = dict(vars(cls))
    ledger = Ledger()
    ledger.install()
    ledger.uninstall()
    after = dict(vars(cls))
    assert after.keys() == before.keys()
    assert [name for name in after if after[name] is not before[name]] == []
    _compress_through(cls, np.linspace(0.0, 1.0, 6_000))
    assert ledger.spans == []
