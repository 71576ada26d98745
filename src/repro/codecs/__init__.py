"""Solver layer: byte-stream codecs (for ISOBAR) and array codecs.

Importing this package registers the standard byte-stream solvers —
``zlib``, ``bzip2`` and ``lzma`` — plus fast variants (``zlib-1``,
``bzip2-1``) in the global codec registry, so
``repro.codecs.get_codec("zlib")`` works out of the box.

The array codecs (:class:`FpcCodec`, :class:`FpzipLikeCodec`) are the
paper's comparison baselines and are used directly rather than through
the byte-codec registry.
"""

from repro.codecs.array_base import ArrayCodec, pack_array_header, unpack_array_header
from repro.codecs.base import (
    CallableCodec,
    Codec,
    codec_names,
    codec_registry_snapshot,
    get_codec,
    iter_codecs,
    register_codec,
)
from repro.codecs.fpc import FpcCodec
from repro.codecs.fpzip_like import (
    FpzipLikeCodec,
    float_to_ordered_uint,
    ordered_uint_to_float,
)
from repro.codecs.standard import (
    Bzip2Codec,
    IsalZlibCodec,
    LzmaCodec,
    ZlibCodec,
    isal_available,
)

__all__ = [
    "ArrayCodec",
    "pack_array_header",
    "unpack_array_header",
    "CallableCodec",
    "Codec",
    "codec_names",
    "codec_registry_snapshot",
    "get_codec",
    "iter_codecs",
    "register_codec",
    "FpcCodec",
    "FpzipLikeCodec",
    "float_to_ordered_uint",
    "ordered_uint_to_float",
    "Bzip2Codec",
    "IsalZlibCodec",
    "LzmaCodec",
    "ZlibCodec",
    "isal_available",
]

# Default solver registry.  zlib and bzip2 at their library-default
# levels are the paper's two solvers; the fast variants and lzma extend
# the EUPA-selector's candidate space.
register_codec(ZlibCodec())
register_codec(ZlibCodec(level=1))
register_codec(ZlibCodec(level=9))
register_codec(Bzip2Codec())
register_codec(Bzip2Codec(level=1))
register_codec(LzmaCodec())
# Optional ISA-L-accelerated DEFLATE; registered unconditionally (it
# degrades to stdlib zlib when python-isal is absent) so container
# files naming it always decode.
register_codec(IsalZlibCodec())
