"""Solver interface: general-purpose lossless codecs.

The paper treats the compressor as an interchangeable *solver* behind
the ISOBAR preconditioner — "a user can specify a preference in
compressor to use with little to no change to our preconditioning
method".  :class:`Codec` is that contract: bytes in, bytes out, lossless
round trip.  A process-wide registry maps stable names (``"zlib"``,
``"bzip2"``, ...) to codec instances so containers can record which
solver produced them.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, Iterator

from repro.core.exceptions import CodecError, UnknownCodecError

__all__ = [
    "Codec",
    "register_codec",
    "unregister_codec",
    "get_codec",
    "codec_names",
    "iter_codecs",
    "codec_registry_snapshot",
]


class Codec(abc.ABC):
    """A lossless byte-stream compressor (the paper's *solver*).

    Implementations must guarantee ``decompress(compress(data)) == data``
    for arbitrary byte strings.  Codecs are stateless and safe to share;
    per-call parameters (e.g. compression level) are constructor
    arguments baked into the instance.
    """

    #: Registry name; subclasses must override.
    name: str = ""

    #: True when :meth:`compress`/:meth:`decompress` release the GIL for
    #: the bulk of their work (zlib/bz2/lzma/isal C calls do; every
    #: built-in solver does).  It only decides whether the facade
    #: (``repro.compress``/``decompress``) runs a codec on worker
    #: threads: a codec that keeps the default ``False`` — a
    #: user-registered :class:`CallableCodec`, say — runs inline there,
    #: since threads could not overlap its work.
    releases_gil: bool = False

    @abc.abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` and return the encoded byte string."""

    @abc.abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress`, returning the original bytes."""

    def ratio(self, data: bytes) -> float:
        """Convenience: the compression ratio this codec achieves on ``data``."""
        if not data:
            raise CodecError(f"{self.name}: cannot measure ratio of empty input")
        return len(data) / len(self.compress(data))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: dict[str, Codec] = {}
# Guards _REGISTRY: the chaos harness shadows/restores codecs while the
# parallel pipeline resolves them from worker threads.
_REGISTRY_LOCK = threading.Lock()


def register_codec(codec: Codec, *, replace: bool = False) -> Codec:
    """Add ``codec`` to the global registry under ``codec.name``.

    Registration is idempotent for the same instance; re-registering a
    different instance under an existing name requires ``replace=True``
    so accidental shadowing fails loudly.
    """
    if not codec.name:
        raise CodecError(f"codec {codec!r} has no name; cannot register")
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(codec.name)
        if existing is not None and existing is not codec and not replace:
            raise CodecError(
                f"codec name {codec.name!r} already registered; "
                "pass replace=True to override"
            )
        _REGISTRY[codec.name] = codec
    return codec


def unregister_codec(name: str) -> Codec:
    """Remove and return the codec registered under ``name``.

    Raises :class:`UnknownCodecError` when the name is absent.  Used by
    the chaos harness to restore the registry after temporarily
    shadowing a real codec with a misbehaving wrapper.
    """
    with _REGISTRY_LOCK:
        try:
            return _REGISTRY.pop(name)
        except KeyError:
            raise UnknownCodecError(name, tuple(_REGISTRY)) from None


def get_codec(name: str) -> Codec:
    """Look up a codec by registry name.

    Raises :class:`UnknownCodecError` (listing the available names) when
    the codec does not exist.
    """
    with _REGISTRY_LOCK:
        try:
            return _REGISTRY[name]
        except KeyError:
            raise UnknownCodecError(name, tuple(_REGISTRY)) from None


def codec_names() -> tuple[str, ...]:
    """Names of all registered codecs, sorted."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def iter_codecs() -> Iterator[Codec]:
    """Iterate over registered codec instances in name order."""
    for name in codec_names():
        codec = _REGISTRY.get(name)
        if codec is not None:
            yield codec


def codec_registry_snapshot() -> dict[str, Codec]:
    """A shallow copy of the registry, for tests and diagnostics."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


class CallableCodec(Codec):
    """Adapter turning a pair of functions into a :class:`Codec`.

    Useful in tests and for quick experiments::

        codec = CallableCodec("identity", lambda b: b, lambda b: b)
    """

    def __init__(
        self,
        name: str,
        compress_fn: Callable[[bytes], bytes],
        decompress_fn: Callable[[bytes], bytes],
    ):
        self.name = name
        self._compress_fn = compress_fn
        self._decompress_fn = decompress_fn

    def compress(self, data: bytes) -> bytes:
        return self._compress_fn(data)

    def decompress(self, data: bytes) -> bytes:
        return self._decompress_fn(data)


__all__.append("CallableCodec")
