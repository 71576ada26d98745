"""The stable public facade of the package.

Four entry points cover the everyday workflow:

* :func:`compress` — array in, self-contained ISOBAR container out;
* :func:`decompress` — container in, bit-exact array out, with the
  unified ``errors=`` damage policy;
* :func:`open_stream` — file-to-file streaming in either direction
  (constant memory, crash-safe writes);
* :func:`fsck` — check (and with ``repair=True`` fix) a container
  file's index footer and finalize crashed-writer temp files.

All options funnel through :class:`~repro.core.preferences.IsobarConfig`
— the single keyword-only options object — with the two most common
knobs (``preference``, ``codec``/``linearization`` overrides) available
directly.  Everything here is re-exported at the package root, so
``repro.compress(...)`` is the canonical spelling.

The legacy one-liners ``isobar_compress`` / ``isobar_decompress``
remain importable as deprecated aliases of these functions.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.codecs.base import get_codec
from repro.core.metadata import ContainerHeader
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline_engine import usable_cpus
from repro.core.preferences import (
    ERROR_POLICIES,
    IsobarConfig,
    Linearization,
    Preference,
    normalize_errors,
)
from repro.core.fsck import FsckReport
from repro.core.fsck import fsck as _fsck
from repro.core.stream import StreamingWriter, stream_decompress
from repro.core.exceptions import ConfigurationError, UnknownCodecError
from repro.core.selector import SelectorDecision, resolve_selector
from repro.observability.registry import MetricsRegistry

__all__ = [
    "compress",
    "decompress",
    "fsck",
    "open_stream",
    "plan",
    "ERROR_POLICIES",
]


def _resolve_config(
    config: IsobarConfig | None,
    preference: Preference | str | None,
    codec: str | None,
    linearization: Linearization | str | None,
    selector: object | None = None,
) -> IsobarConfig:
    """Fold the convenience keywords into one :class:`IsobarConfig`."""
    base = config or IsobarConfig()
    overrides: dict[str, object] = {}
    if preference is not None:
        overrides["preference"] = Preference.parse(preference)
    if codec is not None:
        overrides["codec"] = codec
    if linearization is not None:
        overrides["linearization"] = Linearization.parse(linearization)
    if selector is not None:
        overrides["selector"] = selector
    return base.replace(**overrides) if overrides else base


def _engine_workers(codec_names: tuple[str, ...]) -> int:
    """Engine workers for a facade call that may solve with these codecs.

    One per usable CPU when every codec's C core releases the GIL, so
    worker threads overlap.  A GIL-bound codec (a user-registered
    :class:`~repro.codecs.CallableCodec`, say) runs inline: threads
    cannot overlap it.
    """
    try:
        threaded = all(get_codec(name).releases_gil for name in codec_names)
    except UnknownCodecError:
        return 1
    return usable_cpus() if threaded else 1


def _file_workers(path: str | os.PathLike) -> int:
    """:func:`_engine_workers` for the codec of the container file at
    ``path`` (1 if unreadable: the reader then reports why)."""
    try:
        with open(path, "rb") as source:
            header, _ = ContainerHeader.decode(source.read(4096))
    except (OSError, ValueError):  # ContainerFormatError is a ValueError
        return 1
    return _engine_workers((header.codec_name,))


def compress(
    values: np.ndarray,
    *,
    preference: Preference | str | None = None,
    codec: str | None = None,
    linearization: Linearization | str | None = None,
    selector: object | None = None,
    config: IsobarConfig | None = None,
) -> bytes:
    """Compress ``values`` into a self-contained ISOBAR container.

    Parameters
    ----------
    values:
        Fixed-width numeric array of any shape.
    preference:
        ``"ratio"`` or ``"speed"`` — the selector's optimisation
        target (defaults to the config's, i.e. ``"ratio"``).
    codec / linearization:
        Optional explicit overrides; unset, the selector decides.
    selector:
        Selection strategy: ``"eupa"`` (default — the paper's timing
        probe), any name registered with
        :func:`~repro.core.selector.register_selector_strategy`, or a
        :class:`~repro.core.selector.SelectorStrategy` instance.  Every
        strategy honours the other overrides identically; the
        container format never changes.
    config:
        Full :class:`~repro.core.preferences.IsobarConfig`; the other
        keywords are applied on top of it.

    Returns
    -------
    bytes
        A container that :func:`decompress` restores bit-exactly.

    Chunks are solved on the pipelined engine with one worker per
    usable CPU (:func:`~repro.core.pipeline_engine.usable_cpus`) when
    every codec the call may use releases the GIL (zlib, bzip2, lzma,
    isal-zlib); a single-chunk input, a one-CPU host or a GIL-bound
    codec runs inline.  The container is byte-identical to the serial
    :class:`~repro.core.pipeline.IsobarCompressor`'s.
    """
    cfg = _resolve_config(config, preference, codec, linearization, selector)
    codecs = (cfg.codec,) if cfg.codec is not None else cfg.candidate_codecs
    return ParallelIsobarCompressor(cfg, _engine_workers(codecs)).compress(
        values
    )


def plan(
    values: np.ndarray,
    *,
    preference: Preference | str | None = None,
    codec: str | None = None,
    linearization: Linearization | str | None = None,
    selector: object | None = None,
    config: IsobarConfig | None = None,
) -> SelectorDecision:
    """Dry-run the selector: the decision for ``values``, no container.

    Runs exactly the selection that :func:`compress` would run — same
    strategy, same candidate restrictions, same seeded sample — and
    returns the :class:`~repro.core.selector.SelectorDecision` with
    its full evaluation/prediction record.  Nothing is compressed
    beyond the strategy's own sample work, so this is the cheap way to
    ask "what would ISOBAR do with this data?" before committing to a
    large run.  Mirrored by ``isobar plan`` and ``POST /v1/plan``.
    """
    cfg = _resolve_config(config, preference, codec, linearization, selector)
    strategy = resolve_selector(cfg)
    return strategy.select(np.asarray(values).reshape(-1)).without_trial()


def decompress(data: bytes, *, errors: str = "raise") -> np.ndarray:
    """Restore the exact original array from an ISOBAR container.

    Parameters
    ----------
    data:
        A container produced by :func:`compress` (or any of the
        pipeline/streaming writers — the format is shared).
    errors:
        Damage policy, uniform across every decoder in the package:
        ``"raise"`` (default) aborts on the first damaged chunk with a
        located exception; ``"salvage-skip"`` drops damaged chunks;
        ``"salvage-zero"`` substitutes zero elements for them.

    Chunks decode on one engine worker per usable CPU when the
    container's codec releases the GIL, as in :func:`compress`;
    salvage decodes serially.
    """
    errors = normalize_errors(errors)
    workers = 1
    if errors == "raise":
        header, _ = ContainerHeader.decode(data)
        workers = _engine_workers((header.codec_name,))
    return ParallelIsobarCompressor(n_workers=workers).decompress(
        data, errors=errors
    )


# isobar: ignore[ISO004] positional `mode` mirrors the builtin open()
def open_stream(
    path: str | os.PathLike,
    mode: str = "r",
    *,
    dtype: np.dtype | None = None,
    config: IsobarConfig | None = None,
    selector: object | None = None,
    atomic: bool = True,
    errors: str = "raise",
    tolerate_unclosed: bool = False,
    metrics: MetricsRegistry | None = None,
) -> StreamingWriter | Iterator[np.ndarray]:
    """Open a container file for streaming compression or decompression.

    ``mode="w"`` returns a :class:`~repro.core.stream.StreamingWriter`
    (usable as a context manager) that appends chunks via
    ``write_chunk`` and atomically publishes the file on ``close()``;
    ``dtype`` is required.  ``mode="r"`` returns an iterator of decoded
    chunks honouring the unified ``errors=`` policy;
    ``tolerate_unclosed=True`` additionally recovers streams whose
    writer crashed before finalising the header.  ``selector`` picks
    the write-side selection strategy exactly as in :func:`compress`
    (``"eupa"`` default; ignored for ``mode="r"`` since reading never
    selects).

    Both directions pick their engine workers as :func:`compress` and
    :func:`decompress` do (for reading, by the file's codec); with
    several, the file is durable only at the writer's ``close()``.
    """
    if mode == "w":
        if dtype is None:
            raise ConfigurationError(
                "open_stream(..., mode='w') requires dtype"
            )
        cfg = _resolve_config(config, None, None, None, selector)
        codecs = (cfg.codec,) if cfg.codec is not None else cfg.candidate_codecs
        return StreamingWriter.open(
            path, dtype, cfg, atomic=atomic, metrics=metrics,
            n_workers=_engine_workers(codecs),
        )
    if mode == "r":
        # normalize_errors fails fast, not at first iteration.
        strict = normalize_errors(errors) == "raise"
        return stream_decompress(
            path, errors=errors, tolerate_unclosed=tolerate_unclosed,
            metrics=metrics, n_workers=_file_workers(path) if strict else 1,
        )
    raise ConfigurationError(
        f"unknown stream mode {mode!r}; expected 'r' or 'w'"
    )


def fsck(path: str | os.PathLike, *, repair: bool = False) -> FsckReport:
    """Check (and optionally repair) a container file and its orphans.

    Validates the chunk chain, the CRC-guarded index footer and any
    ``<path>.tmp.<pid>`` files left by crashed streaming writers.
    With ``repair=True`` a lost/damaged/stale footer is rebuilt from
    the chain (byte-identical when the chain is intact) and orphaned
    temp files whose destination is missing are finalized and
    published atomically.  Lost payload is reported, never fabricated
    — see :func:`repro.core.salvage.salvage_decompress` for data
    recovery.  Returns a :class:`~repro.core.fsck.FsckReport`; the
    ``isobar fsck`` CLI command prints its ``summary_lines()``.
    """
    return _fsck(path, repair=repair)
