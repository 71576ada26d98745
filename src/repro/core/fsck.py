"""Container check: ``isobar fsck [--repair]`` and ``isobar verify``.

An archival container can go wrong in ways strict readers only surface
as exceptions: a lost or bit-flipped index footer, a stale footer left
behind by an append, payload regions chewed up by storage faults, or a
``<path>.tmp.<pid>`` orphan abandoned by a :class:`StreamingWriter`
that died before ``close()``.  :func:`fsck` inspects all of it in one
pass — header, chunk chain, every chunk's payload and CRC, and the
index footer — and produces a structured :class:`FsckReport` instead
of an exception trail.  It checks a container path or a container
held in memory; with ``repair=True`` (paths only) it fixes what can be
fixed safely:

* **Footer repair** — when the chunk chain is intact but the footer is
  lost, truncated, CRC-damaged or inconsistent with the chain, the
  footer is rebuilt from the chain (deterministic encoding makes the
  rebuild byte-identical to the lost original) and the file rewritten
  atomically.  Pre-footer containers are upgraded the same way.
* **Orphan finalization** — an abandoned StreamingWriter temp file
  whose destination never appeared is completed: the zero-count
  placeholder header is patched from a forward scan, a partial final
  chunk is dropped, the footer appended, and the file atomically
  renamed into place.

Payload damage (unreadable chunk regions, undecodable payloads, CRC
mismatches) is *reported*, never repaired — fsck restores indexing and
bookkeeping, it does not invent data.  Use
:func:`repro.core.salvage.salvage_decompress` to recover what survives.
``isobar verify`` prints the same report with a data-integrity verdict
(:attr:`FsckReport.intact`): footer-only damage leaves every element
decodable.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field

from repro.codecs.base import get_codec
from repro.core.exceptions import (
    ConfigurationError,
    InvalidInputError,
    IsobarError,
    UnknownCodecError,
)
from repro.core.metadata import (
    ChunkIndexRecord,
    ContainerFooter,
    ContainerHeader,
    locate_footer,
)
from repro.core.pipeline import decode_chunk_payload

__all__ = ["FsckIssue", "FsckReport", "OrphanReport", "fsck"]


@dataclass(frozen=True)
class FsckIssue:
    """One problem found in the container, localised to a byte region.

    ``kind`` groups related problems: ``"header"`` (unreadable header
    or header/chain disagreement), ``"chain"`` (unreadable chunk
    record region), ``"payload"`` (a chunk whose payload does not
    decode or fails its CRC) or ``"footer"`` (index footer damage, or
    stray bytes before it).  ``repairable`` tells whether ``--repair``
    can fix it.
    """

    kind: str
    start: int
    end: int
    detail: str
    repairable: bool


@dataclass(frozen=True)
class OrphanReport:
    """One ``<path>.tmp.<pid>`` file left behind by a crashed writer."""

    path: str
    n_chunks: int
    n_elements: int
    dropped_bytes: int  # partial final chunk discarded at finalization
    finalized: bool
    detail: str = ""


@dataclass
class FsckReport:
    """Everything :func:`fsck` learned (and did) about a container."""

    path: str
    exists: bool = True
    header: ContainerHeader | None = None
    footer_status: str = "absent"
    footer_detail: str = ""
    n_chunks: int = 0
    n_elements: int = 0
    issues: list[FsckIssue] = field(default_factory=list)
    orphans: list[OrphanReport] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No issues and no pending orphans.

        An ``absent`` footer on an otherwise healthy pre-footer
        container is advisory (the scan-indexed open keeps working),
        so it does not make the container unclean.
        """
        return not self.issues and not any(
            not orphan.finalized for orphan in self.orphans
        )

    @property
    def intact(self) -> bool:
        """Every declared element decodes with a good CRC (the
        ``isobar verify`` verdict).

        Footer issues leave the data whole — readers fall back to the
        chain scan — so only they are tolerated.
        """
        return self.exists and all(
            issue.kind == "footer" for issue in self.issues
        )

    @property
    def repaired(self) -> bool:
        """True when a repair pass changed anything."""
        return bool(self.actions)

    @property
    def unrepairable(self) -> list[FsckIssue]:
        """Issues ``--repair`` cannot fix (lost payload, bad orphans)."""
        return [issue for issue in self.issues if not issue.repairable]

    @property
    def repairable(self) -> bool:
        """True when everything wrong can be fixed by ``--repair``."""
        pending_ok = all(
            orphan.detail.endswith("(finalizable)")
            or orphan.detail.startswith("empty temp file")
            for orphan in self.orphans
            if not orphan.finalized
        )
        return not self.unrepairable and pending_ok

    def summary_lines(self) -> list[str]:
        """Human-readable report body."""
        lines = [f"fsck {self.path}"]
        if not self.exists:
            lines.append("container file does not exist")
        else:
            if self.header is not None:
                lines.append(
                    f"header: {self.header.dtype}, "
                    f"{self.header.n_elements} elements, "
                    f"{self.header.n_chunks} chunks, "
                    f"codec {self.header.codec_name}"
                )
            lines.append(
                f"chain: {self.n_chunks} chunks, {self.n_elements} elements"
            )
            footer_line = f"footer: {self.footer_status}"
            if self.footer_detail:
                footer_line += f" ({self.footer_detail})"
            lines.append(footer_line)
        for issue in self.issues:
            flag = "repairable" if issue.repairable else "UNREPAIRABLE"
            lines.append(
                f"[{issue.kind}] bytes {issue.start}..{issue.end}: "
                f"{issue.detail} ({flag})"
            )
        for orphan in self.orphans:
            state = (
                "finalized" if orphan.finalized
                else f"pending: {orphan.detail}"
            )
            lines.append(
                f"[orphan] {orphan.path}: {orphan.n_chunks} chunks, "
                f"{orphan.n_elements} elements ({state})"
            )
        for action in self.actions:
            lines.append(f"[repaired] {action}")
        if self.clean:
            verdict = "REPAIRED" if self.actions else "CLEAN"
        elif self.repairable:
            verdict = "NEEDS REPAIR (run with --repair)"
        else:
            verdict = "DAMAGED"
        lines.append(f"RESULT: {verdict}")
        return lines


def _walk_chain(data: bytes, *, to_eof: bool = False) -> tuple[
    ContainerHeader | None,
    list[ChunkIndexRecord],
    int,
    list[FsckIssue],
]:
    """Walk the chunk chain via the salvage scanner, decoding every
    chunk's payload (so its CRC is checked).

    Returns ``(header, chain, chain_end, issues)`` where ``chain_end``
    is the offset just past the last readable chunk; a ``None`` header
    means the container is unreadable from byte zero.

    ``to_eof=True`` is the crashed-writer mode: the header's zero-count
    placeholder is ignored, chunks are discovered by forward scan, and
    the walk stops at the first unreadable region (everything after a
    tear is treated as the torn tail, so finalization never stitches
    damage into a published container).
    """
    from repro.core.salvage import scan_chunks

    issues: list[FsckIssue] = []
    try:
        header, offset = ContainerHeader.decode(data)
    except IsobarError as exc:
        issues.append(
            FsckIssue("header", 0, len(data), f"unreadable header: {exc}",
                      repairable=False)
        )
        return None, [], 0, issues
    try:
        codec = get_codec(header.codec_name)
    except UnknownCodecError as exc:
        issues.append(
            FsckIssue("header", 0, offset, str(exc), repairable=False)
        )
        return header, [], offset, issues

    chain: list[ChunkIndexRecord] = []
    chain_end = offset
    events = scan_chunks(data, header, offset, codec, to_eof=to_eof)
    for ordinal, event in enumerate(events):
        if event.kind == "gap":
            issues.append(
                FsckIssue(
                    "chain", event.start, event.end,
                    f"unreadable chunk region: {event.cause}",
                    repairable=False,
                )
            )
            if to_eof:
                break
            continue
        meta = event.meta
        compressed_end = event.payload_offset + meta.compressed_size
        try:
            decode_chunk_payload(
                header, codec, meta,
                data[event.payload_offset:compressed_end],
                data[compressed_end:event.end],
                chunk_index=ordinal, byte_offset=event.start,
            )
        except IsobarError as exc:
            issues.append(
                FsckIssue("payload", event.start, event.end, str(exc),
                          repairable=False)
            )
        chain.append(
            ChunkIndexRecord(
                payload_offset=event.payload_offset,
                compressed_size=meta.compressed_size,
                incompressible_size=meta.incompressible_size,
                n_elements=meta.n_elements,
            )
        )
        chain_end = event.end
    if to_eof:
        return header, chain, chain_end, issues
    if len(chain) != header.n_chunks:
        issues.append(
            FsckIssue(
                "header", 0, chain_end,
                f"chain walk found {len(chain)} chunks, header declares "
                f"{header.n_chunks}",
                repairable=False,
            )
        )
    elif sum(entry.n_elements for entry in chain) != header.n_elements:
        issues.append(
            FsckIssue(
                "header", 0, chain_end,
                f"chain covers "
                f"{sum(e.n_elements for e in chain)} elements, header "
                f"declares {header.n_elements}",
                repairable=False,
            )
        )
    return header, chain, chain_end, issues


def _atomic_rewrite(path: str, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` via write-to-temp + rename."""
    temp_path = f"{path}.fsck.{os.getpid()}"
    with open(temp_path, "wb") as sink:
        sink.write(payload)
        sink.flush()
        os.fsync(sink.fileno())
    os.replace(temp_path, path)


def _check_footer(
    report: FsckReport,
    data: bytes,
    chain: list[ChunkIndexRecord],
    chain_end: int,
    chain_intact: bool,
) -> None:
    """Classify the footer against the walked chain — ``ok``,
    ``absent``, ``rebuildable`` or ``inconsistent`` — and record its
    issue (the one place a footer is judged against the chain)."""
    location = locate_footer(data)
    trailing = len(data) - chain_end
    if location.ok:
        footer = location.footer
        assert footer is not None
        if chain_intact and tuple(chain) == footer.entries:
            report.footer_status = "ok"
            if chain_intact and chain_end < location.start:
                report.issues.append(
                    FsckIssue(
                        "footer", chain_end, location.start,
                        f"{location.start - chain_end} stray bytes between "
                        "the last chunk and the footer",
                        repairable=False,
                    )
                )
            return
        report.footer_status = "inconsistent"
        report.footer_detail = (
            f"footer indexes {footer.n_chunks} chunks but the chain walk "
            f"found {len(chain)}"
            if footer.n_chunks != len(chain)
            else "footer entries disagree with the chunk chain"
        )
        report.issues.append(
            FsckIssue(
                "footer", location.start, len(data), report.footer_detail,
                repairable=chain_intact,
            )
        )
        return
    if location.status == "absent" and trailing == 0:
        report.footer_status = "absent"
        report.footer_detail = "pre-footer container (scan-indexed open)"
        return
    report.footer_status = "rebuildable"
    report.footer_detail = location.detail or (
        f"{trailing} trailing bytes after the last chunk are not a "
        "valid footer"
    )
    report.issues.append(
        FsckIssue(
            "footer", chain_end, len(data),
            f"footer {location.status}: {report.footer_detail}",
            repairable=chain_intact,
        )
    )


def _repair_footer(
    report: FsckReport,
    path: str,
    data: bytes,
    chain: list[ChunkIndexRecord],
    chain_end: int,
) -> None:
    """Rebuild the footer from the intact chain and rewrite the file.

    The footer encoding is deterministic, so when the chain is
    undamaged the rebuilt footer is byte-identical to what the writer
    originally appended.
    """
    footer = ContainerFooter(entries=tuple(chain)).encode()
    _atomic_rewrite(path, data[:chain_end] + footer)
    dropped = len(data) - chain_end
    action = f"rebuilt index footer ({len(footer)} bytes)"
    if dropped:
        action += f", dropped {dropped} damaged trailing bytes"
    report.actions.append(action)
    report.footer_status = "ok"
    report.footer_detail = "rebuilt from the chunk chain"
    report.issues = [i for i in report.issues if i.kind != "footer"]


def _examine_orphan(orphan_path: str, final_exists: bool) -> OrphanReport:
    """Inspect one abandoned temp file without modifying it."""
    with open(orphan_path, "rb") as source:
        data = source.read()
    if not data:
        return OrphanReport(
            orphan_path, 0, 0, 0, finalized=False,
            detail="empty temp file, nothing recoverable",
        )
    header, chain, chain_end, _ = _walk_chain(data, to_eof=True)
    if header is None:
        return OrphanReport(
            orphan_path, 0, 0, 0, finalized=False,
            detail="unreadable header, cannot finalize",
        )
    if final_exists:
        return OrphanReport(
            orphan_path,
            len(chain), sum(e.n_elements for e in chain),
            len(data) - chain_end, finalized=False,
            detail="destination already exists; not overwriting "
            "(remove the temp file manually if it is stale)",
        )
    return OrphanReport(
        orphan_path,
        len(chain), sum(e.n_elements for e in chain),
        len(data) - chain_end, finalized=False,
        detail="crashed writer temp file (finalizable)",
    )


def _finalize_orphan(
    report: FsckReport, orphan: OrphanReport, final_path: str
) -> OrphanReport:
    """Complete a crashed writer's temp file and publish it atomically.

    The placeholder header is re-encoded with the counts found by the
    forward scan (the writer's own ``close()`` patch, done late), the
    partial final chunk is dropped, and the index footer appended —
    producing exactly the container ``close()`` would have written for
    the chunks that made it to disk.
    """
    with open(orphan.path, "rb") as source:
        data = source.read()
    header, chain, chain_end, _ = _walk_chain(data, to_eof=True)
    assert header is not None
    # A crashed writer's header still declares zero chunks — the scan,
    # not the header, holds the true counts.
    from dataclasses import replace

    n_elements = sum(entry.n_elements for entry in chain)
    patched = replace(
        header,
        n_elements=n_elements,
        shape=(n_elements,),
        n_chunks=len(chain),
    )
    encoded = patched.encode()
    _, header_end = ContainerHeader.decode(data)
    if len(encoded) != header_end:
        return OrphanReport(
            orphan.path, orphan.n_chunks, orphan.n_elements,
            orphan.dropped_bytes, finalized=False,
            detail=f"patched header is {len(encoded)} bytes, placeholder "
            f"was {header_end}",
        )
    footer = ContainerFooter(entries=tuple(chain)).encode()
    _atomic_rewrite(final_path, encoded + data[header_end:chain_end] + footer)
    os.unlink(orphan.path)
    report.actions.append(
        f"finalized {orphan.path} -> {final_path} "
        f"({len(chain)} chunks, {orphan.dropped_bytes} partial bytes "
        "dropped)"
    )
    return OrphanReport(
        orphan.path, len(chain), n_elements,
        orphan.dropped_bytes, finalized=True,
    )


def _check_container(
    report: FsckReport, data: bytes
) -> tuple[list[ChunkIndexRecord], int, bool]:
    """Check one container's bytes into ``report``.

    Returns ``(chain, chain_end, chain_intact)`` for the footer repair,
    which depends only on the chain *structure*: payload damage is
    reported but does not stop an intact chain from being re-indexed.
    """
    header, chain, chain_end, issues = _walk_chain(data)
    report.header = header
    report.issues.extend(issues)
    report.n_chunks = len(chain)
    report.n_elements = sum(entry.n_elements for entry in chain)
    chain_intact = all(issue.kind == "payload" for issue in issues)
    if header is not None:
        _check_footer(report, data, chain, chain_end, chain_intact)
    return chain, chain_end, chain_intact


def fsck(
    source: bytes | bytearray | memoryview | str | os.PathLike,
    *,
    repair: bool = False,
) -> FsckReport:
    """Check (and optionally repair) a container and its orphans.

    Validates header ↔ chunk-chain ↔ footer agreement, decodes every
    chunk (so a CRC mismatch is caught and located), locates every
    unreadable chunk region, and — for a path — looks for
    ``<path>.tmp.<pid>`` files abandoned by crashed streaming writers.
    With ``repair=True``: rebuilds a lost/damaged/stale footer from an
    intact chain (byte-identical to the original), appends a footer to
    pre-footer containers, finalizes orphans whose destination is
    missing, and removes empty temp files.  Lost payload is reported,
    never fabricated.

    ``source`` is a container path or the container bytes themselves;
    bytes have no file to rewrite and no orphans, so ``repair=True``
    with bytes raises :class:`ConfigurationError`.  Never raises for
    content damage — everything lands in the report.  A path may name
    a container that does not exist yet when an orphan for it does
    (crash before first publish).
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        if repair:
            raise ConfigurationError(
                "fsck can only repair a container path, not bytes"
            )
        report = FsckReport(path="<bytes>")
        _check_container(report, bytes(source))
        return report

    final_path = os.fspath(source)
    orphan_paths = sorted(glob.glob(glob.escape(final_path) + ".tmp.*"))
    report = FsckReport(path=final_path)
    exists = os.path.exists(final_path)
    if not exists and not orphan_paths:
        raise InvalidInputError(
            f"no container or writer temp file at {final_path}"
        )

    if exists:
        with open(final_path, "rb") as handle:
            data = handle.read()
        chain, chain_end, chain_intact = _check_container(report, data)
        needs_footer = report.header is not None and report.footer_status in (
            "rebuildable", "inconsistent", "absent"
        )
        footer_repairable = chain_intact and (
            report.footer_status != "absent"
            or len(data) == chain_end  # clean pre-footer upgrade
        )
        if repair and needs_footer and footer_repairable:
            _repair_footer(report, final_path, data, chain, chain_end)
    else:
        report.exists = False

    for orphan_path in orphan_paths:
        orphan = _examine_orphan(orphan_path, final_exists=exists)
        if repair:
            if orphan.detail.startswith("empty temp file"):
                os.unlink(orphan.path)
                report.actions.append(
                    f"removed empty temp file {orphan.path}"
                )
                orphan = OrphanReport(
                    orphan.path, 0, 0, 0, finalized=True,
                    detail="empty temp file removed",
                )
            elif not exists and orphan.detail.endswith("(finalizable)"):
                orphan = _finalize_orphan(report, orphan, final_path)
                if orphan.finalized:
                    # Only the first orphan wins the rename; the report
                    # now describes the freshly published container.
                    exists = True
                    report.exists = True
                    report.n_chunks = orphan.n_chunks
                    report.n_elements = orphan.n_elements
                    report.footer_status = "ok"
                    report.footer_detail = "rebuilt at finalization"
        report.orphans.append(orphan)
    return report
