"""Tests for `isobar fsck`: footer rebuilds and orphan finalization.

fsck's promise is narrow and strong: it repairs *derived* state (the
index footer) and *unpublished* state (crashed-writer temp files), and
it never fabricates payload.  Every test pins one side of that line.
"""

import sys

import numpy as np
import pytest

from repro.cli import main
from repro.core.exceptions import ConfigurationError, InvalidInputError
from repro.core.fsck import fsck
from repro.core.metadata import (
    ContainerHeader,
    chunk_record_nbytes,
    locate_footer,
)
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile
from repro.core.stream import StreamingWriter
from repro.datasets.synthetic import build_structured
from repro.testing.faults import flip_footer_crc, stale_footer, truncate_footer

_CFG = IsobarConfig(chunk_elements=10_000, sample_elements=2048)
_N = 40_000  # -> 4 chunks


@pytest.fixture(scope="module")
def payload_and_values():
    rng = np.random.default_rng(33)
    values = build_structured(_N, np.float64, 6, rng)
    return IsobarCompressor(_CFG).compress(values), values


@pytest.fixture
def on_disk(payload_and_values, tmp_path):
    payload, values = payload_and_values
    path = tmp_path / "c.isobar"
    path.write_bytes(payload)
    return path, payload, values


def _crashed_writer(tmp_path, values, n_chunks=3):
    """A writer that flushed ``n_chunks`` chunks and then died."""
    final = tmp_path / "crashed.isobar"
    writer = StreamingWriter.open(final, np.float64, _CFG)
    for i in range(n_chunks):
        writer.write_chunk(values[i * 10_000:(i + 1) * 10_000])
    writer._sink.flush()  # the bytes reached disk; close() never ran
    return final, writer


class TestCleanContainers:
    def test_clean_report(self, on_disk):
        path, _, _ = on_disk
        report = fsck(path)
        assert report.clean and not report.repaired
        assert report.footer_status == "ok"
        assert report.n_chunks == 4
        assert report.n_elements == _N
        assert any("CLEAN" in line for line in report.summary_lines())

    def test_repair_on_clean_container_is_a_no_op(self, on_disk):
        path, payload, _ = on_disk
        report = fsck(path, repair=True)
        assert report.clean and not report.actions
        assert path.read_bytes() == payload

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(InvalidInputError):
            fsck(tmp_path / "nope.isobar")

    def test_package_facade(self, on_disk):
        import repro

        path, _, _ = on_disk
        assert repro.fsck(path).clean


class TestFooterRepair:
    @pytest.mark.parametrize("damage, status", [
        (lambda p: p[:locate_footer(p).start], "absent"),
        (lambda p: truncate_footer(p, 7), "rebuildable"),
        (lambda p: flip_footer_crc(p, 19), "rebuildable"),
    ])
    def test_rebuild_is_byte_identical(self, on_disk, tmp_path,
                                       damage, status):
        path, payload, _ = on_disk
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(damage(payload))

        before = fsck(bad)
        assert before.footer_status == status
        assert before.repairable

        after = fsck(bad, repair=True)
        assert after.repaired and after.footer_status == "ok"
        # The chain was intact, so the rebuilt footer — and therefore
        # the whole file — reproduces the original byte-for-byte.
        assert bad.read_bytes() == payload
        with ContainerFile(bad) as reader:
            assert reader.opened_via == "footer"

    def test_stale_footer_reindexed(self, on_disk, tmp_path):
        path, payload, values = on_disk
        bad = tmp_path / "stale.isobar"
        bad.write_bytes(stale_footer(payload, 1))

        before = fsck(bad)
        assert before.footer_status == "inconsistent"
        assert before.repairable

        after = fsck(bad, repair=True)
        assert after.repaired and after.footer_status == "ok"
        with ContainerFile(bad) as reader:
            assert reader.opened_via == "footer"
            assert reader.n_chunks == 5  # the appended copy is indexed
            restored = reader.read_all().reshape(-1)
        assert np.array_equal(restored[:_N], values)
        assert np.array_equal(restored[_N:], values[10_000:20_000])

    def test_second_pass_is_clean(self, on_disk, tmp_path):
        _, payload, _ = on_disk
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(truncate_footer(payload, 7))
        fsck(bad, repair=True)
        report = fsck(bad)
        assert report.clean and report.footer_status == "ok"


class TestOrphans:
    def test_crashed_writer_reported_then_finalized(self, tmp_path):
        values = build_structured(_N, np.float64, 6,
                                  np.random.default_rng(44))
        final, _writer = _crashed_writer(tmp_path, values)

        report = fsck(final)
        assert not report.exists and not report.clean
        assert report.repairable
        [orphan] = report.orphans
        assert not orphan.finalized and orphan.n_chunks == 3

        repaired = fsck(final, repair=True)
        [orphan] = repaired.orphans
        assert orphan.finalized and orphan.dropped_bytes == 0
        assert final.exists()
        assert not list(tmp_path.glob("*.tmp.*"))
        with ContainerFile(final) as reader:
            assert reader.opened_via == "footer"
            assert np.array_equal(reader.read_all(), values[:30_000])

    def test_repair_walks_each_orphan_once(self, tmp_path, monkeypatch):
        """Finalizing reuses the examination's walk of the temp file."""
        # repro.core re-exports the function ``fsck`` under the
        # module's name, so the module is reached through sys.modules.
        module = sys.modules["repro.core.fsck"]
        walked = []
        real = module._walk_chain

        def counting(data, **kwargs):
            walked.append(len(data))
            return real(data, **kwargs)

        monkeypatch.setattr(module, "_walk_chain", counting)
        values = build_structured(_N, np.float64, 6,
                                  np.random.default_rng(44))
        final, _writer = _crashed_writer(tmp_path, values, n_chunks=4)
        [orphan] = fsck(final, repair=True).orphans
        assert orphan.finalized and orphan.n_chunks == 4
        assert len(walked) == 1

    def test_torn_final_chunk_dropped_not_stitched(self, tmp_path):
        values = build_structured(_N, np.float64, 6,
                                  np.random.default_rng(44))
        final, writer = _crashed_writer(tmp_path, values)
        temp = next(tmp_path.glob("*.tmp.*"))
        torn = temp.read_bytes()[:-100]  # the crash tore the last chunk
        writer._sink.close()
        temp.write_bytes(torn)

        report = fsck(final, repair=True)
        [orphan] = report.orphans
        assert orphan.finalized
        assert orphan.n_chunks == 2 and orphan.dropped_bytes > 0
        with ContainerFile(final) as reader:
            assert np.array_equal(reader.read_all(), values[:20_000])

    def test_existing_destination_never_overwritten(self, on_disk):
        path, payload, _ = on_disk
        orphan = path.parent / (path.name + ".tmp.12345")
        orphan.write_bytes(payload)  # a stray twin from an older run

        report = fsck(path, repair=True)
        assert path.read_bytes() == payload
        assert orphan.exists()
        [pending] = report.orphans
        assert not pending.finalized
        assert "not overwriting" in pending.detail

    def test_empty_temp_file_removed(self, tmp_path):
        final = tmp_path / "never.isobar"
        orphan = tmp_path / "never.isobar.tmp.99"
        orphan.write_bytes(b"")
        report = fsck(final, repair=True)
        assert not orphan.exists()
        assert any("empty" in a for a in report.actions)


class TestUnrepairableDamage:
    def _smash_record(self, payload):
        header, _ = ContainerHeader.decode(payload)
        entry = locate_footer(payload).footer.entries[2]
        start = entry.record_offset(header.element_width)
        damaged = bytearray(payload)
        damaged[start:start + 4] = b"XXXX"  # destroy CHNK framing
        return bytes(damaged)

    def test_lost_payload_reported_never_fixed(self, on_disk, tmp_path):
        _, payload, _ = on_disk
        bad = tmp_path / "bad.isobar"
        smashed = self._smash_record(payload)
        bad.write_bytes(smashed)

        report = fsck(bad, repair=True)
        assert not report.clean and not report.repairable
        assert report.unrepairable
        assert any("DAMAGED" in line for line in report.summary_lines())
        # fsck must not touch a file it cannot fix.
        assert bad.read_bytes() == smashed

    def test_payload_crc_damage_is_found(self, on_disk, tmp_path, capsys):
        _, payload, _ = on_disk
        damaged = bytearray(payload)
        damaged[locate_footer(payload).start - 2] ^= 0xFF  # last payload
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(bytes(damaged))

        assert main(["fsck", str(bad), "--repair"]) == 1
        out = capsys.readouterr().out
        assert "[payload]" in out and "CRC" in out and "DAMAGED" in out
        # The chain and footer are intact: the footer stays "ok" and
        # nothing is rewritten.
        report = fsck(bytes(damaged))
        assert report.footer_status == "ok"
        assert [issue.kind for issue in report.issues] == ["payload"]
        assert bad.read_bytes() == bytes(damaged)

    def test_bytes_source_cannot_be_repaired(self, payload_and_values):
        payload, _ = payload_and_values
        assert fsck(payload).clean
        with pytest.raises(ConfigurationError):
            fsck(payload, repair=True)


class TestCli:
    def test_exit_codes(self, on_disk, tmp_path, capsys):
        path, payload, _ = on_disk
        assert main(["fsck", str(path)]) == 0
        assert "CLEAN" in capsys.readouterr().out

        bad = tmp_path / "bad.isobar"
        bad.write_bytes(truncate_footer(payload, 7))
        assert main(["fsck", str(bad)]) == 2
        assert "--repair" in capsys.readouterr().out
        assert main(["fsck", str(bad), "--repair"]) == 0
        assert "REPAIRED" in capsys.readouterr().out

        worse = tmp_path / "worse.isobar"
        chain_end = locate_footer(payload).start
        worse.write_bytes(payload[:chain_end - 100])
        assert main(["fsck", str(worse)]) == 1

    def test_verify_deep_reports_footer_line(self, on_disk, tmp_path,
                                             capsys):
        path, payload, _ = on_disk
        assert main(["verify", str(path), "--deep"]) == 0
        assert "footer: ok" in capsys.readouterr().out

        bad = tmp_path / "bad.isobar"
        bad.write_bytes(flip_footer_crc(payload, 3))
        assert main(["verify", str(bad), "--deep"]) == 0  # data intact
        assert "footer: rebuildable" in capsys.readouterr().out

        stale = tmp_path / "stale.isobar"
        stale.write_bytes(stale_footer(payload, 0))
        main(["verify", str(stale), "--deep"])
        assert "footer: inconsistent" in capsys.readouterr().out
