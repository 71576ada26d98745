"""A container naming a codec this build does not register fails cleanly.

Earlier releases registered five pure-Python solvers (``huffman``,
``lzss``, ``rle``, ``range-coder`` and ``bwt``), so real files may
name them.  Every read, check, salvage, service and write path must
answer such a file with an :class:`UnknownCodecError` naming the codec
(or the matching report, exit status or HTTP status), never with a
crash or a wrong decode.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.exceptions import UnknownCodecError
from repro.core.fsck import fsck
from repro.core.metadata import ContainerHeader
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile
from repro.core.salvage import salvage_decompress
from repro.datasets.synthetic import build_structured
from repro.service.app import ServiceThread
from repro.service.client import ServiceClient

REMOVED = ["huffman", "lzss", "rle", "range-coder", "bwt"]

_CFG = IsobarConfig(
    codec="zlib", chunk_elements=10_000, sample_elements=2048
)


@pytest.fixture(scope="module")
def zlib_container():
    values = build_structured(30_000, np.float64, 6, np.random.default_rng(5))
    return IsobarCompressor(_CFG).compress(values)


@pytest.fixture(params=REMOVED)
def renamed(request, zlib_container, tmp_path):
    """``(name, blob, path)``: the zlib container with only the header's
    ``codec_name`` changed to a removed codec."""
    header, offset = ContainerHeader.decode(zlib_container)
    assert header.codec_name == "zlib"
    name = request.param
    blob = (
        dataclasses.replace(header, codec_name=name).encode()
        + zlib_container[offset:]
    )
    path = tmp_path / f"{name}.isobar"
    path.write_bytes(blob)
    return name, blob, path


def _assert_names(excinfo, name):
    assert excinfo.value.name == name
    assert repr(name) in str(excinfo.value)


def test_decompress_raises(renamed):
    name, blob, _ = renamed
    with pytest.raises(UnknownCodecError) as excinfo:
        repro.decompress(blob)
    _assert_names(excinfo, name)


def test_open_stream_raises(renamed):
    name, _, path = renamed
    with pytest.raises(UnknownCodecError) as excinfo:
        list(repro.open_stream(path, "r"))
    _assert_names(excinfo, name)


def test_container_file_raises(renamed):
    name, blob, _ = renamed
    with pytest.raises(UnknownCodecError) as excinfo:
        ContainerFile(blob)
    _assert_names(excinfo, name)


def test_salvage_raises(renamed):
    name, blob, _ = renamed
    with pytest.raises(UnknownCodecError) as excinfo:
        salvage_decompress(blob)
    _assert_names(excinfo, name)


@pytest.mark.parametrize("name", REMOVED)
def test_compress_raises(name):
    values = np.arange(1_000, dtype=np.float64)
    with pytest.raises(UnknownCodecError) as excinfo:
        repro.compress(values, codec=name)
    _assert_names(excinfo, name)


def test_fsck_reports_unrepairable_header(renamed):
    name, blob, _ = renamed
    report = fsck(blob)
    header_issues = [i for i in report.issues if i.kind == "header"]
    assert header_issues
    assert all(not issue.repairable for issue in header_issues)
    assert any(repr(name) in issue.detail for issue in header_issues)


def test_cli_fsck_exits_1_without_traceback(renamed, capsys):
    name, _, path = renamed
    assert main(["fsck", str(path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert name in captured.out + captured.err


def test_service_decompress_is_400(renamed):
    name, blob, _ = renamed
    handle = ServiceThread()
    host, port = handle.start()
    try:
        client = ServiceClient(host, port, max_retries=0)
        response = client.request(
            "POST", "/v1/decompress", blob, retryable=frozenset()
        )
    finally:
        handle.stop()
    assert response.status == 400
    assert name in response.body.decode("utf-8")
