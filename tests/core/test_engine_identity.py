"""Differential test: the chunk engine writes the containers, and
decodes damaged ones, exactly as the separate serial, parallel and
streaming loops it replaced did.

``PARENT`` holds digests recorded with that earlier implementation on
every registry dataset (20,000 elements, seed 3, 5,000-element
chunks, default RATIO preference with the EUPA selector).  Each digest
is the first 16 hex digits of a SHA-256: of the container bytes, or of
the decoded array bytes; a decode that raised is recorded as the
exception's class name.  SPEED is left out: its choices depend on
timing, so its containers are not reproducible digests.

Row layout: the in-memory container (every worker count and the
facade must match it); the stream written in 5,000-, 15,000- and
1,700-element chunks (a stream decides on its first chunk, not on the
whole array, so even 5,000-element stream chunks may pick another
codec); then the one-byte-damaged container decoded under ``raise``,
``salvage-skip`` and ``salvage-zero``, first by the in-memory engine
and then by ``stream_decompress``.  The stream rows hold for every
writer worker count and through ``repro.open_stream``, and the damaged
rows for the inline and the runner-decoded stream reader.

One difference is intended.  A ``salvage-zero`` stream now yields what
the in-memory decoder returns, zeros for a lost region included, so
for the datasets in ``STREAM_ZERO_NOW_MATCHES_ENGINE`` (whose damage
loses a region rather than corrupting one chunk) the stream's
``salvage-zero`` digest is the engine's, not the parent stream's.
"""

import hashlib
import io

import numpy as np
import pytest

import repro
import repro.api
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.stream import StreamingWriter, stream_decompress
from repro.datasets import dataset_names, generate_dataset

CONFIG = IsobarConfig(chunk_elements=5_000)
POLICIES = ("raise", "salvage-skip", "salvage-zero")
STREAM_ZERO_NOW_MATCHES_ENGINE = frozenset({"xgc_iphase"})

PARENT = {
    "flash_gamc": (
        "078ccfc391fa45fd", "078ccfc391fa45fd",
        "2007eda60a0a5367", "b9ab153338fb6a14",
        "CodecError", "9a2913fc19629e01", "d51cd9868cceaf7e",
        "CodecError", "9a2913fc19629e01", "d51cd9868cceaf7e",
    ),
    "flash_velx": (
        "9b673ebae02dc875", "9b673ebae02dc875",
        "ff03be7c2f593cb7", "fcd69d4af642c590",
        "ChecksumError", "771d6bf1cf43c54f", "161899257878984c",
        "ChecksumError", "771d6bf1cf43c54f", "161899257878984c",
    ),
    "flash_vely": (
        "561497170737cd22", "561497170737cd22",
        "6d32aa8f62b641d4", "468227f3f6f0b205",
        "CodecError", "d703d3188dc6f3ed", "9a8c544362d58e8c",
        "CodecError", "d703d3188dc6f3ed", "9a8c544362d58e8c",
    ),
    "gts_chkp_zeon": (
        "0fc3c3b41aac7a31", "e8ed110fa2f3de8a",
        "7020db20bf9bd20f", "bf5e0e7fe8a8ad14",
        "CodecError", "919da612e8fe4191", "b3e71dfdcdfcb53d",
        "CodecError", "919da612e8fe4191", "b3e71dfdcdfcb53d",
    ),
    "gts_chkp_zion": (
        "b1014cc5cc1162b1", "b1014cc5cc1162b1",
        "634e7ebefd47bd6a", "5a4f01e5833b2a7b",
        "CodecError", "60e23626398ce385", "c08c3fc75dc011e9",
        "CodecError", "60e23626398ce385", "c08c3fc75dc011e9",
    ),
    "gts_phi_l": (
        "ab489aaf8e8ae133", "d2983411c713608c",
        "380e59f1c7b1ca94", "98c54d1f81ae173e",
        "CodecError", "bb65ec74ef9fa8e4", "83508809b4ae1b7d",
        "CodecError", "bb65ec74ef9fa8e4", "83508809b4ae1b7d",
    ),
    "gts_phi_nl": (
        "4df875c8bc80c890", "56fdef6889661b7d",
        "16fe33e76bcbf300", "e32d307c7b0729c4",
        "CodecError", "9a986368133b7bff", "1649a10c3042a3a3",
        "CodecError", "9a986368133b7bff", "1649a10c3042a3a3",
    ),
    "msg_bt": (
        "ce4effea68e2721b", "b5ec3b71396a2790",
        "596776a310f7bbfe", "5b3530659c6b45a8",
        "CodecError", "5432e9b71df6ac0c", "1167273dfe1a9db0",
        "CodecError", "5432e9b71df6ac0c", "1167273dfe1a9db0",
    ),
    "msg_lu": (
        "0fc3c3b41aac7a31", "e8ed110fa2f3de8a",
        "7020db20bf9bd20f", "bf5e0e7fe8a8ad14",
        "CodecError", "919da612e8fe4191", "b3e71dfdcdfcb53d",
        "CodecError", "919da612e8fe4191", "b3e71dfdcdfcb53d",
    ),
    "msg_sp": (
        "9ebab4f9660fca0d", "9ebab4f9660fca0d",
        "fa21bffb9a105072", "761eee000a1037af",
        "CodecError", "059bc4acff6ac1d1", "26c743cab677027e",
        "CodecError", "059bc4acff6ac1d1", "26c743cab677027e",
    ),
    "msg_sppm": (
        "dd875b8596b77052", "af7e6a6f85a8ea12",
        "da7389aae7951d72", "9fbe7cce314e3ff1",
        "CodecError", "54f3861573347401", "5fcb8ce4a8f4750d",
        "CodecError", "54f3861573347401", "5fcb8ce4a8f4750d",
    ),
    "msg_sweep3d": (
        "b56d1b537aa60fbb", "b56d1b537aa60fbb",
        "1e431f383c787ae7", "f56633fe29e6e09e",
        "CodecError", "6f272ae9eb1f0e97", "cf37c424d93edf27",
        "CodecError", "6f272ae9eb1f0e97", "cf37c424d93edf27",
    ),
    "num_brain": (
        "844688d4344849c9", "b0f034b41e30619c",
        "a2802fa377080fb2", "7ef6107fefb37239",
        "CodecError", "0ecad35086a7f396", "d5b351b292b99d46",
        "CodecError", "0ecad35086a7f396", "d5b351b292b99d46",
    ),
    "num_comet": (
        "eba2fa9e767b1296", "eba2fa9e767b1296",
        "d33664ea1b8ac6e2", "e6db192e6d3f98ee",
        "CodecError", "539ca25cbebddffc", "4e1235c780d302a4",
        "CodecError", "539ca25cbebddffc", "4e1235c780d302a4",
    ),
    "num_control": (
        "05bc91421d7a0d95", "81277eb312e49256",
        "0738d98b9fa2dda0", "94a2f15bc41e629f",
        "CodecError", "a23be0b16c6f4ce8", "0b4eeac622c72389",
        "CodecError", "a23be0b16c6f4ce8", "0b4eeac622c72389",
    ),
    "num_plasma": (
        "d81344a4b1596284", "7219a249266eb4e7",
        "3c3f0a5fcbd91786", "51b3394608b5e81a",
        "CodecError", "d971bee0ad570837", "acfd9cc195748f19",
        "CodecError", "d971bee0ad570837", "acfd9cc195748f19",
    ),
    "obs_error": (
        "e24aaa5aa18a4560", "68b3d6002be2a6f8",
        "1b21c5f8699d583e", "527d941f9246a2b1",
        "CodecError", "37ce7ad35cbd47a6", "d8e4808cc31ff28d",
        "CodecError", "37ce7ad35cbd47a6", "d8e4808cc31ff28d",
    ),
    "obs_info": (
        "31a1977a1abf5ead", "31a1977a1abf5ead",
        "be8c9188fb53733c", "70c844cf5d24c719",
        "CodecError", "4d5c775da8e45798", "0e8c4a0d259d4753",
        "CodecError", "4d5c775da8e45798", "0e8c4a0d259d4753",
    ),
    "obs_spitzer": (
        "8e37ad303d333408", "91ce84c93c4e31fc",
        "5e5cb9c070c51984", "85d53f6b4c54e739",
        "CodecError", "1f95c704be91464d", "0536933c36483ca5",
        "CodecError", "1f95c704be91464d", "0536933c36483ca5",
    ),
    "obs_temp": (
        "f1a233a367444637", "f1a233a367444637",
        "4ec21a8f932cf37b", "27704994d77a1208",
        "CodecError", "6c37601c8fe5e8b6", "042d531560b64e7d",
        "CodecError", "6c37601c8fe5e8b6", "042d531560b64e7d",
    ),
    "s3d_temp": (
        "b24be0d2934e8b7a", "b24be0d2934e8b7a",
        "d656ab753deac79b", "65e29877a731bb73",
        "CodecError", "aca82afafdcf3d0b", "d2cd6f8081cd0081",
        "CodecError", "aca82afafdcf3d0b", "d2cd6f8081cd0081",
    ),
    "s3d_vmag": (
        "6f488962175340d7", "9ac1cf19ab7ce005",
        "96122f285bf4f725", "07df99ef294daee2",
        "CodecError", "fa4976631bc63e5e", "d453a5879c148e12",
        "CodecError", "fa4976631bc63e5e", "d453a5879c148e12",
    ),
    "xgc_igid": (
        "b2571ba12578f778", "b2571ba12578f778",
        "204d8611132fa26a", "39e42a93082d34bf",
        "CodecError", "3d604371bcb65b33", "35d3f0c9da2bc5f8",
        "CodecError", "3d604371bcb65b33", "35d3f0c9da2bc5f8",
    ),
    "xgc_iphase": (
        "a60df726e76d1c94", "a60df726e76d1c94",
        "5da74838ea13a7e5", "94ccd1e8c54bd149",
        "TruncatedContainerError", "da4acd468491e84e", "8c81e9e70271909e",
        "TruncatedContainerError", "da4acd468491e84e", "da4acd468491e84e",
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _outcome(decode) -> str:
    try:
        values = decode()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc).__name__
    return _digest(np.ascontiguousarray(values).tobytes())


def _stream_container(
    values: np.ndarray, step: int, n_workers: int = 1,
    max_inflight: int | None = None,
) -> bytes:
    sink = io.BytesIO()
    writer = StreamingWriter(
        sink, values.dtype, CONFIG,
        n_workers=n_workers, max_inflight=max_inflight,
    )
    for start in range(0, values.size, step):
        writer.write_chunk(values[start:start + step])
    writer.close()
    return sink.getvalue()


@pytest.fixture(params=dataset_names())
def case(request):
    name = request.param
    return generate_dataset(name, n_elements=20_000, seed=3), PARENT[name]


def test_table_covers_the_registry():
    assert sorted(PARENT) == sorted(dataset_names())


@pytest.mark.parametrize(
    "n_workers, max_inflight", [(1, None), (2, None), (3, 1)]
)
def test_engine_container_matches_parent(case, n_workers, max_inflight):
    values, row = case
    compressor = IsobarCompressor(
        CONFIG, n_workers, max_inflight=max_inflight
    )
    assert _digest(compressor.compress(values)) == row[0]
    ran_on_runner = compressor.last_runner_stats is not None
    assert ran_on_runner == (n_workers > 1)


def test_facade_container_matches_parent(case, monkeypatch):
    values, row = case
    monkeypatch.setattr(repro.api, "usable_cpus", lambda: 2)
    assert _digest(repro.compress(values, config=CONFIG)) == row[0]


def test_stream_containers_match_parent(case):
    values, row = case
    digests = tuple(
        _digest(_stream_container(values, step))
        for step in (5_000, 15_000, 1_700)
    )
    assert digests == row[1:4]


@pytest.mark.parametrize(
    "n_workers, max_inflight", [(2, None), (4, None), (2, 1)]
)
def test_pipelined_stream_containers_match_parent(
    case, n_workers, max_inflight
):
    values, row = case
    digests = tuple(
        _digest(_stream_container(values, step, n_workers, max_inflight))
        for step in (5_000, 15_000, 1_700)
    )
    assert digests == row[1:4]


def test_open_stream_containers_match_parent(case, tmp_path, monkeypatch):
    values, row = case
    monkeypatch.setattr(repro.api, "usable_cpus", lambda: 2)
    path = tmp_path / "s.isobar"
    digests = []
    for step in (5_000, 15_000, 1_700):
        with repro.open_stream(
            path, "w", dtype=values.dtype, config=CONFIG
        ) as writer:
            assert writer.last_runner_stats is None  # set by chunk 0
            for start in range(0, values.size, step):
                writer.write_chunk(values[start:start + step])
        assert writer.last_runner_stats is not None  # ran pipelined
        digests.append(_digest(path.read_bytes()))
    assert tuple(digests) == row[1:4]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_engine_damaged_decode_matches_parent(case, n_workers):
    values, row = case
    damaged = bytearray(IsobarCompressor(CONFIG).compress(values))
    damaged[len(damaged) // 2] ^= 0xFF
    compressor = IsobarCompressor(CONFIG, n_workers)
    outcomes = tuple(
        _outcome(lambda: compressor.decompress(bytes(damaged), errors=e))
        for e in POLICIES
    )
    assert outcomes == row[4:7]


def _stream_damaged_outcomes(values, tmp_path, n_workers=1):
    damaged = bytearray(IsobarCompressor(CONFIG).compress(values))
    damaged[len(damaged) // 2] ^= 0xFF
    path = tmp_path / "damaged.isobar"
    path.write_bytes(bytes(damaged))

    def decode(errors: str) -> np.ndarray:
        chunks = list(
            stream_decompress(path, errors=errors, n_workers=n_workers)
        )
        return np.concatenate(chunks) if chunks else values[:0]

    return tuple(_outcome(lambda: decode(e)) for e in POLICIES)


def _stream_damaged_row(name, row):
    if name in STREAM_ZERO_NOW_MATCHES_ENGINE:
        assert row[9] != row[6]
        return row[7:9] + row[6:7]
    return row[7:10]


def test_stream_damaged_decode_matches_parent(case, tmp_path, request):
    values, row = case
    name = request.node.callspec.params["case"]
    assert _stream_damaged_outcomes(values, tmp_path) == \
        _stream_damaged_row(name, row)


def test_runner_stream_damaged_decode_matches_parent(case, tmp_path, request):
    values, row = case
    name = request.node.callspec.params["case"]
    assert _stream_damaged_outcomes(values, tmp_path, 2) == \
        _stream_damaged_row(name, row)
