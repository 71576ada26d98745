"""Differential test: salvage, lenient streams and fsck step the chunk
chain through one walk and decode through one lenient loop, and give
the parent's answers.

``PARENT`` holds outcomes recorded with the earlier implementation,
whose salvage scanner and lenient stream reader walked container bytes
by hand and whose fsck ran a private decode loop, on every registry
dataset (20,000 elements, seed 3, 5,000-element chunks).  A values
digest is the first 12 hex digits of a SHA-256 over the returned
arrays' bytes (for a stream, over every yielded chunk in order); a
read that raised is recorded as the exception's class name.  An
outcomes digest hashes every ``ChunkOutcome`` as
``status,start,end,n_elements,n_chunks,estimated``; an fsck digest
hashes every issue as ``kind,start,end,repairable``.

Each dataset row holds one string per ``FAULT_TYPES`` fault (seed 0):
``salvage_decompress`` values under ``skip`` and ``zero_fill``, their
outcomes (the same under both policies), the ``stream_decompress``
values of the damaged file under ``salvage-skip`` and
``salvage-zero``, the fsck issues and fsck's footer status.  Two more
strings cover a stream whose writer never closed it (four 5,000-element
chunks) and the same stream with its last 100 bytes torn off:
``stream_decompress(..., tolerate_unclosed=True)`` under ``raise``,
``salvage-skip`` and ``salvage-zero``, then ``salvage_decompress(...,
to_eof=True)`` values under ``skip`` and ``zero_fill`` and their
outcomes.

One difference is intended.  A ``salvage-zero`` stream now yields what
``repro.decompress(data, errors="salvage-zero")`` returns, flattened:
zeros for every lost region and up to the declared element count.  The
earlier stream zero-filled only corrupt chunks, so wherever a fault
loses a region (``STREAM_ZERO_NOW_MATCHES_DECOMPRESS``, 96 cases) its
stream digest now equals the ``zero_fill`` values digest instead.
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.core.fsck import fsck
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.salvage import salvage_decompress
from repro.core.stream import StreamingWriter, stream_decompress
from repro.datasets import dataset_names, generate_dataset
from repro.testing.faults import FAULT_TYPES, inject

CONFIG = IsobarConfig(chunk_elements=5_000)

#: The faults that lose a region (a truncated chain, a deleted chunk, a
#: destroyed chunk magic) on every dataset at seed 0.
STREAM_ZERO_NOW_MATCHES_DECOMPRESS = frozenset(
    (name, fault)
    for name in dataset_names()
    for fault in ("truncate", "delete_chunk", "chunk_magic", "torn_tail")
)

PARENT = {
    "gts_phi_l": (
        "22c1d8db1e9b 6941e5d6145d 855c22495837 "
        "22c1d8db1e9b 6941e5d6145d 334084b6c666 ok",
        "22c1d8db1e9b 6941e5d6145d 855c22495837 "
        "22c1d8db1e9b 6941e5d6145d 334084b6c666 ok",
        "22c1d8db1e9b 6941e5d6145d 20151713c995 "
        "22c1d8db1e9b 22c1d8db1e9b 2f9d15a338cc rebuildable",
        "22c1d8db1e9b 6941e5d6145d b1f1115ff839 "
        "22c1d8db1e9b 22c1d8db1e9b c432763b8049 inconsistent",
        "22c1d8db1e9b 6941e5d6145d b3f47d7fb050 "
        "22c1d8db1e9b 22c1d8db1e9b c0a4b3fa44b5 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 6f6591e0252b absent",
        "22c1d8db1e9b 6941e5d6145d d032a737fe39 "
        "22c1d8db1e9b 22c1d8db1e9b 2bc29a439bd2 rebuildable",
        "2bcb6296afbc 2bcb6296afbc 954b186d8d6e "
        "2bcb6296afbc 2bcb6296afbc 3e74717fb4bd rebuildable",
        "2bcb6296afbc 2bcb6296afbc 954b186d8d6e "
        "2bcb6296afbc 2bcb6296afbc d70812d1fe18 rebuildable",
        "77f632de086c 77f632de086c c3f3685760d2 "
        "77f632de086c 77f632de086c d659950c8df0 inconsistent",
        "2bcb6296afbc 2bcb6296afbc 2bcb6296afbc "
        "2bcb6296afbc 2bcb6296afbc fa384834b8e6",
        "22c1d8db1e9b 22c1d8db1e9b 22c1d8db1e9b "
        "22c1d8db1e9b 22c1d8db1e9b f618894e5f42",
    ),
    "gts_phi_nl": (
        "f16cdbebf18c f54edcbd57c9 6d8735880de1 "
        "f16cdbebf18c f54edcbd57c9 b0060b8060df ok",
        "f16cdbebf18c f54edcbd57c9 6d8735880de1 "
        "f16cdbebf18c f54edcbd57c9 b0060b8060df ok",
        "f16cdbebf18c f54edcbd57c9 4e8b0f281053 "
        "f16cdbebf18c f16cdbebf18c e9004c614754 rebuildable",
        "f16cdbebf18c f54edcbd57c9 48c15ac8f78d "
        "f16cdbebf18c f16cdbebf18c 13ba782e0ff5 inconsistent",
        "f16cdbebf18c f54edcbd57c9 6caed4519fa9 "
        "f16cdbebf18c f16cdbebf18c 81bd655fb543 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 46faf0b4f2de absent",
        "f16cdbebf18c f54edcbd57c9 b8865b0f3d21 "
        "f16cdbebf18c f16cdbebf18c f9930bf9cf83 rebuildable",
        "d525fd92fd5b d525fd92fd5b c82e80d21ca9 "
        "d525fd92fd5b d525fd92fd5b 179b45ecd7a8 rebuildable",
        "d525fd92fd5b d525fd92fd5b c82e80d21ca9 "
        "d525fd92fd5b d525fd92fd5b 5bb646016df9 rebuildable",
        "0c2a35a92898 0c2a35a92898 361677d3ffdf "
        "0c2a35a92898 0c2a35a92898 15ab04e76671 inconsistent",
        "d525fd92fd5b d525fd92fd5b d525fd92fd5b "
        "d525fd92fd5b d525fd92fd5b 10da495139a4",
        "f16cdbebf18c f16cdbebf18c f16cdbebf18c "
        "f16cdbebf18c f16cdbebf18c eb951812131b",
    ),
    "gts_chkp_zeon": (
        "54fd495115f6 b406b04db8b6 5fc94ca94025 "
        "54fd495115f6 b406b04db8b6 9b5dcfd4ef89 ok",
        "54fd495115f6 b406b04db8b6 5fc94ca94025 "
        "54fd495115f6 b406b04db8b6 9b5dcfd4ef89 ok",
        "54fd495115f6 b406b04db8b6 fbcc8b2c83fd "
        "54fd495115f6 54fd495115f6 1cdb92d67725 rebuildable",
        "54fd495115f6 b406b04db8b6 9b19c4f3f85f "
        "54fd495115f6 54fd495115f6 a2fe882cddec inconsistent",
        "54fd495115f6 b406b04db8b6 02d02ca611f4 "
        "54fd495115f6 54fd495115f6 daf70340c23c inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 21fa8597cb57 absent",
        "54fd495115f6 b406b04db8b6 5a7c239c531e "
        "54fd495115f6 54fd495115f6 dcf89e65f927 rebuildable",
        "3260a4a08569 3260a4a08569 adf2160503d1 "
        "3260a4a08569 3260a4a08569 91e97a3381b8 rebuildable",
        "3260a4a08569 3260a4a08569 adf2160503d1 "
        "3260a4a08569 3260a4a08569 16e766b1e5a5 rebuildable",
        "f170f00bdf8a f170f00bdf8a 4a886063a247 "
        "f170f00bdf8a f170f00bdf8a a318a9a71e6d inconsistent",
        "3260a4a08569 3260a4a08569 3260a4a08569 "
        "3260a4a08569 3260a4a08569 5ac8c524f957",
        "54fd495115f6 54fd495115f6 54fd495115f6 "
        "54fd495115f6 54fd495115f6 7a8e080ae537",
    ),
    "gts_chkp_zion": (
        "2dc3699a6c0c ecfb56f7705b ec8786b183b4 "
        "2dc3699a6c0c ecfb56f7705b 3570c6926400 ok",
        "2dc3699a6c0c ecfb56f7705b ec8786b183b4 "
        "2dc3699a6c0c ecfb56f7705b 3570c6926400 ok",
        "2dc3699a6c0c ecfb56f7705b 33dfde49b49a "
        "2dc3699a6c0c 2dc3699a6c0c 43a0bf158692 rebuildable",
        "2dc3699a6c0c ecfb56f7705b ae8fb582e9d9 "
        "2dc3699a6c0c 2dc3699a6c0c e830ddab4d26 inconsistent",
        "2dc3699a6c0c ecfb56f7705b d1104658b8be "
        "2dc3699a6c0c 2dc3699a6c0c 96fc8fd034e4 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 30764dbc7f95 absent",
        "2dc3699a6c0c ecfb56f7705b 9c257e578ac7 "
        "2dc3699a6c0c 2dc3699a6c0c 62673c352062 rebuildable",
        "67d4e7034716 67d4e7034716 9332c561f3ed "
        "67d4e7034716 67d4e7034716 15b8a9750604 rebuildable",
        "67d4e7034716 67d4e7034716 9332c561f3ed "
        "67d4e7034716 67d4e7034716 d04cf101c081 rebuildable",
        "d927b8d3f86d d927b8d3f86d c15f58b435d7 "
        "d927b8d3f86d d927b8d3f86d 995fa57fd2f0 inconsistent",
        "67d4e7034716 67d4e7034716 67d4e7034716 "
        "67d4e7034716 67d4e7034716 9332c561f3ed",
        "2dc3699a6c0c 2dc3699a6c0c 2dc3699a6c0c "
        "2dc3699a6c0c 2dc3699a6c0c d2859a86dd97",
    ),
    "xgc_igid": (
        "1713370b1b1b 465470789a81 7bc2f795acb1 "
        "1713370b1b1b 465470789a81 9d651d4318ae ok",
        "1713370b1b1b 465470789a81 7bc2f795acb1 "
        "1713370b1b1b 465470789a81 9d651d4318ae ok",
        "1713370b1b1b 465470789a81 b3986196c2ac "
        "1713370b1b1b 1713370b1b1b 18b12a3c22b1 rebuildable",
        "1713370b1b1b 465470789a81 723517324876 "
        "1713370b1b1b 1713370b1b1b 3eb4c5e8c049 inconsistent",
        "1713370b1b1b 465470789a81 0f725e1a6817 "
        "1713370b1b1b 1713370b1b1b 87a9e3260646 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError f68b307bde7e absent",
        "1713370b1b1b 465470789a81 4885d7be89fd "
        "1713370b1b1b 1713370b1b1b 2f079be65e80 rebuildable",
        "ae2a9589e1ab ae2a9589e1ab 04cb5079c0e1 "
        "ae2a9589e1ab ae2a9589e1ab 57ae7d3dbc2c rebuildable",
        "ae2a9589e1ab ae2a9589e1ab 04cb5079c0e1 "
        "ae2a9589e1ab ae2a9589e1ab 331618e45e3d rebuildable",
        "0e6a76ae6ba4 0e6a76ae6ba4 6b35a2ff6284 "
        "0e6a76ae6ba4 0e6a76ae6ba4 4dc2db7e3905 inconsistent",
        "ae2a9589e1ab ae2a9589e1ab ae2a9589e1ab "
        "ae2a9589e1ab ae2a9589e1ab 04cb5079c0e1",
        "1713370b1b1b 1713370b1b1b 1713370b1b1b "
        "1713370b1b1b 1713370b1b1b 8ec07e54512c",
    ),
    "xgc_iphase": (
        "945c799c58cd 74be9baf3dd1 26a2d1bc18a2 "
        "945c799c58cd 74be9baf3dd1 c5afa95d8ff1 ok",
        "945c799c58cd 74be9baf3dd1 26a2d1bc18a2 "
        "945c799c58cd 74be9baf3dd1 c5afa95d8ff1 ok",
        "945c799c58cd 74be9baf3dd1 d62ccdf853df "
        "945c799c58cd 945c799c58cd d3c623be8f7f rebuildable",
        "945c799c58cd 74be9baf3dd1 66f31353c925 "
        "945c799c58cd 945c799c58cd f20601533e13 inconsistent",
        "945c799c58cd 74be9baf3dd1 6244f3d16bba "
        "945c799c58cd 945c799c58cd 741a883183b2 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError fa05e6cf12a4 absent",
        "945c799c58cd 74be9baf3dd1 ddcb129e435f "
        "945c799c58cd 945c799c58cd a1e7263fabd2 rebuildable",
        "6b43180c0d02 6b43180c0d02 e9ac7652f77f "
        "6b43180c0d02 6b43180c0d02 0c3b6e2fa69d rebuildable",
        "6b43180c0d02 6b43180c0d02 e9ac7652f77f "
        "6b43180c0d02 6b43180c0d02 4569bb1d8c90 rebuildable",
        "76bde572791c 76bde572791c 3c4e1a219744 "
        "76bde572791c 76bde572791c 89511a710ba1 inconsistent",
        "6b43180c0d02 6b43180c0d02 6b43180c0d02 "
        "6b43180c0d02 6b43180c0d02 e9ac7652f77f",
        "945c799c58cd 945c799c58cd 945c799c58cd "
        "945c799c58cd 945c799c58cd c427546b309a",
    ),
    "s3d_temp": (
        "9a8355d6b7f7 fb8835cbb2c6 a9698b56f467 "
        "9a8355d6b7f7 fb8835cbb2c6 caefdca9ab38 ok",
        "9a8355d6b7f7 fb8835cbb2c6 a9698b56f467 "
        "9a8355d6b7f7 fb8835cbb2c6 caefdca9ab38 ok",
        "9a8355d6b7f7 fb8835cbb2c6 5f02e047f586 "
        "9a8355d6b7f7 9a8355d6b7f7 e34d840088b9 rebuildable",
        "9a8355d6b7f7 fb8835cbb2c6 8a93ba92708b "
        "9a8355d6b7f7 9a8355d6b7f7 7884b45f2b1d inconsistent",
        "9a8355d6b7f7 fb8835cbb2c6 9eba0695fc57 "
        "9a8355d6b7f7 9a8355d6b7f7 b6f10a4d537c inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 23c2fc144774 absent",
        "9a8355d6b7f7 fb8835cbb2c6 0115e112b57f "
        "9a8355d6b7f7 9a8355d6b7f7 4d2bcdb474e3 rebuildable",
        "0f3c2fd84b31 0f3c2fd84b31 651e57e2464f "
        "0f3c2fd84b31 0f3c2fd84b31 a624352482d2 rebuildable",
        "0f3c2fd84b31 0f3c2fd84b31 651e57e2464f "
        "0f3c2fd84b31 0f3c2fd84b31 c65abc3a1321 rebuildable",
        "2e474941b68d 2e474941b68d a8f51d66d3cb "
        "2e474941b68d 2e474941b68d 750a14ce2180 inconsistent",
        "0f3c2fd84b31 0f3c2fd84b31 0f3c2fd84b31 "
        "0f3c2fd84b31 0f3c2fd84b31 651e57e2464f",
        "9a8355d6b7f7 9a8355d6b7f7 9a8355d6b7f7 "
        "9a8355d6b7f7 9a8355d6b7f7 20ff5774e8a7",
    ),
    "s3d_vmag": (
        "c71cd73e0228 c487b46b6def 1046e67b5142 "
        "c71cd73e0228 c487b46b6def 55f795d8ab41 ok",
        "c71cd73e0228 c487b46b6def 1046e67b5142 "
        "c71cd73e0228 c487b46b6def 55f795d8ab41 ok",
        "c71cd73e0228 c487b46b6def 98e2bbabcd52 "
        "c71cd73e0228 c71cd73e0228 b8fec2afcfc9 rebuildable",
        "c71cd73e0228 c487b46b6def 05b45ab790db "
        "c71cd73e0228 c71cd73e0228 68d92063bd14 inconsistent",
        "c71cd73e0228 c487b46b6def 59c87ddd76ef "
        "c71cd73e0228 c71cd73e0228 30532cb41338 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 020e3bd8be4c absent",
        "c71cd73e0228 c487b46b6def fc6ffc56a020 "
        "c71cd73e0228 c71cd73e0228 bfda05ee8ebd rebuildable",
        "c1e38bfa4434 c1e38bfa4434 3a95c55f0cde "
        "c1e38bfa4434 c1e38bfa4434 bc9aed205d19 rebuildable",
        "c1e38bfa4434 c1e38bfa4434 3a95c55f0cde "
        "c1e38bfa4434 c1e38bfa4434 04c444117619 rebuildable",
        "114fc348c875 114fc348c875 e15204369f27 "
        "114fc348c875 114fc348c875 8530a49edc9b inconsistent",
        "c1e38bfa4434 c1e38bfa4434 c1e38bfa4434 "
        "c1e38bfa4434 c1e38bfa4434 94490c16d025",
        "c71cd73e0228 c71cd73e0228 c71cd73e0228 "
        "c71cd73e0228 c71cd73e0228 e924cf94169d",
    ),
    "flash_velx": (
        "26de3c3939dc 19340f9a9efa 7c0098ccaf14 "
        "26de3c3939dc 19340f9a9efa 88e11efc7fec ok",
        "26de3c3939dc 19340f9a9efa 7c0098ccaf14 "
        "26de3c3939dc 19340f9a9efa 88e11efc7fec ok",
        "26de3c3939dc 19340f9a9efa 7d1da7e3c58c "
        "26de3c3939dc 26de3c3939dc 6e5ff2660a30 rebuildable",
        "26de3c3939dc 19340f9a9efa 5e73136540e1 "
        "26de3c3939dc 26de3c3939dc af9993164f90 inconsistent",
        "26de3c3939dc 19340f9a9efa af79e9bf1b77 "
        "26de3c3939dc 26de3c3939dc e748c4d3309c inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 3ceb7a977526 absent",
        "26de3c3939dc 19340f9a9efa d428bfca67c3 "
        "26de3c3939dc 26de3c3939dc 147c8e6b47cb rebuildable",
        "b4ca873deb25 b4ca873deb25 9bfd2a964dc0 "
        "b4ca873deb25 b4ca873deb25 450be02c5a06 rebuildable",
        "b4ca873deb25 b4ca873deb25 9bfd2a964dc0 "
        "b4ca873deb25 b4ca873deb25 d62c815561d2 rebuildable",
        "eb26aca0682f eb26aca0682f fa20254eafea "
        "eb26aca0682f eb26aca0682f 2191b9c9bbfc inconsistent",
        "b4ca873deb25 b4ca873deb25 b4ca873deb25 "
        "b4ca873deb25 b4ca873deb25 9bfd2a964dc0",
        "26de3c3939dc 26de3c3939dc 26de3c3939dc "
        "26de3c3939dc 26de3c3939dc f8b1ed4116b5",
    ),
    "flash_vely": (
        "1e2b86301916 6e761c73a508 e200cb4b2700 "
        "1e2b86301916 6e761c73a508 268845731153 ok",
        "1e2b86301916 6e761c73a508 e200cb4b2700 "
        "1e2b86301916 6e761c73a508 268845731153 ok",
        "1e2b86301916 6e761c73a508 29be1f41ad63 "
        "1e2b86301916 1e2b86301916 49759a55303a rebuildable",
        "1e2b86301916 6e761c73a508 bf528ec5a517 "
        "1e2b86301916 1e2b86301916 4005ff937fef inconsistent",
        "1e2b86301916 6e761c73a508 c1adea6f54d9 "
        "1e2b86301916 1e2b86301916 c94700adff2a inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 4fcbf3525ac5 absent",
        "1e2b86301916 6e761c73a508 43ed5e0a7e05 "
        "1e2b86301916 1e2b86301916 855bd956f000 rebuildable",
        "45a7c9c8b456 45a7c9c8b456 2d2cd798c8fc "
        "45a7c9c8b456 45a7c9c8b456 49cfd22c2f3d rebuildable",
        "45a7c9c8b456 45a7c9c8b456 2d2cd798c8fc "
        "45a7c9c8b456 45a7c9c8b456 f064ae2b8741 rebuildable",
        "ab4a5e8254ed ab4a5e8254ed 92b15a90779b "
        "ab4a5e8254ed ab4a5e8254ed 06e321265d18 inconsistent",
        "45a7c9c8b456 45a7c9c8b456 45a7c9c8b456 "
        "45a7c9c8b456 45a7c9c8b456 2d2cd798c8fc",
        "1e2b86301916 1e2b86301916 1e2b86301916 "
        "1e2b86301916 1e2b86301916 cb1bba926fc0",
    ),
    "flash_gamc": (
        "bd6662557468 1fabc06c79cb ec84145df790 "
        "bd6662557468 1fabc06c79cb 3e2dc5cbaa0f ok",
        "bd6662557468 1fabc06c79cb ec84145df790 "
        "bd6662557468 1fabc06c79cb 3e2dc5cbaa0f ok",
        "bd6662557468 1fabc06c79cb db1db1549d44 "
        "bd6662557468 bd6662557468 a92afcb98a1d rebuildable",
        "bd6662557468 1fabc06c79cb 1e4cd583039b "
        "bd6662557468 bd6662557468 72d00b4f50c5 inconsistent",
        "bd6662557468 1fabc06c79cb 860ab7e6a1c1 "
        "bd6662557468 bd6662557468 e6b940c5dc1d inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 26b7e03274c5 absent",
        "bd6662557468 1fabc06c79cb cfd8de5a60cc "
        "bd6662557468 bd6662557468 a97b376489ec rebuildable",
        "9869b49cb63e 9869b49cb63e 76ae54cc4688 "
        "9869b49cb63e 9869b49cb63e 20e51e49a575 rebuildable",
        "9869b49cb63e 9869b49cb63e 76ae54cc4688 "
        "9869b49cb63e 9869b49cb63e a2a2268f1199 rebuildable",
        "3ca47b63f67f 3ca47b63f67f 4244e8148c52 "
        "3ca47b63f67f 3ca47b63f67f 7a823ecd8583 inconsistent",
        "9869b49cb63e 9869b49cb63e 9869b49cb63e "
        "9869b49cb63e 9869b49cb63e 76ae54cc4688",
        "bd6662557468 bd6662557468 bd6662557468 "
        "bd6662557468 bd6662557468 2472c56ee292",
    ),
    "msg_bt": (
        "1a388b547397 43daf1f52bd4 d91013323689 "
        "1a388b547397 43daf1f52bd4 e0cad48c056a ok",
        "1a388b547397 43daf1f52bd4 d91013323689 "
        "1a388b547397 43daf1f52bd4 e0cad48c056a ok",
        "1a388b547397 43daf1f52bd4 93baa3cec7a3 "
        "1a388b547397 1a388b547397 512e9a6af686 rebuildable",
        "1a388b547397 43daf1f52bd4 790df318d32b "
        "1a388b547397 1a388b547397 4eb1d84d9a4c inconsistent",
        "1a388b547397 43daf1f52bd4 60f88356a9e3 "
        "1a388b547397 1a388b547397 3df876296cfa inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 5f16218de392 absent",
        "1a388b547397 43daf1f52bd4 f28dbdb9335a "
        "1a388b547397 1a388b547397 8a15f53c6ed0 rebuildable",
        "56f228d8d8ab 56f228d8d8ab 555e7f470b00 "
        "56f228d8d8ab 56f228d8d8ab 75e8adcddea1 rebuildable",
        "56f228d8d8ab 56f228d8d8ab 555e7f470b00 "
        "56f228d8d8ab 56f228d8d8ab 32630f64f57f rebuildable",
        "255c2aa96ade 255c2aa96ade 50b8fcd9add3 "
        "255c2aa96ade 255c2aa96ade 564d46f09eba inconsistent",
        "56f228d8d8ab 56f228d8d8ab 56f228d8d8ab "
        "56f228d8d8ab 56f228d8d8ab 8985b611e1e3",
        "1a388b547397 1a388b547397 1a388b547397 "
        "1a388b547397 1a388b547397 4952fc29715c",
    ),
    "msg_lu": (
        "54fd495115f6 b406b04db8b6 5fc94ca94025 "
        "54fd495115f6 b406b04db8b6 9b5dcfd4ef89 ok",
        "54fd495115f6 b406b04db8b6 5fc94ca94025 "
        "54fd495115f6 b406b04db8b6 9b5dcfd4ef89 ok",
        "54fd495115f6 b406b04db8b6 fbcc8b2c83fd "
        "54fd495115f6 54fd495115f6 1cdb92d67725 rebuildable",
        "54fd495115f6 b406b04db8b6 9b19c4f3f85f "
        "54fd495115f6 54fd495115f6 a2fe882cddec inconsistent",
        "54fd495115f6 b406b04db8b6 02d02ca611f4 "
        "54fd495115f6 54fd495115f6 daf70340c23c inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 21fa8597cb57 absent",
        "54fd495115f6 b406b04db8b6 5a7c239c531e "
        "54fd495115f6 54fd495115f6 dcf89e65f927 rebuildable",
        "3260a4a08569 3260a4a08569 adf2160503d1 "
        "3260a4a08569 3260a4a08569 91e97a3381b8 rebuildable",
        "3260a4a08569 3260a4a08569 adf2160503d1 "
        "3260a4a08569 3260a4a08569 16e766b1e5a5 rebuildable",
        "f170f00bdf8a f170f00bdf8a 4a886063a247 "
        "f170f00bdf8a f170f00bdf8a a318a9a71e6d inconsistent",
        "3260a4a08569 3260a4a08569 3260a4a08569 "
        "3260a4a08569 3260a4a08569 5ac8c524f957",
        "54fd495115f6 54fd495115f6 54fd495115f6 "
        "54fd495115f6 54fd495115f6 7a8e080ae537",
    ),
    "msg_sp": (
        "fb50f6a3d35a 6814794192eb f58a406e9b42 "
        "fb50f6a3d35a 6814794192eb d5f54cb3654a ok",
        "fb50f6a3d35a 6814794192eb f58a406e9b42 "
        "fb50f6a3d35a 6814794192eb d5f54cb3654a ok",
        "fb50f6a3d35a 6814794192eb 55edadb3aa1e "
        "fb50f6a3d35a fb50f6a3d35a fe96e4a1e872 rebuildable",
        "fb50f6a3d35a 6814794192eb 97f5fed9de93 "
        "fb50f6a3d35a fb50f6a3d35a 30e4ea927f47 inconsistent",
        "fb50f6a3d35a 6814794192eb 9b50e9cb4865 "
        "fb50f6a3d35a fb50f6a3d35a a8f2c57c72fd inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 10acb95a89ab absent",
        "fb50f6a3d35a 6814794192eb c6cd33a8e8b3 "
        "fb50f6a3d35a fb50f6a3d35a 7249b34ed166 rebuildable",
        "b1770f0308ca b1770f0308ca b68bea865cb1 "
        "b1770f0308ca b1770f0308ca 7a6d6850a361 rebuildable",
        "b1770f0308ca b1770f0308ca b68bea865cb1 "
        "b1770f0308ca b1770f0308ca 7b0f11db8b2f rebuildable",
        "78d5f92ce50b 78d5f92ce50b 617faf11117e "
        "78d5f92ce50b 78d5f92ce50b 4d0040d89ddc inconsistent",
        "b1770f0308ca b1770f0308ca b1770f0308ca "
        "b1770f0308ca b1770f0308ca b68bea865cb1",
        "fb50f6a3d35a fb50f6a3d35a fb50f6a3d35a "
        "fb50f6a3d35a fb50f6a3d35a 6bd62fa22b0a",
    ),
    "msg_sppm": (
        "e048109f48f5 b1394f6f6639 2f1d24ca90b4 "
        "e048109f48f5 b1394f6f6639 a66632832b01 ok",
        "e048109f48f5 b1394f6f6639 2f1d24ca90b4 "
        "e048109f48f5 b1394f6f6639 a66632832b01 ok",
        "e048109f48f5 b1394f6f6639 13454f7c11d1 "
        "e048109f48f5 e048109f48f5 69b621b4e360 rebuildable",
        "e048109f48f5 b1394f6f6639 0baee56c3492 "
        "e048109f48f5 e048109f48f5 4302e488e6d3 inconsistent",
        "e048109f48f5 b1394f6f6639 a6c49d722f9a "
        "e048109f48f5 e048109f48f5 8557d622036b inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 5c8cd22abc19 absent",
        "e048109f48f5 b1394f6f6639 45a3821f17f7 "
        "e048109f48f5 e048109f48f5 be1039ee8496 rebuildable",
        "4ec720f1ef92 4ec720f1ef92 5388600efe3f "
        "4ec720f1ef92 4ec720f1ef92 edbd5c5036b4 rebuildable",
        "4ec720f1ef92 4ec720f1ef92 5388600efe3f "
        "4ec720f1ef92 4ec720f1ef92 025fb3286558 rebuildable",
        "c0ed09642a64 c0ed09642a64 a6a571641ea3 "
        "c0ed09642a64 c0ed09642a64 59064c224b09 inconsistent",
        "4ec720f1ef92 4ec720f1ef92 4ec720f1ef92 "
        "4ec720f1ef92 4ec720f1ef92 d8b21385dbf8",
        "e048109f48f5 e048109f48f5 e048109f48f5 "
        "e048109f48f5 e048109f48f5 0fbc32a218d0",
    ),
    "msg_sweep3d": (
        "14ade9870729 ed9f1a02c3bb 44f3ad3c171f "
        "14ade9870729 ed9f1a02c3bb baf2d66bc79a ok",
        "14ade9870729 ed9f1a02c3bb 44f3ad3c171f "
        "14ade9870729 ed9f1a02c3bb baf2d66bc79a ok",
        "14ade9870729 ed9f1a02c3bb a1e8f99c8692 "
        "14ade9870729 14ade9870729 18c9c2f0b85f rebuildable",
        "14ade9870729 ed9f1a02c3bb 5c8224c0b89b "
        "14ade9870729 14ade9870729 37411a052dbd inconsistent",
        "14ade9870729 ed9f1a02c3bb 6d1fe4ee5efc "
        "14ade9870729 14ade9870729 057a68736afd inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError b2607bbfc892 absent",
        "14ade9870729 ed9f1a02c3bb 31e0db9a8678 "
        "14ade9870729 14ade9870729 aeb0c921d9ca rebuildable",
        "30b06da928ad 30b06da928ad 9ba29841f40f "
        "30b06da928ad 30b06da928ad d66fd259dc65 rebuildable",
        "30b06da928ad 30b06da928ad 9ba29841f40f "
        "30b06da928ad 30b06da928ad 77bd9146ef6c rebuildable",
        "bf43688e7248 bf43688e7248 60af94f172e2 "
        "bf43688e7248 bf43688e7248 6ccc68f4a899 inconsistent",
        "30b06da928ad 30b06da928ad 30b06da928ad "
        "30b06da928ad 30b06da928ad 9ba29841f40f",
        "14ade9870729 14ade9870729 14ade9870729 "
        "14ade9870729 14ade9870729 eb62a7408870",
    ),
    "num_brain": (
        "371a0ccbc6f2 0d58ff07a94c 388fe9d5d655 "
        "371a0ccbc6f2 0d58ff07a94c d3139bdd5aaa ok",
        "371a0ccbc6f2 0d58ff07a94c 388fe9d5d655 "
        "371a0ccbc6f2 0d58ff07a94c d3139bdd5aaa ok",
        "371a0ccbc6f2 0d58ff07a94c f2d8c1e49666 "
        "371a0ccbc6f2 371a0ccbc6f2 13629730eb07 rebuildable",
        "371a0ccbc6f2 0d58ff07a94c c2fd928bd38a "
        "371a0ccbc6f2 371a0ccbc6f2 3e9feaf95d2a inconsistent",
        "371a0ccbc6f2 0d58ff07a94c 5d84c35e16bd "
        "371a0ccbc6f2 371a0ccbc6f2 65aaa2620b04 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 53810a1b5d24 absent",
        "371a0ccbc6f2 0d58ff07a94c 128a3ba874f0 "
        "371a0ccbc6f2 371a0ccbc6f2 440bb533a3c8 rebuildable",
        "673cf3318bc8 673cf3318bc8 ebe58d3951eb "
        "673cf3318bc8 673cf3318bc8 be40ac517d54 rebuildable",
        "673cf3318bc8 673cf3318bc8 ebe58d3951eb "
        "673cf3318bc8 673cf3318bc8 b79edb4f7fa1 rebuildable",
        "0e410c5d496a 0e410c5d496a 64901de910c1 "
        "0e410c5d496a 0e410c5d496a d26a14f31db5 inconsistent",
        "673cf3318bc8 673cf3318bc8 673cf3318bc8 "
        "673cf3318bc8 673cf3318bc8 785c87dac1de",
        "371a0ccbc6f2 371a0ccbc6f2 371a0ccbc6f2 "
        "371a0ccbc6f2 371a0ccbc6f2 a9860636e62b",
    ),
    "num_comet": (
        "0ddd0668ae97 fe8e3ed37ae9 ba84d9d5d49c "
        "0ddd0668ae97 fe8e3ed37ae9 3291f9c7920f ok",
        "0ddd0668ae97 fe8e3ed37ae9 ba84d9d5d49c "
        "0ddd0668ae97 fe8e3ed37ae9 3291f9c7920f ok",
        "0ddd0668ae97 fe8e3ed37ae9 070afd53add5 "
        "0ddd0668ae97 0ddd0668ae97 f7d6e7580e4b rebuildable",
        "0ddd0668ae97 fe8e3ed37ae9 f76444d70cf9 "
        "0ddd0668ae97 0ddd0668ae97 4014fdf36b11 inconsistent",
        "0ddd0668ae97 fe8e3ed37ae9 d284db582b3d "
        "0ddd0668ae97 0ddd0668ae97 de1a8f66fdb6 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 7f36f8272f14 absent",
        "0ddd0668ae97 fe8e3ed37ae9 62b92885334e "
        "0ddd0668ae97 0ddd0668ae97 a9c6e04f0203 rebuildable",
        "8af69ed4ed9a 8af69ed4ed9a d33056735259 "
        "8af69ed4ed9a 8af69ed4ed9a f07cb988663e rebuildable",
        "8af69ed4ed9a 8af69ed4ed9a d33056735259 "
        "8af69ed4ed9a 8af69ed4ed9a d35dfcece940 rebuildable",
        "7da014220af7 7da014220af7 9b13a89b202f "
        "7da014220af7 7da014220af7 5aee3906880c inconsistent",
        "8af69ed4ed9a 8af69ed4ed9a 8af69ed4ed9a "
        "8af69ed4ed9a 8af69ed4ed9a d33056735259",
        "0ddd0668ae97 0ddd0668ae97 0ddd0668ae97 "
        "0ddd0668ae97 0ddd0668ae97 a2ee1c12b90f",
    ),
    "num_control": (
        "e4ac50d15893 2750ef6d8f32 c51e24fc5750 "
        "e4ac50d15893 2750ef6d8f32 ff85e5cb0fa2 ok",
        "e4ac50d15893 2750ef6d8f32 c51e24fc5750 "
        "e4ac50d15893 2750ef6d8f32 ff85e5cb0fa2 ok",
        "e4ac50d15893 2750ef6d8f32 67a3ac8e8a0a "
        "e4ac50d15893 e4ac50d15893 74dbd04b78e2 rebuildable",
        "e4ac50d15893 2750ef6d8f32 260a7ff0cd39 "
        "e4ac50d15893 e4ac50d15893 cffc4e41268c inconsistent",
        "e4ac50d15893 2750ef6d8f32 5c27f42248b6 "
        "e4ac50d15893 e4ac50d15893 816ae221098d inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 0d6d9a94033b absent",
        "e4ac50d15893 2750ef6d8f32 88585d1229cf "
        "e4ac50d15893 e4ac50d15893 98b2111e975f rebuildable",
        "358819dbebf7 358819dbebf7 c51a96a4911e "
        "358819dbebf7 358819dbebf7 f4d73531e39f rebuildable",
        "358819dbebf7 358819dbebf7 c51a96a4911e "
        "358819dbebf7 358819dbebf7 ab185000c629 rebuildable",
        "d05848c0c2cc d05848c0c2cc 8f513748a906 "
        "d05848c0c2cc d05848c0c2cc 7191b19a84a6 inconsistent",
        "358819dbebf7 358819dbebf7 358819dbebf7 "
        "358819dbebf7 358819dbebf7 b82598a26361",
        "e4ac50d15893 e4ac50d15893 e4ac50d15893 "
        "e4ac50d15893 e4ac50d15893 bd31260b921d",
    ),
    "num_plasma": (
        "81a33833486b 5c118437ecbc 7074c3cf1ccb "
        "81a33833486b 5c118437ecbc 55cd01a12e75 ok",
        "81a33833486b 5c118437ecbc 7074c3cf1ccb "
        "81a33833486b 5c118437ecbc 55cd01a12e75 ok",
        "81a33833486b 5c118437ecbc 3f29b4f322e5 "
        "81a33833486b 81a33833486b 381aefdd58d5 rebuildable",
        "81a33833486b 5c118437ecbc f649f4f07298 "
        "81a33833486b 81a33833486b 702300791b10 inconsistent",
        "81a33833486b 5c118437ecbc 9f4448c60f09 "
        "81a33833486b 81a33833486b 633f02cce1d1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError a7e6557b4d5b absent",
        "81a33833486b 5c118437ecbc 6f0eafb5448a "
        "81a33833486b 81a33833486b 31e4a999e915 rebuildable",
        "3e735be8faa7 3e735be8faa7 e8c033a0f356 "
        "3e735be8faa7 3e735be8faa7 7bf13dc90f5d rebuildable",
        "3e735be8faa7 3e735be8faa7 e8c033a0f356 "
        "3e735be8faa7 3e735be8faa7 88618e927cf4 rebuildable",
        "083053cdce74 083053cdce74 620fbd924e89 "
        "083053cdce74 083053cdce74 6900a0b4f211 inconsistent",
        "3e735be8faa7 3e735be8faa7 3e735be8faa7 "
        "3e735be8faa7 3e735be8faa7 0e2b88c80d5f",
        "81a33833486b 81a33833486b 81a33833486b "
        "81a33833486b 81a33833486b c2a897d734e6",
    ),
    "obs_error": (
        "aee1a65ecf72 cbe793b03097 7ae74052c8df "
        "aee1a65ecf72 cbe793b03097 30f70d6bcfda ok",
        "aee1a65ecf72 cbe793b03097 7ae74052c8df "
        "aee1a65ecf72 cbe793b03097 30f70d6bcfda ok",
        "aee1a65ecf72 cbe793b03097 9468bfba4454 "
        "aee1a65ecf72 aee1a65ecf72 8391ae7b5424 rebuildable",
        "aee1a65ecf72 cbe793b03097 66d9d6635fd1 "
        "aee1a65ecf72 aee1a65ecf72 d45808260548 inconsistent",
        "aee1a65ecf72 cbe793b03097 b00eb27e1bf2 "
        "aee1a65ecf72 aee1a65ecf72 9350083c191e inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError f274bd63cd06 absent",
        "aee1a65ecf72 cbe793b03097 4f04fd96d113 "
        "aee1a65ecf72 aee1a65ecf72 628491c9ad59 rebuildable",
        "30c8a88c0aa4 30c8a88c0aa4 55dcc6080bbe "
        "30c8a88c0aa4 30c8a88c0aa4 51d5bb6d38cd rebuildable",
        "30c8a88c0aa4 30c8a88c0aa4 55dcc6080bbe "
        "30c8a88c0aa4 30c8a88c0aa4 156d00a02f43 rebuildable",
        "8d26fe370f41 8d26fe370f41 899100cb3caa "
        "8d26fe370f41 8d26fe370f41 ac093e394908 inconsistent",
        "30c8a88c0aa4 30c8a88c0aa4 30c8a88c0aa4 "
        "30c8a88c0aa4 30c8a88c0aa4 db4a4a308ef1",
        "aee1a65ecf72 aee1a65ecf72 aee1a65ecf72 "
        "aee1a65ecf72 aee1a65ecf72 ac1deaa2c945",
    ),
    "obs_info": (
        "f1925362c975 9e46a1ab12fa 6da2e54eb770 "
        "f1925362c975 9e46a1ab12fa 5520299f706a ok",
        "f1925362c975 9e46a1ab12fa 6da2e54eb770 "
        "f1925362c975 9e46a1ab12fa 5520299f706a ok",
        "f1925362c975 9e46a1ab12fa 8f5e7ecada65 "
        "f1925362c975 f1925362c975 d519eda9727f rebuildable",
        "f1925362c975 9e46a1ab12fa a69633b90698 "
        "f1925362c975 f1925362c975 dc49c3af897b inconsistent",
        "f1925362c975 9e46a1ab12fa 530c31fa0b23 "
        "f1925362c975 f1925362c975 561fff4dca13 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 3a2c53d13c67 absent",
        "f1925362c975 9e46a1ab12fa adf5ac1f3aad "
        "f1925362c975 f1925362c975 6a1f108c788c rebuildable",
        "13d914faa36d 13d914faa36d 2e05de0b5b0b "
        "13d914faa36d 13d914faa36d 43bc0a7639fc rebuildable",
        "13d914faa36d 13d914faa36d 2e05de0b5b0b "
        "13d914faa36d 13d914faa36d a989962e79a3 rebuildable",
        "59049c1de141 59049c1de141 eca6f60efd89 "
        "59049c1de141 59049c1de141 c3e63ac8a267 inconsistent",
        "13d914faa36d 13d914faa36d 13d914faa36d "
        "13d914faa36d 13d914faa36d 2e05de0b5b0b",
        "f1925362c975 f1925362c975 f1925362c975 "
        "f1925362c975 f1925362c975 beaedca43619",
    ),
    "obs_spitzer": (
        "2c81f28b464e cfd4c4b33748 2a1714b16429 "
        "2c81f28b464e cfd4c4b33748 b90499b9b1ef ok",
        "2c81f28b464e cfd4c4b33748 2a1714b16429 "
        "2c81f28b464e cfd4c4b33748 b90499b9b1ef ok",
        "2c81f28b464e cfd4c4b33748 3a5ff636973c "
        "2c81f28b464e 2c81f28b464e 02308445cc6b rebuildable",
        "2c81f28b464e cfd4c4b33748 dd3b3722a4c3 "
        "2c81f28b464e 2c81f28b464e c40cb6849de7 inconsistent",
        "2c81f28b464e cfd4c4b33748 7573341fbfb9 "
        "2c81f28b464e 2c81f28b464e 5756622e0b84 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 17cce2376e73 absent",
        "2c81f28b464e cfd4c4b33748 863f77169921 "
        "2c81f28b464e 2c81f28b464e dfd383b3a93d rebuildable",
        "1c3a36916635 1c3a36916635 0d52f938a22d "
        "1c3a36916635 1c3a36916635 074b67aac0bb rebuildable",
        "1c3a36916635 1c3a36916635 0d52f938a22d "
        "1c3a36916635 1c3a36916635 f897f82e4f00 rebuildable",
        "39b451df2940 39b451df2940 317a58aed4d6 "
        "39b451df2940 39b451df2940 7da60c3a285e inconsistent",
        "1c3a36916635 1c3a36916635 1c3a36916635 "
        "1c3a36916635 1c3a36916635 5cf06c91cbe7",
        "2c81f28b464e 2c81f28b464e 2c81f28b464e "
        "2c81f28b464e 2c81f28b464e c6b5514ee034",
    ),
    "obs_temp": (
        "343ea5c3e7d9 2c70c7aec0c8 e51a26c632b7 "
        "343ea5c3e7d9 2c70c7aec0c8 f34b3e1a72fe ok",
        "343ea5c3e7d9 2c70c7aec0c8 e51a26c632b7 "
        "343ea5c3e7d9 2c70c7aec0c8 f34b3e1a72fe ok",
        "343ea5c3e7d9 2c70c7aec0c8 6e1772531db7 "
        "343ea5c3e7d9 343ea5c3e7d9 aee225a23451 rebuildable",
        "343ea5c3e7d9 2c70c7aec0c8 3e58583c2ef1 "
        "343ea5c3e7d9 343ea5c3e7d9 3cf491e7b16d inconsistent",
        "343ea5c3e7d9 2c70c7aec0c8 4d57d83c4f11 "
        "343ea5c3e7d9 343ea5c3e7d9 d522749313c2 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError "
        "ContainerFormatError ContainerFormatError 87715256f1a1 absent",
        "343ea5c3e7d9 2c70c7aec0c8 10e05ce839a0 "
        "343ea5c3e7d9 343ea5c3e7d9 42d8d353f937 rebuildable",
        "87f52647c408 87f52647c408 009d6e917871 "
        "87f52647c408 87f52647c408 4731e2552c66 rebuildable",
        "87f52647c408 87f52647c408 009d6e917871 "
        "87f52647c408 87f52647c408 8cd65af678e7 rebuildable",
        "79b888640770 79b888640770 e50b189a1438 "
        "79b888640770 79b888640770 be3cf39fbb95 inconsistent",
        "87f52647c408 87f52647c408 87f52647c408 "
        "87f52647c408 87f52647c408 009d6e917871",
        "343ea5c3e7d9 343ea5c3e7d9 343ea5c3e7d9 "
        "343ea5c3e7d9 343ea5c3e7d9 9c591100ab1a",
    ),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:12]


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _outcome(read) -> str:
    try:
        return read()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc).__name__


def _salvage(data: bytes, policy: str, to_eof: bool = False) -> list[str]:
    """``[values digest, outcomes digest]`` (or the exception twice)."""
    try:
        result = salvage_decompress(data, policy=policy, to_eof=to_eof)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return [type(exc).__name__] * 2
    outcomes = ";".join(
        f"{o.status},{o.start},{o.end},{o.n_elements},{o.n_chunks},"
        f"{int(o.estimated)}"
        for o in result.report.outcomes
    )
    return [_digest(result.values), _text_digest(outcomes)]


def _stream(path, errors: str, **kwargs) -> str:
    return _outcome(
        lambda: _digest(*stream_decompress(path, errors=errors, **kwargs))
    )


def _fsck(data: bytes) -> list[str]:
    report = fsck(data)
    issues = ";".join(
        f"{i.kind},{i.start},{i.end},{int(i.repairable)}"
        for i in report.issues
    )
    return [_text_digest(issues), report.footer_status]


def _unclosed_stream(values: np.ndarray, path) -> bytes:
    """Write ``values`` as a stream whose writer never reached close()."""
    with open(path, "wb") as sink:
        writer = StreamingWriter(sink, values.dtype, config=CONFIG)
        for start in range(0, values.size, 5_000):
            writer.write_chunk(values[start:start + 5_000])
        sink.flush()
    return path.read_bytes()


@pytest.fixture(scope="module", params=dataset_names())
def case(request):
    name = request.param
    values = generate_dataset(name, n_elements=20_000, seed=3)
    return name, values, IsobarCompressor(CONFIG).compress(values)


def test_table_covers_the_registry():
    assert sorted(PARENT) == sorted(dataset_names())
    assert all(len(row) == len(FAULT_TYPES) + 2 for row in PARENT.values())


@pytest.mark.parametrize("fault", FAULT_TYPES)
def test_damaged_container_matches_parent(case, fault, tmp_path):
    name, _, blob = case
    damaged = inject(blob, fault, 0).data
    path = tmp_path / "d.isobar"
    path.write_bytes(damaged)
    expected = PARENT[name][FAULT_TYPES.index(fault)].split()
    if (name, fault) in STREAM_ZERO_NOW_MATCHES_DECOMPRESS:
        assert expected[4] != expected[1]
        expected[4] = expected[1]
    skip_values, outcomes = _salvage(damaged, "skip")
    zero_values, zero_outcomes = _salvage(damaged, "zero_fill")
    assert zero_outcomes == outcomes
    assert [
        skip_values, zero_values, outcomes,
        _stream(path, "salvage-skip"), _stream(path, "salvage-zero"),
        *_fsck(damaged),
    ] == expected


@pytest.mark.parametrize("torn", [False, True], ids=["unclosed", "torn"])
def test_unclosed_stream_matches_parent(case, torn, tmp_path):
    name, values, _ = case
    path = tmp_path / "u.isobar"
    data = _unclosed_stream(values, path)
    if torn:
        data = data[:-100]
        path.write_bytes(data)
    skip_values, outcomes = _salvage(data, "skip", to_eof=True)
    zero_values, zero_outcomes = _salvage(data, "zero_fill", to_eof=True)
    assert zero_outcomes == outcomes
    assert [
        *(_stream(path, e, tolerate_unclosed=True)
          for e in ("raise", "salvage-skip", "salvage-zero")),
        skip_values, zero_values, outcomes,
    ] == PARENT[name][len(FAULT_TYPES) + torn].split()


@pytest.mark.parametrize("errors", ["salvage-skip", "salvage-zero"])
@pytest.mark.parametrize("fault", FAULT_TYPES)
def test_lenient_stream_yields_what_decompress_returns(
    case, fault, errors, tmp_path
):
    _, _, blob = case
    damaged = inject(blob, fault, 0).data
    path = tmp_path / "d.isobar"
    path.write_bytes(damaged)

    def streamed() -> np.ndarray:
        return np.concatenate(list(stream_decompress(path, errors=errors)))

    def decoded() -> np.ndarray:
        return repro.decompress(damaged, errors=errors).reshape(-1)

    expected = _outcome(decoded)
    if isinstance(expected, str):  # both raise, with the same error
        assert _outcome(streamed) == expected
        return
    restored = streamed()
    assert restored.dtype == expected.dtype
    assert restored.tobytes() == expected.tobytes()
