"""Differential test: one reader and one checker give the parent's answers.

``PARENT`` holds outcomes recorded with the earlier implementation —
an always-scanning in-memory ``ContainerReader``, a separate
``ContainerFile``, and a separate validator module behind ``isobar
verify`` — on every registry dataset (20,000 elements, seed
3, 5,000-element chunks).  A digest is the first 12 hex digits of a
SHA-256 over the returned arrays' bytes; a read that raised is
recorded as the exception's class name.

Row layout, one string per line:

* healthy container: digest of ``read_all``, of the eight ``RANGES``
  reads and of the eight ``ELEMENTS`` lookups, from the in-memory
  reader;
* then one line per ``FAULT_TYPES`` fault (seed 0): ``read_all`` of a
  file-opened reader under ``raise``, ``salvage-skip`` and
  ``salvage-zero``; the ``isobar verify`` exit code; the ``isobar
  fsck`` exit code; and fsck's footer status.

Reads must match for a path and for a bytes source.  Two differences
are intended.  fsck now decodes every payload, so the cases in
``FSCK_NOW_FINDS_CRC_DAMAGE`` exit 1 where the earlier fsck wrongly
reported a clean container (their verify exit code was already 1).
And under ``salvage-skip`` the earlier ``read_all`` raised a bare
``ValueError`` (reshaping fewer elements to the header's shape) where
it now returns the surviving elements flat, as ``read_range`` does.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from repro.cli import main
from repro.core.fsck import fsck
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.random_access import ContainerFile, ContainerReader
from repro.datasets import dataset_names, generate_dataset
from repro.testing.faults import FAULT_TYPES, inject

CONFIG = IsobarConfig(chunk_elements=5_000)
POLICIES = ("raise", "salvage-skip", "salvage-zero")
RANGES = ((0, 1), (0, 5_000), (4_999, 5_001), (1_234, 17_890),
          (19_999, 20_000), (7_000, 7_000), (2_500, 12_500), (15_000, 20_000))
ELEMENTS = (0, 4_999, 5_000, 9_999, 10_001, 14_999, 15_000, 19_999)

#: At seed 0, ``bit_flip`` and ``zero_range`` land inside a chunk
#: payload of every dataset: the chain and footer stay intact, so only
#: a payload decode finds the damage.
FSCK_NOW_FINDS_CRC_DAMAGE = frozenset(
    (name, fault)
    for name in dataset_names()
    for fault in ("bit_flip", "zero_range")
)

PARENT = {
    "gts_phi_l": (
        "2bcb6296afbc 10a7b29ec363 af7deaf2da12",
        "CodecError ValueError 6941e5d6145d 1 0 ok",
        "CodecError ValueError 6941e5d6145d 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 6941e5d6145d 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "2bcb6296afbc 2bcb6296afbc 2bcb6296afbc 0 2 rebuildable",
        "2bcb6296afbc 2bcb6296afbc 2bcb6296afbc 0 2 rebuildable",
        "77f632de086c 77f632de086c 77f632de086c 0 2 inconsistent",
    ),
    "gts_phi_nl": (
        "d525fd92fd5b 834d54646964 822210cc75c2",
        "CodecError ValueError f54edcbd57c9 1 0 ok",
        "CodecError ValueError f54edcbd57c9 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError f54edcbd57c9 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "d525fd92fd5b d525fd92fd5b d525fd92fd5b 0 2 rebuildable",
        "d525fd92fd5b d525fd92fd5b d525fd92fd5b 0 2 rebuildable",
        "0c2a35a92898 0c2a35a92898 0c2a35a92898 0 2 inconsistent",
    ),
    "gts_chkp_zeon": (
        "3260a4a08569 3d32e5424a9e 9f6c2089c854",
        "CodecError ValueError b406b04db8b6 1 0 ok",
        "CodecError ValueError b406b04db8b6 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError b406b04db8b6 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "3260a4a08569 3260a4a08569 3260a4a08569 0 2 rebuildable",
        "3260a4a08569 3260a4a08569 3260a4a08569 0 2 rebuildable",
        "f170f00bdf8a f170f00bdf8a f170f00bdf8a 0 2 inconsistent",
    ),
    "gts_chkp_zion": (
        "67d4e7034716 20c5b60a4251 b87aaad7d75a",
        "CodecError ValueError ecfb56f7705b 1 0 ok",
        "CodecError ValueError ecfb56f7705b 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError ecfb56f7705b 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "67d4e7034716 67d4e7034716 67d4e7034716 0 2 rebuildable",
        "67d4e7034716 67d4e7034716 67d4e7034716 0 2 rebuildable",
        "d927b8d3f86d d927b8d3f86d d927b8d3f86d 0 2 inconsistent",
    ),
    "xgc_igid": (
        "ae2a9589e1ab 7265b61f1a85 ef1e63c9ade1",
        "CodecError ValueError 465470789a81 1 0 ok",
        "CodecError ValueError 465470789a81 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 465470789a81 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ae2a9589e1ab ae2a9589e1ab ae2a9589e1ab 0 2 rebuildable",
        "ae2a9589e1ab ae2a9589e1ab ae2a9589e1ab 0 2 rebuildable",
        "0e6a76ae6ba4 0e6a76ae6ba4 0e6a76ae6ba4 0 2 inconsistent",
    ),
    "xgc_iphase": (
        "6b43180c0d02 9b5a1c9ac088 ee9e9583ce82",
        "CodecError ValueError 74be9baf3dd1 1 0 ok",
        "CodecError ValueError 74be9baf3dd1 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 74be9baf3dd1 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "6b43180c0d02 6b43180c0d02 6b43180c0d02 0 2 rebuildable",
        "6b43180c0d02 6b43180c0d02 6b43180c0d02 0 2 rebuildable",
        "76bde572791c 76bde572791c 76bde572791c 0 2 inconsistent",
    ),
    "s3d_temp": (
        "0f3c2fd84b31 25f81534a99c 560fa715f4dd",
        "CodecError ValueError fb8835cbb2c6 1 0 ok",
        "CodecError ValueError fb8835cbb2c6 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError fb8835cbb2c6 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "0f3c2fd84b31 0f3c2fd84b31 0f3c2fd84b31 0 2 rebuildable",
        "0f3c2fd84b31 0f3c2fd84b31 0f3c2fd84b31 0 2 rebuildable",
        "2e474941b68d 2e474941b68d 2e474941b68d 0 2 inconsistent",
    ),
    "s3d_vmag": (
        "c1e38bfa4434 d642d4a9c544 9ea52467ed2c",
        "CodecError ValueError c487b46b6def 1 0 ok",
        "CodecError ValueError c487b46b6def 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError c487b46b6def 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "c1e38bfa4434 c1e38bfa4434 c1e38bfa4434 0 2 rebuildable",
        "c1e38bfa4434 c1e38bfa4434 c1e38bfa4434 0 2 rebuildable",
        "114fc348c875 114fc348c875 114fc348c875 0 2 inconsistent",
    ),
    "flash_velx": (
        "b4ca873deb25 cf6c02442aae 6a255053bbf3",
        "CodecError ValueError 19340f9a9efa 1 0 ok",
        "CodecError ValueError 19340f9a9efa 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 19340f9a9efa 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "b4ca873deb25 b4ca873deb25 b4ca873deb25 0 2 rebuildable",
        "b4ca873deb25 b4ca873deb25 b4ca873deb25 0 2 rebuildable",
        "eb26aca0682f eb26aca0682f eb26aca0682f 0 2 inconsistent",
    ),
    "flash_vely": (
        "45a7c9c8b456 05d1cc817448 89b5adf3209a",
        "CodecError ValueError 6e761c73a508 1 0 ok",
        "CodecError ValueError 6e761c73a508 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 6e761c73a508 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "45a7c9c8b456 45a7c9c8b456 45a7c9c8b456 0 2 rebuildable",
        "45a7c9c8b456 45a7c9c8b456 45a7c9c8b456 0 2 rebuildable",
        "ab4a5e8254ed ab4a5e8254ed ab4a5e8254ed 0 2 inconsistent",
    ),
    "flash_gamc": (
        "9869b49cb63e 25bdd60a6250 a2985f677927",
        "CodecError ValueError 1fabc06c79cb 1 0 ok",
        "CodecError ValueError 1fabc06c79cb 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 1fabc06c79cb 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "9869b49cb63e 9869b49cb63e 9869b49cb63e 0 2 rebuildable",
        "9869b49cb63e 9869b49cb63e 9869b49cb63e 0 2 rebuildable",
        "3ca47b63f67f 3ca47b63f67f 3ca47b63f67f 0 2 inconsistent",
    ),
    "msg_bt": (
        "56f228d8d8ab 20efb409b204 6042dfc42a1a",
        "CodecError ValueError 43daf1f52bd4 1 0 ok",
        "CodecError ValueError 43daf1f52bd4 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 43daf1f52bd4 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "56f228d8d8ab 56f228d8d8ab 56f228d8d8ab 0 2 rebuildable",
        "56f228d8d8ab 56f228d8d8ab 56f228d8d8ab 0 2 rebuildable",
        "255c2aa96ade 255c2aa96ade 255c2aa96ade 0 2 inconsistent",
    ),
    "msg_lu": (
        "3260a4a08569 3d32e5424a9e 9f6c2089c854",
        "CodecError ValueError b406b04db8b6 1 0 ok",
        "CodecError ValueError b406b04db8b6 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError b406b04db8b6 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "3260a4a08569 3260a4a08569 3260a4a08569 0 2 rebuildable",
        "3260a4a08569 3260a4a08569 3260a4a08569 0 2 rebuildable",
        "f170f00bdf8a f170f00bdf8a f170f00bdf8a 0 2 inconsistent",
    ),
    "msg_sp": (
        "b1770f0308ca 54e65667d8ac d359850848a3",
        "CodecError ValueError 6814794192eb 1 0 ok",
        "CodecError ValueError 6814794192eb 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 6814794192eb 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "b1770f0308ca b1770f0308ca b1770f0308ca 0 2 rebuildable",
        "b1770f0308ca b1770f0308ca b1770f0308ca 0 2 rebuildable",
        "78d5f92ce50b 78d5f92ce50b 78d5f92ce50b 0 2 inconsistent",
    ),
    "msg_sppm": (
        "4ec720f1ef92 58c3d0bb5ab0 b1c98bc26c20",
        "CodecError ValueError b1394f6f6639 1 0 ok",
        "CodecError ValueError b1394f6f6639 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError b1394f6f6639 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "4ec720f1ef92 4ec720f1ef92 4ec720f1ef92 0 2 rebuildable",
        "4ec720f1ef92 4ec720f1ef92 4ec720f1ef92 0 2 rebuildable",
        "c0ed09642a64 c0ed09642a64 c0ed09642a64 0 2 inconsistent",
    ),
    "msg_sweep3d": (
        "30b06da928ad 0b4dc122f8b4 e04db797b644",
        "CodecError ValueError ed9f1a02c3bb 1 0 ok",
        "CodecError ValueError ed9f1a02c3bb 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError ed9f1a02c3bb 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "30b06da928ad 30b06da928ad 30b06da928ad 0 2 rebuildable",
        "30b06da928ad 30b06da928ad 30b06da928ad 0 2 rebuildable",
        "bf43688e7248 bf43688e7248 bf43688e7248 0 2 inconsistent",
    ),
    "num_brain": (
        "673cf3318bc8 1de1d9f40b24 ce7e80fce433",
        "CodecError ValueError 0d58ff07a94c 1 0 ok",
        "CodecError ValueError 0d58ff07a94c 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 0d58ff07a94c 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "673cf3318bc8 673cf3318bc8 673cf3318bc8 0 2 rebuildable",
        "673cf3318bc8 673cf3318bc8 673cf3318bc8 0 2 rebuildable",
        "0e410c5d496a 0e410c5d496a 0e410c5d496a 0 2 inconsistent",
    ),
    "num_comet": (
        "8af69ed4ed9a 25af04da208b 0bcdc03e0d3b",
        "CodecError ValueError fe8e3ed37ae9 1 0 ok",
        "CodecError ValueError fe8e3ed37ae9 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError fe8e3ed37ae9 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "8af69ed4ed9a 8af69ed4ed9a 8af69ed4ed9a 0 2 rebuildable",
        "8af69ed4ed9a 8af69ed4ed9a 8af69ed4ed9a 0 2 rebuildable",
        "7da014220af7 7da014220af7 7da014220af7 0 2 inconsistent",
    ),
    "num_control": (
        "358819dbebf7 a7c65483b502 84063e7178e5",
        "CodecError ValueError 2750ef6d8f32 1 0 ok",
        "CodecError ValueError 2750ef6d8f32 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 2750ef6d8f32 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "358819dbebf7 358819dbebf7 358819dbebf7 0 2 rebuildable",
        "358819dbebf7 358819dbebf7 358819dbebf7 0 2 rebuildable",
        "d05848c0c2cc d05848c0c2cc d05848c0c2cc 0 2 inconsistent",
    ),
    "num_plasma": (
        "3e735be8faa7 9e797765b3ae a19b72800a79",
        "CodecError ValueError 5c118437ecbc 1 0 ok",
        "CodecError ValueError 5c118437ecbc 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 5c118437ecbc 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "3e735be8faa7 3e735be8faa7 3e735be8faa7 0 2 rebuildable",
        "3e735be8faa7 3e735be8faa7 3e735be8faa7 0 2 rebuildable",
        "083053cdce74 083053cdce74 083053cdce74 0 2 inconsistent",
    ),
    "obs_error": (
        "30c8a88c0aa4 0e76c85de56e cbd65ac378a4",
        "CodecError ValueError cbe793b03097 1 0 ok",
        "CodecError ValueError cbe793b03097 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError cbe793b03097 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "30c8a88c0aa4 30c8a88c0aa4 30c8a88c0aa4 0 2 rebuildable",
        "30c8a88c0aa4 30c8a88c0aa4 30c8a88c0aa4 0 2 rebuildable",
        "8d26fe370f41 8d26fe370f41 8d26fe370f41 0 2 inconsistent",
    ),
    "obs_info": (
        "13d914faa36d 3fdd9e081411 c1bfa10b90b5",
        "CodecError ValueError 9e46a1ab12fa 1 0 ok",
        "CodecError ValueError 9e46a1ab12fa 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 9e46a1ab12fa 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "13d914faa36d 13d914faa36d 13d914faa36d 0 2 rebuildable",
        "13d914faa36d 13d914faa36d 13d914faa36d 0 2 rebuildable",
        "59049c1de141 59049c1de141 59049c1de141 0 2 inconsistent",
    ),
    "obs_spitzer": (
        "1c3a36916635 bf3b7e183177 3aceb98b46c2",
        "CodecError ValueError cfd4c4b33748 1 0 ok",
        "CodecError ValueError cfd4c4b33748 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError cfd4c4b33748 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "1c3a36916635 1c3a36916635 1c3a36916635 0 2 rebuildable",
        "1c3a36916635 1c3a36916635 1c3a36916635 0 2 rebuildable",
        "39b451df2940 39b451df2940 39b451df2940 0 2 inconsistent",
    ),
    "obs_temp": (
        "87f52647c408 f4c7b7f10d12 aee7f961b6f3",
        "CodecError ValueError 2c70c7aec0c8 1 0 ok",
        "CodecError ValueError 2c70c7aec0c8 1 0 ok",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 inconsistent",
        "ContainerFormatError ValueError 2c70c7aec0c8 1 1 inconsistent",
        "ContainerFormatError ContainerFormatError ContainerFormatError 1 1 absent",
        "TruncatedContainerError TruncatedContainerError TruncatedContainerError 1 1 rebuildable",
        "87f52647c408 87f52647c408 87f52647c408 0 2 rebuildable",
        "87f52647c408 87f52647c408 87f52647c408 0 2 rebuildable",
        "79b888640770 79b888640770 79b888640770 0 2 inconsistent",
    ),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:12]


def _outcome(read) -> str:
    try:
        values = read()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc).__name__
    return _digest(values)


def _exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _healthy(reader) -> str:
    return " ".join((
        _digest(reader.read_all()),
        _digest(*(reader.read_range(a, b) for a, b in RANGES)),
        _digest(*(np.asarray(reader.element(i)) for i in ELEMENTS)),
    ))


def _read_all(source, errors: str) -> np.ndarray:
    with ContainerFile(source, errors=errors) as reader:
        return reader.read_all()


@pytest.fixture(scope="module", params=dataset_names())
def case(request):
    name = request.param
    values = generate_dataset(name, n_elements=20_000, seed=3)
    return name, IsobarCompressor(CONFIG).compress(values), PARENT[name]


def test_table_covers_the_registry():
    assert sorted(PARENT) == sorted(dataset_names())
    assert all(len(row) == 1 + len(FAULT_TYPES) for row in PARENT.values())


def test_healthy_reads_match_parent(case, tmp_path):
    _, blob, row = case
    path = tmp_path / "c.isobar"
    path.write_bytes(blob)
    with ContainerFile(path) as on_disk:
        assert _healthy(on_disk) == row[0]
    assert _healthy(ContainerFile(blob)) == row[0]
    assert _healthy(ContainerReader(blob)) == row[0]


@pytest.mark.parametrize("fault", FAULT_TYPES)
def test_damaged_reads_match_parent(case, fault, tmp_path):
    _, blob, row = case
    damaged = inject(blob, fault, 0).data
    path = tmp_path / "d.isobar"
    path.write_bytes(damaged)
    expected = row[1 + FAULT_TYPES.index(fault)].split()[:3]
    if expected[1] == "ValueError":
        with ContainerFile(damaged, errors="salvage-skip") as reader:
            expected[1] = _digest(reader.read_range(0, reader.n_elements))
    for source in (path, damaged):
        assert [_outcome(lambda: _read_all(source, e)) for e in POLICIES] \
            == expected, type(source).__name__


@pytest.mark.parametrize("fault", FAULT_TYPES)
def test_checkers_match_parent(case, fault, tmp_path):
    name, blob, row = case
    damaged = inject(blob, fault, 0).data
    path = tmp_path / "d.isobar"
    path.write_bytes(damaged)
    verify, fsck_code, status = row[1 + FAULT_TYPES.index(fault)].split()[3:]
    if (name, fault) in FSCK_NOW_FINDS_CRC_DAMAGE:
        assert fsck_code == "0"
        fsck_code = "1"
    report = fsck(damaged)
    assert (
        _exit_code(["verify", str(path)]),
        _exit_code(["fsck", str(path)]),
        report.footer_status,
    ) == (int(verify), int(fsck_code), status)
    assert fsck(path).footer_status == status
    if (name, fault) in FSCK_NOW_FINDS_CRC_DAMAGE:
        assert [issue.kind for issue in report.issues] == ["payload"]
