"""Every golden CLI case reproduces its committed digests.

A mismatch means a command's exit code, stdout or written files changed.
If the change is intended, rerun ``tests/golden/regen.py`` and list each
moved digest with the change; see that script's docstring.
"""

import json

import pytest

from golden.regen import CASES, MANIFEST, run_case

with open(MANIFEST, encoding="utf-8") as _fh:
    _DIGESTS = json.load(_fh)


def test_manifest_covers_every_case():
    assert sorted(_DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_case_matches_its_golden_digests(name, tmp_path):
    assert run_case(name, str(tmp_path)) == _DIGESTS[name]
