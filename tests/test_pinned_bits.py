"""Every file of the pinned CLI runs has the bits recorded in `tests/pinned_bits.json`.

A change that is meant to move output bits re-records the table
(`python tests/pinned_bits.py`) and names each moved file, and why.
"""

import json

import pytest

import pinned_bits


def test_output_files_match_the_pinned_table(tmp_path):
    table = json.loads(pinned_bits.TABLE.read_text(encoding="utf-8"))
    reason = pinned_bits.unsupported(table["versions"])
    if reason:
        pytest.skip(reason)
    pinned, written = table["files"], pinned_bits.hashes(tmp_path)
    moved = sorted(name for name in pinned.keys() | written.keys() if pinned.get(name) != written.get(name))
    assert not moved, f"{len(moved)} of {len(pinned)} pinned files moved: {', '.join(moved)}"
