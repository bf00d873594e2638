"""Replay the golden corpus: every entry's exit code and output bytes must hold.

The corpus is written by ``tests/make_golden_corpus.py``; a change that moves
bytes regenerates it and lists the moved entries in CHANGES.md. The script's
``DROPPED`` commands are not replayed here; regenerating the corpus checks them.
"""

import json

import pytest
from make_golden_corpus import CORPUS, DROPPED, run

ENTRIES = [e for e in json.loads(CORPUS.read_text(encoding="utf-8")) if e["argv"] not in DROPPED]


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["argv"] for e in ENTRIES])
def test_entry_replays_byte_identical(entry):
    assert run(entry["argv"]) == entry
