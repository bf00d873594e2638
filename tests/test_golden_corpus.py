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


def test_check_reports_every_difference_and_writes_nothing(tmp_path, monkeypatch, capsys):
    import make_golden_corpus

    argvs = ["matrix --b 2 --s 1 --N 3", "solve --b 2 --s 1 --N 4"]
    monkeypatch.setattr(make_golden_corpus, "candidates", lambda: argvs)
    corpus = tmp_path / "golden_corpus.json"
    monkeypatch.setattr(make_golden_corpus, "CORPUS", corpus)
    good = [run(argv) for argv in argvs]

    corpus.write_text(json.dumps(good), encoding="utf-8")
    assert make_golden_corpus.main(["--check"]) == 0

    stale = [dict(good[0], stdout_sha256="0" * 64), run("solve --b 2 --s 1 --N 2")]
    text = json.dumps(stale)
    corpus.write_text(text, encoding="utf-8")
    assert make_golden_corpus.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert f"moved: {argvs[0]}" in err
    assert f"appeared: {argvs[1]}" in err
    assert "vanished: solve --b 2 --s 1 --N 2" in err
    assert corpus.read_text(encoding="utf-8") == text
