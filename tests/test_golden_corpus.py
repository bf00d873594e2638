"""Replay the golden corpus: every entry's exit code and output bytes must hold.

The corpus is written by ``tests/make_golden_corpus.py``; a change that moves
bytes regenerates it and lists the moved entries in CHANGES.md.
"""

import json

import make_golden_corpus
import pytest
from make_golden_corpus import CORPUS, candidates, run

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["argv"] for e in ENTRIES])
def test_entry_replays_byte_identical(entry):
    assert run(entry["argv"]) == entry


def test_corpus_lists_every_candidate_in_order():
    assert [e["argv"] for e in ENTRIES] == candidates()


def test_a_readme_without_its_commands_ends_with_one_error_line(tmp_path, monkeypatch):
    readme = tmp_path / "README.md"
    readme.write_text("# abelsweep\n\n## Reproducing the acceptance tables\n", encoding="utf-8")
    monkeypatch.setattr(make_golden_corpus, "README", readme)
    with pytest.raises(SystemExit) as exit_info:
        make_golden_corpus.main([])
    assert exit_info.value.code == f"error: {readme} has no abelsweep example block or no acceptance table"


def test_regeneration_reports_every_difference_and_writes_the_corpus(tmp_path, monkeypatch, capsys):
    argvs = ["matrix --b 2 --s 1 --N 3", "solve --b 2 --s 1 --N 4"]
    monkeypatch.setattr(make_golden_corpus, "candidates", lambda: argvs)
    corpus = tmp_path / "golden_corpus.json"
    monkeypatch.setattr(make_golden_corpus, "CORPUS", corpus)
    good = [run(argv) for argv in argvs]
    stale = [dict(good[0], stdout_sha256="0" * 64), run("solve --b 2 --s 1 --N 2")]
    corpus.write_text(json.dumps(stale), encoding="utf-8")

    assert make_golden_corpus.main([]) == 0
    err = capsys.readouterr().err
    assert f"moved: {argvs[0]}" in err
    assert f"appeared: {argvs[1]}" in err
    assert "vanished: solve --b 2 --s 1 --N 2" in err
    assert json.loads(corpus.read_text(encoding="utf-8")) == good

    assert make_golden_corpus.main([]) == 0
    assert "moved:" not in capsys.readouterr().err
