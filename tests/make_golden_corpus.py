"""Regenerate tests/golden_corpus.json, the byte-identity corpus of the CLI.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden_corpus.py

README is the one list of the commands the corpus crosses: every line of
its example block and every command in its acceptance table, without its
``--precision`` and ``--format``, runs under every precision (the command's
default, exact, machine and bits:64) and every format (the command's
default, csv and json); then each ``PINNED`` command runs once as given. A
command met twice runs once, at its first place. Every run is in this
process, through ``abelsweep.cli.main``. An entry records the argv, the
exit code and the SHA-256 of stdout and of stderr.
``tests/test_golden_corpus.py`` replays every entry; a change that moves
bytes regenerates the corpus and lists the moved entries in CHANGES.md.
The script prints to stderr the argv of every entry that moved, appeared
or vanished relative to the corpus it overwrites.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import re
import sys

from abelsweep.cli import main as cli_main

CORPUS = pathlib.Path(__file__).with_name("golden_corpus.json")
README = pathlib.Path(__file__).parents[1] / "README.md"

#: commands run once as given: exact-mode outputs whose bytes no change may
#: move, bigfloat sweeps with stabilized verdicts (limit and last_delta), and
#: iterates at b > 1, at s < 0 and at a point whose fixed-point scale exceeds
#: the bracket's, and float P_n tables whose points need several fixed-point
#: scales in one degree (b > 1, two degrees, s2/s1 not a power of b)
PINNED = (
    "sweep --b 2 --s 1 --Ns 1:16 --precision exact",
    "affine --b 1/3 --s -1 --n 24 --method all --precision exact",
    "explore-exp --N-max 12 --precision exact",
    "affine --b 1/3 --s 1 --n 60 --method recurrence --precision exact",
    "explore-exp --N-max 12 --s 1/3",
    "explore-exp --N-max 16 --tol-abs 1e-3 --tol-rel 0",
    "sweep --b 9/10 --s 1 --Ns 1:20 --tol-abs 1e-2 --tol-rel 0 --precision bits:256",
    "explore-exp --N-max 32 --precision exact",
    "sweep --b 3/2 --s 1/3 --Ns 1:32 --precision exact",
    "explore-exp --N-max 32 --s -3/8",
    "explore-exp --N-max 36 --s 1/3 --precision machine",
    "iterate --b 2 --s 1 --n 60 --t 1/2 --z 0.3 --bracket=-0.9:0.9",
    "iterate --b 1/3 --s -1 --n 80 --t 1 --z 0.3 --bracket=-0.9:0.9 --precision machine",
    "iterate --b 1/2 --s 1 --n 200 --t 1 --z 0.98 --bracket=-0.95:0.95",
    "logapprox --b 3/2 --n 120 --xs 0.1,0.5,1.5,2.5",
    "logapprox --b 1/3 --n 40,300 --xs 0.05,1.9 --precision bits:64",
    "invariance --b 1/2 --s1 1 --s2 3 --n 200 --xs 0.2,0.5,0.9,1.7",
    "invariance --b 2 --s1 -1/3 --s2 5/2 --n 60 --xs 0.2,0.5,0.9,4 --precision machine",
)
PRECISIONS = ("", "--precision exact", "--precision machine", "--precision bits:64")
FORMATS = ("", "--format csv", "--format json")


def readme_commands() -> list[str]:
    """The argv of every command in README's example block and acceptance table, in order.

    A command keeps its other options but loses ``--precision`` and
    ``--format`` with their values.
    """
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```\n(abelsweep .*?)^```$", text, re.M | re.S)
    _, heading, table = text.partition("## Reproducing the acceptance tables")
    if block is None or not heading:
        sys.exit(f"error: {README} has no abelsweep example block or no acceptance table")
    commands = re.findall(r"^abelsweep ([^#\n]*)", block.group(1), re.M)
    commands += re.findall(r"`abelsweep ([^`]*)`", table)
    return [" ".join(re.sub(r"--(precision|format) \S+", "", c).split()) for c in commands]


def candidates() -> list[str]:
    crossed = [
        " ".join(part for part in (command, precision, fmt) if part)
        for command in readme_commands()
        for precision in PRECISIONS
        for fmt in FORMATS
    ]
    return list(dict.fromkeys(crossed + list(PINNED)))


def run(argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv.split())
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def differences(old: list[dict], new: list[dict]) -> list[str]:
    """One "moved:", "appeared:" or "vanished:" line per argv whose entry differs."""
    old, new = {e["argv"]: e for e in old}, {e["argv"]: e for e in new}
    lines = []
    for argv in list(new) + [argv for argv in old if argv not in new]:
        if argv not in old:
            lines.append(f"appeared: {argv}")
        elif argv not in new:
            lines.append(f"vanished: {argv}")
        elif old[argv] != new[argv]:
            lines.append(f"moved: {argv}")
    return lines


def main(argv=None) -> int:
    argparse.ArgumentParser(description="Regenerate tests/golden_corpus.json.").parse_args(argv)
    entries = [run(command) for command in candidates()]
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []
    lines = differences(old, entries)
    for line in lines:
        print(line, file=sys.stderr)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
