"""Regenerate tests/golden_corpus.json, the byte-identity corpus of the CLI.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden_corpus.py           # rewrite it
    PYTHONPATH=src python tests/make_golden_corpus.py --check   # compare only

Each of README's example and acceptance-table commands runs under every
precision (the command's default, exact, machine and bits:64) and every
format (the command's default, csv and json), and each ``PINNED`` command
runs once as given, all in this process through ``abelsweep.cli.main``.
An entry records the argv, the exit code and the SHA-256 of stdout and of
stderr. ``tests/test_golden_corpus.py`` replays
the corpus; a change that moves bytes regenerates it and lists the moved
entries in CHANGES.md. The script prints to stderr the argv of every entry
that moved, appeared or vanished relative to the corpus it overwrites.
With ``--check`` it recomputes every entry the same way, prints the same
lines, writes nothing and exits 1 if any entry differs, so a change that
must move no byte can show that it moves none, ``DROPPED`` entries included.

Entries slower than 0.5 s are listed in ``DROPPED`` with the time one run
took when the list was made (2-core host, Python 3.11, mpmath's pure-Python
backend). The corpus records them too, but the replay skips them so that it
stays a few seconds long: regenerating the corpus is their byte check. An
entry whose time disagrees with the list (slow and unlisted, or listed and
fast) is reported on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import time

from abelsweep.cli import main as cli_main

CORPUS = pathlib.Path(__file__).with_name("golden_corpus.json")
SLOW_S = 0.5

#: README's example and acceptance-table commands, without their --precision
COMMANDS = (
    "matrix --b 2 --s 1 --N 4",
    "matrix --b 2 --s 1 --N 3 --system",
    "solve --b 2 --s 1 --N 8",
    "sweep --b 2 --s 1 --Ns 1:32",
    "affine --b 2 --s 1 --n 2 --method all",
    "affine --b 2 --s 1 --n 16 --method all",
    "logapprox --b 1/2 --n 100,400 --xs 0.1,0.25,0.5,0.75,0.9",
    "logapprox --b 1/3 --n 100,400 --xs 0.1,0.25,0.5,0.75,0.9",
    "logapprox --b 0.9 --n 100,400 --xs 0.1,0.25,0.5,0.75,0.9",
    "logapprox --b 1/2 --n 20 --xs 1/2,1/4,1/8,1/16,1/32",
    "invariance --b 1/2 --s1 1 --s2 2 --n 200 --xs 0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
    "invariance --b 1/2 --s1 1 --s2 2 --n 200"
    " --xs 0.2,0.27,0.35,0.43,0.51,0.59,0.66,0.74,0.82,0.9",
    "iterate --b 2 --s 1 --t 1/2 --z 1",
    "iterate --b 1/2 --s 1 --n 200 --bracket -0.95:0.95 --t 1 --z 0.3",
    "solve --b 1 --s 1 --N 3",
    "solve --b 2 --s 0 --N 3",
    "explore-exp --N-max 24",
    "explore-bgt1 --b 2 --n 200",
)
#: commands run once as given: exact-mode outputs whose bytes no change may
#: move, and bigfloat sweeps with stabilized verdicts (limit and last_delta)
PINNED = (
    "matrix --b 2 --s 1 --N 4 --precision exact",
    "sweep --b 2 --s 1 --Ns 1:16 --precision exact",
    "affine --b 2 --s 1 --n 16 --method all",
    "affine --b 1/3 --s -1 --n 24 --method all --precision exact",
    "logapprox --b 1/2 --n 20 --xs 1/2,1/4,1/8,1/16,1/32 --precision exact",
    "explore-exp --N-max 12 --precision exact",
    "affine --b 1/3 --s 1 --n 60 --method recurrence --precision exact",
    "explore-exp --N-max 12 --s 1/3",
    "explore-exp --N-max 16 --tol-abs 1e-3 --tol-rel 0",
    "sweep --b 9/10 --s 1 --Ns 1:20 --tol-abs 1e-2 --tol-rel 0 --precision bits:256",
    "explore-exp --N-max 32 --precision exact",
    "sweep --b 3/2 --s 1/3 --Ns 1:32 --precision exact",
    "explore-exp --N-max 32 --s -3/8",
    "explore-exp --N-max 36 --s 1/3 --precision machine",
)
PRECISIONS = ("", "--precision exact", "--precision machine", "--precision bits:64")
FORMATS = ("", "--format csv", "--format json")

#: entries over SLOW_S, with the seconds one run took; the replay skips them
DROPPED: dict[str, float] = {
    "logapprox --b 0.9 --n 100,400 --xs 0.1,0.25,0.5,0.75,0.9 --precision exact": 0.79,
    "logapprox --b 0.9 --n 100,400 --xs 0.1,0.25,0.5,0.75,0.9 --precision exact --format csv": 0.79,
    "logapprox --b 0.9 --n 100,400 --xs 0.1,0.25,0.5,0.75,0.9 --precision exact --format json": 0.80,
}


def candidates() -> list[str]:
    crossed = [
        " ".join(part for part in (command, precision, fmt) if part)
        for command in COMMANDS
        for precision in PRECISIONS
        for fmt in FORMATS
    ]
    return crossed + [argv for argv in PINNED if argv not in crossed]


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


def regenerate() -> list[dict]:
    """Every candidate's entry, with a line on stderr for each disagreement with DROPPED."""
    entries = []
    for argv in candidates():
        start = time.perf_counter()
        entries.append(run(argv))
        seconds = time.perf_counter() - start
        if (seconds > SLOW_S) != (argv in DROPPED):
            verb = "remove from" if argv in DROPPED else "add to"
            print(f"{seconds:.2f} s, {verb} DROPPED: {argv!r}", file=sys.stderr)
    return entries


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
    parser = argparse.ArgumentParser(description="Regenerate or check tests/golden_corpus.json.")
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the corpus instead of writing it; exit 1 if any entry differs",
    )
    args = parser.parse_args(argv)
    entries = regenerate()
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []
    lines = differences(old, entries)
    for line in lines:
        print(line, file=sys.stderr)
    if args.check:
        print(f"checked {len(entries)} entries against {CORPUS}: {len(lines)} differ", file=sys.stderr)
        return 1 if lines else 0
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
