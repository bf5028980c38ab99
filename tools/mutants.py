"""Replayable mutation checks: does each catalogued mutant still fail its tests?

    python3 tools/mutants.py [ID ...]

Each entry of the JSON catalogue tools/mutants.json names a file under src/
or tests/, a snippet that occurs in it exactly once, the snippet's
replacement, the test node ids expected to fail, and the parent commit of
the change that added the entry ("base").  An entry may also carry
"survives", the reason a known survivor passes its tests (the tests it
names are then the ones it passes).

The entries' tests first run once on an unmutated copy of src/, tests/ and
pyproject.toml in a temporary directory; unless they all pass, the tool
stops.  Then, for each mutant, a fresh copy gets the snippet replaced and
only the entry's tests run, under a timeout (TIMEOUT, 300 s).  The tool
prints one line per mutant: caught (a test failed, collection broke, or the
run hung past the timeout), survived (every test passed), stale (the snippet
does not occur exactly once) or error (any other pytest exit code, such as
an unknown test id).  A known survivor that survives prints as "known"; one
that is caught prints as caught, with a note to drop its "survives".  The
tool exits 1 unless each mutant is caught or, if a known survivor, survives.
Standard library only; pytest must be importable by the running Python.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutants.json"
KEYS = {"id", "file", "snippet", "replacement", "tests", "base"}
TIMEOUT = 300  # seconds before a mutant's tests count as hung
# pytest's exit codes: every test passed, a test failed, collection broke
OUTCOMES = {0: "survived", 1: "caught", 2: "caught"}


def load() -> list[dict]:
    entries = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    for entry in entries:
        missing = KEYS - set(entry)
        if missing:
            raise SystemExit(f"error: entry {entry.get('id')!r} lacks {sorted(missing)}")
    return entries


def mutate(source: str, entry: dict) -> str | None:
    """source with the entry's snippet replaced, or None when the snippet
    does not occur there exactly once."""
    if source.count(entry["snippet"]) != 1:
        return None
    return source.replace(entry["snippet"], entry["replacement"])


def run(tests: list[str], entry: dict | None = None) -> tuple[str, float]:
    """The outcome of the tests in a fresh copy of the tree, with the entry's
    mutant applied when one is given, and the seconds they ran."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        if entry is not None:
            target = tree / entry["file"]
            mutated = mutate(target.read_text(encoding="utf-8"), entry)
            if mutated is None:
                return "stale", 0.0
            target.write_text(mutated, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "caught", time.perf_counter() - start  # a hang counts as caught
        outcome = OUTCOMES.get(proc.returncode, f"error (pytest exit {proc.returncode})")
        return outcome, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    entries = load()
    unknown = set(args.ids) - {entry["id"] for entry in entries}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    entries = [entry for entry in entries if not args.ids or entry["id"] in args.ids]
    tests = sorted({node for entry in entries for node in entry["tests"]})
    outcome, seconds = run(tests)
    if outcome != "survived":
        print(f"error     the tests fail without a mutant: {outcome}  {seconds:.1f} s")
        return 1
    bad = 0
    for entry in entries:
        outcome, seconds = run(entry["tests"], entry)
        known, note = "survives" in entry, ""
        if known and outcome == "survived":
            outcome, note = "known", f"  ({entry['survives']})"
        elif known and outcome == "caught":
            note = '  (a known survivor is caught: drop its "survives")'
        bad += outcome != ("known" if known else "caught")
        print(f"{outcome:9} {entry['id']}  {seconds:.1f} s{note}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
