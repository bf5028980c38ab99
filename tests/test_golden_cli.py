"""Byte-for-byte guard on the CLI's stdout.

tests/data/readme_cli_golden.json holds the stdout of every `practicum ...`
line in the README's CLI block; tests/data/cli_golden_extra.json holds more
invocations: the csv and plain formats of every command but `sieve` (whose
path output is absolute), negative verdicts, every m_q witness shape and
every linear-progression case.  Both were captured with a fresh working
directory and cache directory.  Refactors must leave each of them unchanged.
"""

import json
import shlex
from pathlib import Path

import pytest

from practicum.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "readme_cli_golden.json").read_text())
EXTRA = json.loads((DATA / "cli_golden_extra.json").read_text())


def readme_examples() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    out = []
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("practicum "):
            out.append(shlex.split(line)[1:])
    return out


def test_corpus_covers_every_readme_example():
    assert [entry["argv"] for entry in CORPUS] == readme_examples()
    assert len(CORPUS) == 17


@pytest.mark.parametrize("entry", CORPUS, ids=["-".join(e["argv"]) for e in CORPUS])
def test_readme_example_stdout_is_byte_identical(entry, tmp_path, monkeypatch, capsys):
    _assert_stdout(entry, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("entry", EXTRA, ids=["-".join(e["argv"]) for e in EXTRA])
def test_extra_stdout_is_byte_identical(entry, tmp_path, monkeypatch, capsys):
    _assert_stdout(entry, tmp_path, monkeypatch, capsys)


def _assert_stdout(entry, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path / "cache"))
    assert main(entry["argv"]) == 0
    assert capsys.readouterr().out == entry["stdout"]
