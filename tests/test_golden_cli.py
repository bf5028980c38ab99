"""Byte-for-byte guard on the CLI's stdout.

tests/data/readme_cli_golden.json holds the stdout of every `practicum ...`
line in the README's CLI block; tests/data/cli_golden_extra.json holds more
invocations: the csv and plain formats of every command but `sieve` (whose
path output is absolute), negative verdicts, every m_q witness shape and
every linear-progression case.  Both were captured with a fresh working
directory and cache directory.  Refactors must leave each of them unchanged.
"""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
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


# Commands that build no bitmap, and so must run without numpy.
NO_BITMAP = {
    ("test",), ("oracle",), ("ap", "classify"), ("ap", "stream"), ("ap", "witness"),
    ("poly", "witness"), ("quad", "mq"), ("quad", "classify"), ("quad", "stream"),
    ("quad", "witness"), ("decompose",), ("family",), ("palindromic",),
}


def _command(argv: list[str]) -> tuple[str, ...]:
    """The (sub)command of an invocation; every global flag takes a value."""
    i = 0
    while argv[i].startswith("--"):
        i += 2
    return tuple(argv[i:i + 2]) if argv[i] in ("ap", "poly", "quad") else (argv[i],)


def test_bitmap_free_commands_run_without_numpy(tmp_path):
    entries = [e for e in CORPUS + EXTRA if _command(e["argv"]) in NO_BITMAP]
    assert {_command(e["argv"]) for e in entries} == NO_BITMAP
    _assert_stdout_without_numpy(entries, tmp_path)
    assert not (tmp_path / "cache").exists()


def _other_pythons() -> list[str]:
    """One interpreter per minor version 3.N, N >= 10, other than the running
    one's: a ~/.pyenv/versions/3.N.*/bin/python3, else python3.N on PATH,
    each kept only if it starts and reports that version."""
    candidates: dict[int, list[str]] = {}
    for exe in sorted(Path.home().glob(".pyenv/versions/3.*/bin/python3"), reverse=True):
        minor = re.fullmatch(r"3\.(\d+)\..*", exe.parent.parent.name)
        if minor:
            candidates.setdefault(int(minor[1]), []).append(str(exe))
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        for exe in Path(folder or ".").glob("python3.*"):
            minor = re.fullmatch(r"python3\.(\d+)", exe.name)
            if minor:
                candidates.setdefault(int(minor[1]), []).append(str(exe))
    found = []
    for minor, exes in sorted(candidates.items()):
        if minor < 10 or minor == sys.version_info.minor:
            continue
        for exe in exes:
            try:
                proc = subprocess.run([exe, "-c", "import sys; print(sys.version_info[1])"],
                                      capture_output=True, text=True, timeout=60)
            except OSError:
                continue
            if proc.returncode == 0 and proc.stdout.strip() == str(minor):
                found.append(exe)
                break
    return found


def test_numpy_free_entries_are_byte_identical_under_every_other_python(tmp_path):
    # the README promises Python >= 3.10; every other 3.N found replays the
    # numpy-free entries of both corpora
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other python3.N with N >= 10 found")
    entries = [e for e in CORPUS + EXTRA if _command(e["argv"]) in NO_BITMAP]
    for python in pythons:
        _assert_stdout_without_numpy(entries, tmp_path, python)
    assert not (tmp_path / "cache").exists()


def test_bitmap_commands_read_the_cache_without_numpy(tmp_path):
    # a process with numpy builds a bitmap covering every corpus limit (the
    # largest is triples --limit 10000's 10002 and the 10^6 counts)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PRACTICUM_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-m", "practicum.cli", "sieve", "--limit", "1000002"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bitmap_commands = {("sieve",), ("count",), ("goldbach",), ("triples",)}
    entries = [e for e in CORPUS + EXTRA if _command(e["argv"]) in bitmap_commands]
    assert {_command(e["argv"]) for e in entries} == bitmap_commands
    _assert_stdout_without_numpy(entries, tmp_path)
    # every command was a cache hit: nothing was rebuilt beside the entry
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["practical-1000002.bits"]


def _assert_stdout_without_numpy(entries, tmp_path, python=sys.executable):
    """Run every entry in one fresh interpreter, python, where importing
    numpy fails; each must exit 0 with its golden stdout."""
    child = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from practicum.cli import main\n"
        "results = []\n"
        "for argv in json.load(sys.stdin):\n"
        "    out = io.StringIO()\n"
        "    with redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    results.append([code, out.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PRACTICUM_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run([python, "-c", child], cwd=tmp_path, env=env,
                          input=json.dumps([e["argv"] for e in entries]),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (python, proc.stderr)
    for entry, (code, out) in zip(entries, json.loads(proc.stdout), strict=True):
        assert (code, out) == (0, entry["stdout"]), (python, entry["argv"])


def _assert_stdout(entry, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PRACTICUM_CACHE_DIR", str(tmp_path / "cache"))
    assert main(entry["argv"]) == 0
    assert capsys.readouterr().out == entry["stdout"]
