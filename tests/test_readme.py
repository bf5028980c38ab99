"""The README's library quick start runs as written, and its list of global
flags is the CLI's."""

import doctest
import re
from pathlib import Path

from practicum import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_library_quick_start_runs_as_a_doctest():
    block = README.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", "README.md", 0)
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    failed, attempted = runner.run(test, out=report.append)
    assert (failed, attempted) == (0, len(test.examples)) and attempted > 0, "".join(report)


def test_readme_global_flag_bullets_name_every_global_flag():
    bullets = README.split("Global flags go before the subcommand.", 1)[1].split("\n\n", 2)[1]
    named = [flag for line in re.findall(r"^- (.*)$", bullets, re.M)
             for flag in re.findall(r"`--([a-z-]+)`", line.split(":", 1)[0])]
    assert sorted(named) == sorted(cli._GLOBAL_FLAGS)
