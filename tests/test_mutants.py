"""tools/mutants.json: the shape of the mutation catalogue.  Running the
mutants is `python3 tools/mutants.py`, not part of this suite."""

import importlib.util
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

ENTRIES = mutants.load()


def test_ids_are_unique_and_files_are_code_or_tests():
    ids = [entry["id"] for entry in ENTRIES]
    assert len(ids) == len(set(ids))
    for entry in ENTRIES:
        assert entry["file"].split("/", 1)[0] in ("src", "tests"), entry["id"]
        assert entry["tests"], entry["id"]
        if "survives" in entry:  # a known survivor says why it survives
            assert isinstance(entry["survives"], str) and entry["survives"], entry["id"]


def test_every_snippet_occurs_once_and_its_mutant_compiles():
    for entry in ENTRIES:
        path = _ROOT / entry["file"]
        mutated = mutants.mutate(path.read_text(encoding="utf-8"), entry)
        assert mutated is not None, f"{entry['id']}: stale snippet"
        assert entry["replacement"] != entry["snippet"], entry["id"]
        compile(mutated, str(path), "exec")


def test_every_test_id_exists():
    for entry in ENTRIES:
        for node in entry["tests"]:
            file, _, name = node.partition("::")
            name = name.split("[", 1)[0]
            source = (_ROOT / file).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(name)}\(", source, re.M), (entry["id"], node)
