"""tools/bench_pairs.py: quartiles, pair wins, the gain rule (failures included), unresolved
spreads and each side's bytecode."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]
HIGHER = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]


def runs(name, values, failed=0):
    return [{"metrics": {name: {"value": v, "unit": "s"}}, "attempted": 100, "failed": failed}
            for v in values]


def test_quartiles_are_inclusive():
    s = bench_pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["q1"], s["q3"]) == (3.0, 2.0, 4.0)
    assert bench_pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "runs": [7.0]}


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_wider_than_the_parent_iqr():
    parent = [4.0, 4.2, 4.4, 4.1, 4.3, 4.5, 4.0, 4.2, 4.4, 4.3]
    change = [2.9] * 9 + [4.6]  # 9 of 10 pairs won
    m = bench_pairs.summarize(runs("run_s", parent), runs("run_s", change), LOWER)["run_s"]
    assert (m["change_won_pairs"], m["tied_pairs"], m["pairs"]) == (9, 0, 10)
    assert m["gain"] and m["within_bound"]
    assert m["median_change"] == pytest.approx(2.9 / 4.25 - 1)

    change = [2.9] * 8 + [4.6, 4.3]  # 8 wins, a loss and a tie: not nine tenths
    m = bench_pairs.summarize(runs("run_s", parent), runs("run_s", change), LOWER)["run_s"]
    assert (m["change_won_pairs"], m["tied_pairs"]) == (8, 1)
    assert not m["gain"]

    change = [x - 0.05 for x in parent]  # every pair won, but inside the parent's IQR
    m = bench_pairs.summarize(runs("run_s", parent), runs("run_s", change), LOWER)["run_s"]
    assert m["change_won_pairs"] == 10 and not m["gain"]


def test_no_gain_when_a_larger_share_of_operations_failed():
    parent = [4.0, 4.2, 4.4, 4.1, 4.3, 4.5, 4.0, 4.2, 4.4, 4.3]
    change = [2.9] * 10
    m = bench_pairs.summarize(runs("run_s", parent), runs("run_s", change, failed=1), LOWER)
    assert m["run_s"]["change_won_pairs"] == 10 and not m["run_s"]["gain"]
    m = bench_pairs.summarize(runs("run_s", parent, failed=1), runs("run_s", change, failed=1),
                              LOWER)
    assert m["run_s"]["gain"]  # the same share of failures as the parent


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [3.0, 4.0, 5.0, 6.0, 7.0]  # IQR 2.0 against a bound of 0.25 * 5.0
    m = bench_pairs.summarize(runs("run_s", parent), runs("run_s", [5.1] * 5), LOWER)["run_s"]
    assert m["within_bound"] and not m["resolved"]
    m = bench_pairs.summarize(runs("run_s", parent), runs("run_s", [2.9] * 5), LOWER)["run_s"]
    assert m["resolved"]  # every change run beats every parent run
    parent = [4.0, 4.2, 4.4, 4.1, 4.3]  # IQR 0.2 against 1.05
    m = bench_pairs.summarize(runs("run_s", parent), runs("run_s", [5.5] * 5), LOWER)["run_s"]
    assert m["resolved"] and not m["within_bound"]


def test_direction_and_bound_follow_the_declared_metric():
    parent, change = [100.0, 101.0, 99.0], [70.0, 72.0, 71.0]
    m = bench_pairs.summarize(runs("rate", parent), runs("rate", change), HIGHER)["rate"]
    assert m["change_won_pairs"] == 0 and not m["gain"]
    assert not m["within_bound"]  # 29% lower, bound 25%
    m = bench_pairs.summarize(runs("rate", change), runs("rate", parent), HIGHER)["rate"]
    assert m["change_won_pairs"] == 3 and m["gain"] and m["within_bound"]


def test_each_side_runs_with_its_own_empty_pycache_prefix(monkeypatch, tmp_path):
    first_seen = {}  # (tree, pycache prefix) -> the prefix's contents at its first run
    real_run = subprocess.run

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[1:2] != ["bench/run.py"]:  # platform's own `uname -p`
            return real_run(cmd, cwd=cwd, env=env, **kwargs)
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        assert "PYTHONDONTWRITEBYTECODE" not in env  # else every process recompiles
        first_seen.setdefault((Path(cwd), prefix), sorted(prefix.iterdir()))
        (prefix / f"written-by-{cmd[5]}.pyc").write_bytes(b"")  # as Python would
        metrics = {"metrics": {name: {"value": 1.0} for name in
                               ("setup_s", "run_s", "op_p50_ms", "peak_rss_mb")},
                   "attempted": 1, "failed": 0, "correct": 1}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(metrics), stderr="")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "bench_differs", lambda rev: [])
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--rev", "HEAD", "--workload", "certify", "--pairs", "2",
                             "--seconds", "1", "--out", str(out)]) == 0

    assert json.loads(out.read_text())["machine"]["bytecode"] == {
        "measured": "warm: each side's own PYTHONPYCACHEPREFIX, PYTHONDONTWRITEBYTECODE unset",
        "caller": "cold: PYTHONDONTWRITEBYTECODE is set, so a fresh checkout compiles "
                  "its sources in every process",
    }
    trees = {tree for tree, _ in first_seen}
    prefixes = {prefix for _, prefix in first_seen}
    assert bench_pairs.ROOT in trees and len(trees) == 2
    assert len(prefixes) == 2 and len(first_seen) == 2  # one prefix per side
    assert all(contents == [] for contents in first_seen.values())
    assert not any(bench_pairs.ROOT in prefix.parents for prefix in prefixes)


def test_machine_records_a_warm_caller(monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert bench_pairs.machine()["bytecode"]["caller"].startswith("warm after the first process")
