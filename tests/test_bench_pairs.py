"""The arithmetic of tools/bench_pairs.py: quartiles, pair wins and the gain rule."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]
HIGHER = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]


def runs(name, values):
    return [{"metrics": {name: {"value": v, "unit": "s"}}} for v in values]


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


def test_direction_and_bound_follow_the_declared_metric():
    parent, change = [100.0, 101.0, 99.0], [70.0, 72.0, 71.0]
    m = bench_pairs.summarize(runs("rate", parent), runs("rate", change), HIGHER)["rate"]
    assert m["change_won_pairs"] == 0 and not m["gain"]
    assert not m["within_bound"]  # 29% lower, bound 25%
    m = bench_pairs.summarize(runs("rate", change), runs("rate", parent), HIGHER)["rate"]
    assert m["change_won_pairs"] == 3 and m["gain"] and m["within_bound"]
