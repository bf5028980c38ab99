"""The benchmark's own tests: every correctness check rejects a wrong
answer, and a seed fixes the operation list.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import oracles as orc
import practicum as pk
import run
import workloads as wl
from oracles import CheckFailed


@pytest.mark.parametrize("workload", sorted(run.OPS))
def test_seed_fixes_operation_list(workload):
    build = run.OPS[workload]
    assert build(7) == build(7)
    assert build(7) != build(8)
    assert [op.kind for op in build(7)] == [op.kind for op in build(8)]


def test_tree_agrees_with_trial_division_and_frozen_counts():
    flags = orc.tree_flags(20000)
    assert [bool(f) for f in flags[1:]] == [orc.is_practical_td(n) for n in range(1, 20001)]
    assert orc.tree_count(10**6) == 97385
    assert orc.tree_count(20000) == int(flags.sum())


def test_verdict_check_rejects_flipped_verdict():
    v = pk.is_practical(88)
    orc.check_verdict(88, v.practical, v.chain, None)
    with pytest.raises(CheckFailed):
        orc.check_verdict(88, False, (), (2, 11, 16))
    v10 = pk.is_practical(10)
    w = (v10.witness.index, v10.witness.prime, v10.witness.bound)
    orc.check_verdict(10, False, (), w)
    with pytest.raises(CheckFailed):
        orc.check_verdict(10, True, ((2, 1, 3), (5, 1, 18)), None)
    op = wl.Op("is_practical", (88,))
    flipped = replace(v, practical=False, chain=(), witness=pk.StewartWitness(1, 5, 3))
    with pytest.raises(CheckFailed):
        wl.check_library(op, (flipped, flipped.replay()), wl.Memo(), None)


def test_goldbach_check_rejects_pair_with_wrong_sum():
    orc.check_goldbach(100, 4, 96)
    with pytest.raises(CheckFailed):
        orc.check_goldbach(100, 4, 94)
    with pytest.raises(CheckFailed):
        orc.check_goldbach(100, 10, 90)  # sums to n, but 10 is not practical


def test_bitmap_checks_reject_one_changed_bit(tmp_path):
    bitmap = pk.sieve_practicals(5000)
    reference = orc.tree_flags(5000)
    orc.check_flags(bitmap.flags, reference)
    for n in (88, 44, 10):  # a member dropped, a multiple of 4 added, a non-multiple added
        changed = bitmap.flags.copy()
        changed[n] = not changed[n]
        with pytest.raises(CheckFailed):
            orc.check_flags(changed, reference)
    changed = bitmap.flags.copy()
    changed[10] = True
    with pytest.raises(CheckFailed, match="4 or 6"):
        orc.check_flags(changed)
    path = tmp_path / "b.bits"
    bitmap.save(path)
    data = bytearray(path.read_bytes())
    orc.check_flags(orc.read_bitmap_file(bytes(data)), bitmap.flags)
    data[16 + 11] ^= 1  # bit 88
    with pytest.raises(CheckFailed):
        orc.check_flags(orc.read_bitmap_file(bytes(data)), bitmap.flags)


def test_save_load_check_rejects_changed_bitmap(tmp_path):
    rd = wl.Round(pk, tmp_path)
    rd.bitmap = pk.sieve_practicals(3000)
    loaded = pk.PracticalBitmap(rd.bitmap.flags.copy())
    wl.check_library(wl.Op("load", ()), loaded, wl.Memo(), rd)
    loaded.flags[96] = False
    with pytest.raises(CheckFailed):
        wl.check_library(wl.Op("load", ()), loaded, wl.Memo(), rd)


def test_quad_witness_check_rejects_off_by_one():
    q = pk.QuadraticPoly(1, 0, 3)
    w = pk.quad_constructive_witness(q, 10**6)
    orc.check_quad_witness(1, 0, 3, 10**6, w.n, w.value, w.modulus)
    for n, value, modulus in ((w.n + 1, w.value, w.modulus), (w.n, w.value + 1, w.modulus),
                              (w.n, w.value, w.modulus + 1)):
        with pytest.raises(CheckFailed):
            orc.check_quad_witness(1, 0, 3, 10**6, n, value, modulus)
    with pytest.raises(CheckFailed):
        orc.check_quad_witness(1, 0, 3, w.value + 1, w.n, w.value, w.modulus)


def test_ap_checks_reject_wrong_answers():
    w = pk.ap_constructive_witness(3, 5, 100)
    orc.check_ap_witness(3, 5, 100, w.n, w.value, w.prime, w.k, w.d)
    with pytest.raises(CheckFailed):
        orc.check_ap_witness(3, 5, 100, w.n + 1, w.value + 3, w.prime, w.k, w.d)
    with pytest.raises(CheckFailed):
        orc.check_ap_witness(3, 5, 100, w.n, w.value + 1, w.prime, w.k, w.d)
    c = pk.classify_ap(12, 2)
    orc.check_ap_classification(12, 2, c.case, c.d, c.witness_prime, c.unique_value)
    with pytest.raises(CheckFailed):
        orc.check_ap_classification(12, 2, "none", c.d, None, None)
    with pytest.raises(CheckFailed):
        orc.check_ap_classification(12, 2, "infinitely_many", c.d, 5, None)


def test_mq_check_rejects_wrong_exponent():
    orc.check_mq(1, 0, 1, 2, 1)          # n^2 + 1: 2 | q(1), 4 never divides
    orc.check_mq(1, 0, -2, 7, None)      # 3^2 = 2 (mod 7), simple root lifts
    for exponent in (0, 2, None):
        with pytest.raises(CheckFailed):
            orc.check_mq(1, 0, 1, 2, exponent)
    with pytest.raises(CheckFailed):
        orc.check_mq(1, 0, -2, 7, 3)


def test_quad_classification_check_rejects_flipped_case():
    c = pk.classify_quadratic(pk.QuadraticPoly(1, 0, 1))
    args = (1, 0, 1, c.case, c.r, c.p_r, c.exponents, c.witness_n, c.verdict_n.practical)
    orc.check_quad_classification(*args)
    with pytest.raises(CheckFailed):
        orc.check_quad_classification(1, 0, 1, "infinitely_many", *args[4:])


def test_representation_checks_reject_wrong_answers():
    orc.check_decomposition(41, 3, 32)
    with pytest.raises(CheckFailed):
        orc.check_decomposition(41, 3, 31)
    with pytest.raises(CheckFailed):
        orc.check_decomposition(41, 4, 25)  # sums to 41, but 25 is odd
    orc.check_not_representable(35)
    with pytest.raises(CheckFailed):
        orc.check_not_representable(11)  # 11 = 3^2 + 2
    orc.check_palindromic([88, 8888, 88888888])
    with pytest.raises(CheckFailed):
        orc.check_palindromic([88, 8889])
    entries = pk.palindromic_practicals(4)
    wl._check_palindromic_chain(entries, 4)
    with pytest.raises(CheckFailed):
        wl._check_palindromic_chain(entries[:3], 4)


def test_count_checks_reject_off_by_one():
    memo = wl.Memo()
    wl.check_library(wl.Op("count", (10**4,)), pk.count_practicals(10**4), memo, None)
    with pytest.raises(CheckFailed):
        wl.check_library(wl.Op("count", (10**4,)), pk.count_practicals(10**4) + 1, memo, None)
    rows = pk.density_report([100, 1000])
    wl.check_library(wl.Op("density", (100, 1000)), rows, memo, None)
    bad = [rows[0], (1000, rows[1][1] - 1, rows[1][2])]
    with pytest.raises(CheckFailed):
        wl.check_library(wl.Op("density", (100, 1000)), bad, memo, None)


def test_cli_check_rejects_bad_output(tmp_path):
    op = wl.Op("cli", ("goldbach", "100"))
    rd = wl.Round(pk, tmp_path)
    good = json.dumps({"n": 100, "pair": [4, 96]}).encode()
    wl.check_cli(op, (0, good, b""), wl.Memo(), rd)
    for code, out in ((0, b"not json"), (2, good), (0, json.dumps({"n": 100, "pair": [4, 94]}).encode())):
        with pytest.raises(CheckFailed):
            wl.check_cli(op, (code, out, b""), wl.Memo(), rd)


def test_check_round_counts_failures_and_changed_repeats(tmp_path):
    rd = wl.Round(pk, tmp_path)
    ops = [wl.Op("cli", ("goldbach", "100")), wl.Op("cli", ("goldbach", "100"))]
    good = (0, json.dumps({"n": 100, "pair": [4, 96]}).encode(), b"")
    tally, first = run.Tally(), {}
    run.check_round(ops, [good, run.Failure(RuntimeError("boom"))], wl.check_cli, rd, tally, first)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0)
    spaced = (0, good[1] + b" ", b"")  # still JSON, still right, but not byte-identical
    run.check_round(ops[:1], [spaced], wl.check_cli, rd, tally, first)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)


def test_tracer_restores_every_name_and_records_nesting():
    import practicum.cli  # noqa: F401  (the tracer wraps the cli module too)

    before = (pk.is_practical, pk.quadratics.is_practical, pk.PracticalBitmap.load)
    tracer = run.tracing.Tracer(pk)
    tracer.install()
    try:
        assert pk.quadratics.is_practical is pk.practical.is_practical
        pk.is_practical(88)
    finally:
        tracer.uninstall()
    assert (pk.is_practical, pk.quadratics.is_practical, pk.PracticalBitmap.load) == before
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["practical.is_practical", "arith.factorize"]
    assert tracer.spans[1][1] == 0  # factorize's parent is is_practical
    view = run.tracing.SpanView(tracer.spans, 0, len(tracer.spans))
    metrics = run.tracing.layer_metrics(view, tracer.build_peaks, 0)
    assert metrics["practical.is_practical_calls"] == 1 and metrics["arith.factorize_calls"] == 1
    children = sum(view.dur_ns(s) for s in view.ids if tracer.spans[s][1] == 0)
    assert math.isclose(metrics["practical.is_practical_self_ms"], (view.dur_ns(0) - children) / 1e6)
    declared = {m["name"] for m in json.loads(
        (Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared == set(metrics) | {"cli.import_ms"}
