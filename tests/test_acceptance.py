"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 has one sub-assertion that is provably unattainable
(see test_criterion_6_uncorrected_family_start_11): it is kept as a strict xfail
documenting the counterexample instead of being silently dropped.
"""

import math
import random
import time

import pytest

from practicum import (
    QuadraticPoly,
    ap_practical_stream,
    classify_ap,
    classify_quadratic,
    count_practicals,
    decompose_square_plus_practical,
    family_stream,
    goldbach_pair,
    is_practical,
    is_practical_oracle,
    is_practical_quick,
    mq,
    nonpractical_witness,
    practical_triples,
    quad_practical_stream,
    sieve_practicals,
    density_report,
    verify_not_representable,
)
from practicum.representations import NON_REPRESENTABLE_J, _set_bits
from helpers import mq_oracle

# computed once by the sieve and frozen; spot-checked by the oracle below
PRACTICAL_COUNT_1E6 = 97385
# frozen after the segmented sieve and the tree walk agreed on it
PRACTICAL_COUNT_1E7 = 829157
# the m <= 10^6 that are not x^2 + practical, by class mod 8 (a shift-OR census)
EXCEPTIONS_1E6_BY_CLASS = (738, 0, 42273, 42526, 754, 7089, 42594, 42699)


@pytest.fixture(scope="module")
def bitmap_1e6():
    return sieve_practicals(10**6)


def test_criterion_1_structure_test_equals_definition():
    start = time.perf_counter()
    for n in range(1, 20001):
        by_oracle = is_practical_oracle(n)
        assert is_practical(n).practical == by_oracle, n
        assert is_practical_quick(n) == by_oracle, n
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1: PASS - structure test == oracle on [1, 20000], "
          f"0 mismatches, {elapsed:.1f}s")


def test_criterion_2_linear_trichotomy_grid():
    start = time.perf_counter()
    cases = {"infinitely_many": 0, "exactly_one": 0, "none": 0}
    for a in range(1, 31):
        for b in range(1, 31):
            cls = classify_ap(a, b)
            cases[cls.case] += 1
            if a % 2 == 1:
                assert cls.case == "infinitely_many", (a, b)
            if cls.case == "infinitely_many":
                hits = ap_practical_stream(a, b, 5, n_limit=10**5)
                assert len(hits) == 5, (a, b)
            else:
                hits = [a * n + b for n in range(10**4 + 1)
                        if is_practical_quick(a * n + b)]
                if cls.case == "exactly_one":
                    assert hits == [b], (a, b, hits[:3])
                else:
                    assert hits == [], (a, b, hits[:3])
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert sum(cases.values()) == 900
    print(f"\nACCEPTANCE 2: PASS - 30x30 trichotomy grid consistent with scans "
          f"({cases}), odd a always infinite, {elapsed:.1f}s")


def test_criterion_3_quadratic_classification_grid():
    start = time.perf_counter()
    anchors = {
        (1, 1, 2): ("infinitely_many", 2),
        (1, 0, 1): ("finitely_many", 10),
        (1, 0, 3): ("infinitely_many", 84),
    }
    for coeffs, (case, witness_n) in anchors.items():
        cls = classify_quadratic(QuadraticPoly(*coeffs))
        assert (cls.case, cls.witness_n) == (case, witness_n), coeffs

    # the anchors' m_q exponents against the brute-force oracle
    for coeffs, expect in (((1, 0, 1), {2: 1, 3: 0}), ((1, 0, 3), {2: 2, 3: 1, 5: 0})):
        for p, m in expect.items():
            assert mq_oracle(*coeffs, p) == ("finite", m)
            assert mq(QuadraticPoly(*coeffs), p).exponent == m

    counts = {"infinitely_many": 0, "finitely_many": 0}
    for a in range(1, 7):
        for b in range(0, 7):
            for c in range(0, 7):
                q = QuadraticPoly(a, b, c)
                cls = classify_quadratic(q)
                counts[cls.case] += 1
                if cls.case == "infinitely_many":
                    vals = quad_practical_stream(q, 3, n_limit=10**4)
                    assert len(vals) == 3, (a, b, c)
                else:
                    bound = cls.witness_n
                    for n in range(1, 10**4 + 1):
                        v = q(n)
                        if v > bound and is_practical_quick(v):
                            pytest.fail(f"practical {v} > {bound} for {q} at n={n}")
    elapsed = time.perf_counter() - start
    assert counts["infinitely_many"] + counts["finitely_many"] == 294
    print(f"\nACCEPTANCE 3: PASS - quadratic grid {counts} consistent with scans, "
          f"anchors verified, {elapsed:.1f}s")


def test_criterion_4_mq_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for a in range(1, 11):
        for b in range(-10, 11):
            for c in range(-10, 11):
                q = QuadraticPoly(a, b, c)
                for p in (2, 3, 5, 7, 11, 13):
                    res = mq(q, p)
                    kind, level = mq_oracle(a, b, c, p)
                    if res.infinite:
                        # infinite claims must exhibit roots at every oracle level
                        assert kind == "at_least", (a, b, c, p, level)
                    elif kind == "finite":
                        assert res.exponent == level, (a, b, c, p)
                    else:
                        assert res.exponent >= level, (a, b, c, p)
                    checked += 1
    # Lemma grid: odd a, b <= 9, even c <= 8 is infinite at p = 2 throughout
    for a in (1, 3, 5, 7, 9):
        for b in (1, 3, 5, 7, 9):
            for c in (2, 4, 6, 8):
                assert mq(QuadraticPoly(a, b, c), 2).infinite, (a, b, c)
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 4: PASS - m_q == exhaustive lifting on {checked} "
          f"(poly, prime) pairs; parity grid infinite at 2, {elapsed:.1f}s")


def test_criterion_5_decomposition_totality():
    start = time.perf_counter()
    count = 0
    for n in range(9, 10**6 + 1, 8):
        d = decompose_square_plus_practical(n)
        assert d.x * d.x + d.practical_part == n
        assert 1 <= d.x <= (1 << d.m) - 1
        assert 1 <= d.s <= 1 << d.m
        assert is_practical_quick(d.practical_part)
        count += 1
    # oracle layer on a deterministic subrange plus a seeded sample
    for n in range(9, 20001, 8):
        assert is_practical_oracle(decompose_square_plus_practical(n).practical_part)
    rng = random.Random(11)
    for _ in range(100):
        n = 8 * rng.randrange(2500, 125000) + 1
        assert is_practical_oracle(decompose_square_plus_practical(n).practical_part)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert count == 124999
    print(f"\nACCEPTANCE 5: PASS - {count} decompositions on 1 mod 8 up to 1e6, "
          f"all invariants + practicality, {elapsed:.1f}s")


def test_criterion_6_families_not_representable():
    start = time.perf_counter()
    for j in (0, 2, 3, 4, 5, 6, 7):
        members = family_stream(j, 50)
        assert len(members) == 50
        for m in members:
            report = verify_not_representable(m)
            assert report.not_representable, (j, m, report.counterexample)
    assert family_stream(2, 1) == [74]
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 6: PASS - 7 families x 50 members exhaustively "
          f"non-representable; j=2 starts at 74, {elapsed:.1f}s")
    print("ACCEPTANCE 6: NOTE - the traditional j=3 starting value 11 is not "
          "actually non-representable (11 = 3^2 + 2 with 2 practical); see "
          "the strict xfail below and the corrected family starting at 35.")


@pytest.mark.xfail(
    strict=True,
    reason="11 = 3^2 + 2 and 2 is practical, so 11 cannot "
    "belong to a family that passes the exhaustive verifier; the sound "
    "residue-11 mod 24 family starts at 35",
)
def test_criterion_6_uncorrected_family_start_11():
    assert verify_not_representable(11).not_representable
    assert family_stream(3, 1)[0] == 11


def test_criterion_6_census_of_the_exceptions_to_1e6(bitmap_1e6):
    """Every m <= 10^6 that is not x^2 + practical, from the bitmap alone:
    none is 1 mod 8 (the 8k+1 theorem, independently of the decomposition),
    the counts per class are frozen, every family member is among them, and
    below 10^4 they are exactly what the exhaustive search finds."""
    start = time.perf_counter()
    limit = 10**6
    practical = bitmap_1e6.as_int(limit)
    reached = 0  # bit m: m = x^2 + a practical number
    for x in range(math.isqrt(limit) + 1):
        reached |= practical << x * x
    exceptions = _set_bits(~reached & (1 << limit + 1) - 2)
    by_class = [0] * 8
    for m in exceptions:
        by_class[m % 8] += 1
    assert by_class[1] == 0  # every n = 1 (mod 8) is x^2 + practical
    assert tuple(by_class) == EXCEPTIONS_1E6_BY_CLASS
    assert len(exceptions) == 178673
    assert exceptions[:8] == [14, 23, 35, 47, 59, 62, 71, 74]
    found = set(exceptions)
    members = [m for j in NON_REPRESENTABLE_J for m in family_stream(j, 2000) if m <= limit]
    assert len(members) == 9196 and found.issuperset(members)
    small = [m for m in range(1, 10**4) if verify_not_representable(m).not_representable]
    assert len(small) == 1714 and small == [m for m in exceptions if m < 10**4]
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 6: PASS - {len(exceptions)} m <= 1e6 are not x^2 + practical, "
          f"none 1 mod 8; {len(members)} family members among them; the search agrees "
          f"below 1e4, {elapsed:.1f}s")


def test_criterion_7_pairs_and_triples(bitmap_1e6):
    start = time.perf_counter()
    for n in range(2, 10**6 + 1, 2):
        p1, p2 = goldbach_pair(n, bitmap_1e6)
        # goldbach_pair guarantees bitmap membership; re-verify a slice deeply
        if n % 10**5 == 0:
            assert is_practical(p1).practical and is_practical(p2).practical
            assert p1 + p2 == n
    triples = practical_triples(10**4)
    assert triples
    for m in triples:
        assert all(is_practical(v).practical for v in (m - 2, m, m + 2))
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 7: PASS - practical pair for every even n <= 1e6; "
          f"{len(triples)} triples below 1e4 all verify, {elapsed:.1f}s")


def test_criterion_8_palindromic_chain():
    from practicum import palindromic_practicals

    start = time.perf_counter()
    entries = palindromic_practicals(10)
    assert len(entries) == 10
    for e in entries:
        s = str(e.value)
        assert s == s[::-1]
        if e.index == 1:
            assert e.evidence.practical and e.evidence.replay()
        else:
            assert e.evidence.verify() and e.evidence.value == e.value
    for e in entries[:3]:
        v = is_practical(e.value)
        assert v.practical and v.replay()
    assert [e.value for e in entries[:3]] == [88, 8888, 88888888]
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 8: PASS - 10 palindromic values with replayable "
          f"certificates; first three pass the direct structure test, {elapsed:.1f}s")


def test_criterion_9_density_sanity(bitmap_1e6):
    start = time.perf_counter()
    assert bitmap_1e6.count() == PRACTICAL_COUNT_1E6
    rows = density_report([10**4, 10**5, 10**6], bitmap_1e6)
    ratios = []
    for x, count, ratio in rows:
        assert 1.0 <= ratio <= 1.6, (x, ratio)
        assert ratio == pytest.approx(count * math.log(x) / x)
        ratios.append(ratio)
    assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])
    rng = random.Random(12)
    members = bitmap_1e6.members().tolist()
    for n in rng.sample(members, 100):
        assert is_practical_oracle(n), n
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 9: PASS - P(1e6) = {PRACTICAL_COUNT_1E6} (frozen, "
          f"100 members oracle-checked); ratios {[round(r, 4) for r in ratios]} "
          f"in [1.0, 1.6] with shrinking spread, {elapsed:.1f}s")


def test_criterion_9_frozen_count_1e7():
    start = time.perf_counter()
    assert count_practicals(10**7) == PRACTICAL_COUNT_1E7
    assert sieve_practicals(10**7).count() == PRACTICAL_COUNT_1E7
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 9: PASS - P(1e7) = {PRACTICAL_COUNT_1E7} (frozen), "
          f"tree count == tree bitmap, {elapsed:.1f}s")


def test_criterion_10_polynomial_witnesses():
    start = time.perf_counter()
    rng = random.Random(13)
    found = 0
    while found < 50:
        degree = rng.randrange(1, 5)
        coeffs = [rng.randrange(0, 21) for _ in range(degree)]
        coeffs.append(rng.randrange(1, 21))  # positive leading coefficient
        w = nonpractical_witness(coeffs, n_limit=10**4)
        value = sum(c * w.n**i for i, c in enumerate(coeffs))
        assert value == w.value and value >= 1
        assert not w.verdict.practical and w.verdict.replay()
        if w.value <= 10**6:
            assert not is_practical_oracle(w.value)
        found += 1
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 10: PASS - 50 random polynomials each yield a "
          f"verified non-practical value, {elapsed:.1f}s")
