import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practicum import (
    BudgetExceeded,
    InvalidInput,
    ap_constructive_witness,
    ap_practical_stream,
    classify_ap,
    factor_budget,
    factorize,
    is_practical,
    is_practical_quick,
    nonpractical_witness,
    progressions,
)
from helpers import is_prime_trial, time_limit


def _divisors(n):
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def test_largest_practical_divisor_examples():
    # the verdict's prefix is the largest practical divisor (classify_ap's d)
    assert is_practical(12).prefix == 12
    assert is_practical(3).prefix == 1
    assert is_practical(20).prefix == 20
    assert is_practical(1).prefix == 1
    with pytest.raises(InvalidInput):
        is_practical(0)


def test_largest_practical_divisor_exhaustive():
    # greedy result == max over all divisors, checked divisor-exhaustively
    for g in range(1, 10**4 + 1):
        best = max(d for d in _divisors(g) if is_practical_quick(d))
        assert is_practical(g).prefix == best, g
    rng = random.Random(7)
    for g in rng.sample(range(10**4 + 1, 10**5 + 1), 2000):
        best = max(d for d in _divisors(g) if is_practical_quick(d))
        assert is_practical(g).prefix == best, g


def test_classify_examples():
    cls = classify_ap(3, 5)
    assert cls.case == "infinitely_many"
    assert cls.d == 1 and cls.witness_prime == 2

    cls = classify_ap(12, 2)
    assert cls.case == "exactly_one"
    assert cls.d == 2 and cls.unique_value == 2

    cls = classify_ap(12, 10)
    assert cls.case == "none"
    assert cls.d == 2 and cls.unique_value is None


_SMALL_PRIMES = [p for p in range(2, 102) if is_prime_trial(p)]
_PRIMORIALS = [math.prod(_SMALL_PRIMES[:k]) for k in range(len(_SMALL_PRIMES) + 1)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_classify_witness_prime_is_least_prime_missing_a_over_d(data):
    # a = m * primorial makes a/d divisible by a long run of small primes, so
    # the walk to the least prime missing it runs long
    if data.draw(st.booleans()):
        a = data.draw(st.integers(1, 10**6))
        b = data.draw(st.integers(1, 10**6))
    else:
        m = data.draw(st.integers(1, 2**12))
        a = m * data.draw(st.sampled_from(_PRIMORIALS))
        b = m * data.draw(st.integers(1, 10**3))
    cls = classify_ap(a, b)
    d = cls.d
    bound = sum(_divisors(d)) + 1
    expected = next(
        (p for p in range(2, bound + 1) if is_prime_trial(p) and (a // d) % p), None
    )
    assert cls.witness_prime == expected, (a, b)
    assert (cls.case == "infinitely_many") == (expected is not None)


def _classify_from_the_full_factorization(a, b):
    """classify_ap's fields, with d and sigma(d) read off the verdict on
    gcd(a, b), which factors it completely."""
    verdict = is_practical(math.gcd(a, b))
    d, bound = verdict.prefix, verdict.sigma + 1
    m = next((p for p in range(2, bound + 1) if is_prime_trial(p) and (a // d) % p), None)
    if m is not None:
        return "infinitely_many", d, m, None
    if is_practical(b).practical:
        return "exactly_one", d, None, b
    return "none", d, None, None


def test_classify_matches_the_full_factorization_of_the_gcd():
    # the lazy walk stops at the first failing comparison, where the full
    # factorization's verdict fails too: the same d and sigma(d)
    pairs = [(a, b) for a in range(1, 121) for b in range(1, 121)]
    pairs += [(a * q, b * q) for q in _PRIMORIALS[:8] for a in range(1, 40)
              for b in (1, 2, 3, 5, 7, 12, 30)]
    rng = random.Random(1)
    pairs += [(rng.randrange(1, 10**12), rng.randrange(1, 10**12)) for _ in range(3000)]
    for a, b in pairs:
        cls = classify_ap(a, b)
        fields = (cls.case, cls.d, cls.witness_prime, cls.unique_value)
        assert fields == _classify_from_the_full_factorization(a, b), (a, b)


def test_classify_does_not_factor_past_the_failing_comparison():
    # 10^300 + 7 is odd and 2 * p * q has sigma(2) + 1 = 4 < p: in both the
    # walk over gcd(a, b) fails before any cofactor needs rho
    p, q = 10**20 + 39, 10**20 + 129
    for n, d in ((10**300 + 7, 1), (2 * p * q, 2)):
        with time_limit(5):
            cls = classify_ap(n, n)
        assert (cls.case, cls.d, cls.witness_prime) == ("infinitely_many", d, 2)


def test_classify_rejects_nonpositive():
    for a, b in ((0, 1), (1, 0), (-3, 5), (3, -5)):
        with pytest.raises(InvalidInput):
            classify_ap(a, b)


def test_odd_a_always_infinite():
    for a in range(1, 30, 2):
        for b in range(1, 31):
            assert classify_ap(a, b).case == "infinitely_many", (a, b)


def test_stream_examples():
    assert ap_practical_stream(3, 5, 3) == [8, 20, 32]
    assert ap_practical_stream(12, 2, 5) == [2]
    assert ap_practical_stream(12, 10, 3) == []
    assert ap_practical_stream(2, 2, 4) == [2, 4, 6, 8]


def test_stream_budget():
    with pytest.raises(BudgetExceeded, match="raise --scan-bound"):
        ap_practical_stream(3, 5, 50, n_limit=10)
    with pytest.raises(InvalidInput):
        ap_practical_stream(3, 5, 0)


def test_stream_runs_under_the_factor_budget():
    # sigma(2^20) + 1 > 10^6, so deciding this term takes trial division
    # past 1000 primes (it is practical)
    b = 2**20 * 1_000_003 * 1_000_033
    with factor_budget(1000):
        with pytest.raises(BudgetExceeded):
            ap_practical_stream(1, b, 1)
        with pytest.raises(BudgetExceeded):
            nonpractical_witness([0, b])  # its first value is b
    assert ap_practical_stream(1, b, 1) == [b]


def test_constructive_witness_examples():
    w = ap_constructive_witness(3, 5, 100)
    assert (w.prime, w.k, w.n, w.value) == (2, 7, 41, 128)
    assert w.verdict.verify() and w.verdict.value == w.value
    assert (w.verdict.base, w.verdict.multiplier, w.verdict.bound_kind) == (128, 1, "sigma")

    w = ap_constructive_witness(1, 1, 2)
    assert (w.n, w.value) == (1, 2)

    w = ap_constructive_witness(5, 3, 50)
    assert (w.n, w.value) == (25, 128)


def test_constructive_witness_random_triples():
    rng = random.Random(8)
    done = 0
    while done < 100:
        a = rng.randrange(1, 200)
        b = rng.randrange(1, 200)
        if classify_ap(a, b).case != "infinitely_many":
            continue
        threshold = rng.randrange(1, 10**5)
        w = ap_constructive_witness(a, b, threshold)
        assert w.value >= threshold
        assert w.value == a * w.n + b and w.n >= 1
        assert w.value % (w.d * w.prime**w.k) == 0
        assert w.verdict.verify() and w.verdict.value == w.value
        assert w.verdict.base == w.d * w.prime**w.k
        done += 1


def test_constructive_witness_rejects_finite_cases():
    with pytest.raises(InvalidInput):
        ap_constructive_witness(12, 10, 5)
    with pytest.raises(InvalidInput):
        ap_constructive_witness(12, 2, 5)


def test_nonpractical_witness_examples():
    w = nonpractical_witness([2, 1, 1])  # n^2 + n + 2
    assert w.n == 3 and w.value == 14
    assert not w.verdict.practical

    w = nonpractical_witness([0, 2])  # 2n
    assert w.n == 5 and w.value == 10

    w = nonpractical_witness([1, 1])  # n + 1
    assert w.n == 2 and w.value == 3


def test_nonpractical_witness_is_smallest():
    w = nonpractical_witness([2, 1, 1])
    for n in range(1, w.n):
        v = 2 + n + n * n
        assert v < 1 or is_practical(v).practical


def test_nonpractical_witness_errors():
    with pytest.raises(BudgetExceeded, match=r"raise --scan-bound \(n_limit\)"):
        nonpractical_witness([0, 2], n_limit=4)  # 2, 4, 6, 8 all practical
    # 10^40 n is practical for every n below ~10^40: the bound is the only limit
    cap = progressions._POLY_BOUND_CAP
    with pytest.raises(BudgetExceeded, match="raise --scan-bound"):
        nonpractical_witness([0, 10**40], n_limit=1000)
    message = rf"n_limit must be <= {cap} \(_POLY_BOUND_CAP\), got {cap + 1}"
    with pytest.raises(InvalidInput, match=message):
        nonpractical_witness([0, 10**40], n_limit=cap + 1)
    with pytest.raises(InvalidInput):
        nonpractical_witness([5])
    with pytest.raises(InvalidInput):
        nonpractical_witness([1, 0, 0])  # constant after trimming
    with pytest.raises(InvalidInput):
        nonpractical_witness([0, -2])


def test_an_exhausted_scan_at_the_cap_names_the_cap(monkeypatch):
    # the flag cannot go past the cap, so the message must not ask for it
    monkeypatch.setattr(progressions, "_POLY_BOUND_CAP", 4)
    with pytest.raises(BudgetExceeded) as exc:
        nonpractical_witness([0, 6], 4)  # 6, 12, 18, 24 all practical
    assert "_POLY_BOUND_CAP" in str(exc.value)
    assert "raise --scan-bound" not in str(exc.value)


def test_trichotomy_scan_consistency_sample():
    # desk-scale soundness on a small sample; the acceptance suite covers
    # the full 30 x 30 grid
    for a, b in ((4, 2), (6, 4), (9, 7), (16, 16), (2, 1), (30, 15)):
        cls = classify_ap(a, b)
        hits = [a * n + b for n in range(3001) if is_practical_quick(a * n + b)]
        if cls.case == "infinitely_many":
            assert len(hits) >= 2
        elif cls.case == "exactly_one":
            assert hits == [b]
        else:
            assert hits == []
