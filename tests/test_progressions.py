import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practicum import (
    ClassificationMismatch,
    InvalidInput,
    ScanBudgetExceeded,
    SearchExhausted,
    ap_constructive_witness,
    ap_practical_stream,
    classify_ap,
    factorize,
    is_practical,
    is_practical_quick,
    largest_practical_divisor,
    nonpractical_witness,
)
from helpers import is_prime_trial


def _divisors(n):
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def test_largest_practical_divisor_examples():
    assert largest_practical_divisor(12) == 12
    assert largest_practical_divisor(3) == 1
    assert largest_practical_divisor(20) == 20
    assert largest_practical_divisor(1) == 1
    with pytest.raises(InvalidInput):
        largest_practical_divisor(0)


def test_largest_practical_divisor_exhaustive():
    # greedy result == max over all divisors, checked divisor-exhaustively
    for g in range(1, 10**4 + 1):
        best = max(d for d in _divisors(g) if is_practical_quick(d))
        assert largest_practical_divisor(g) == best, g
    rng = random.Random(7)
    for g in rng.sample(range(10**4 + 1, 10**5 + 1), 2000):
        best = max(d for d in _divisors(g) if is_practical_quick(d))
        assert largest_practical_divisor(g) == best, g


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
    with pytest.raises(ScanBudgetExceeded):
        ap_practical_stream(3, 5, 50, n_limit=10)
    with pytest.raises(InvalidInput):
        ap_practical_stream(3, 5, 0)


def test_constructive_witness_examples():
    w = ap_constructive_witness(3, 5, 100)
    assert (w.prime, w.k, w.n, w.value) == (2, 7, 41, 128)
    assert w.verdict.practical and w.verdict.replay()

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
        assert w.verdict.practical and w.verdict.replay()
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
    with pytest.raises(SearchExhausted):
        nonpractical_witness([0, 2], search_bound=4)  # 2, 4, 6, 8 all practical
    with pytest.raises(InvalidInput):
        nonpractical_witness([5])
    with pytest.raises(InvalidInput):
        nonpractical_witness([1, 0, 0])  # constant after trimming
    with pytest.raises(InvalidInput):
        nonpractical_witness([0, -2])


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
