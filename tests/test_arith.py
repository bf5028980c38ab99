import math
import random

import pytest

from practicum import (
    BudgetExceeded,
    FactorBudget,
    Factorization,
    InconsistentSystem,
    InvalidInput,
    crt_solve,
    factorize,
    prime_stream,
    primes_upto,
    sigma,
    sigma_prime_power,
    valuation,
)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(84).factors == ((2, 2), (3, 1), (7, 1))
    assert factorize(88).factors == ((2, 3), (11, 1))


def test_factorize_roundtrip_random():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        f = factorize(n)
        assert f.value == n
        assert all(e >= 1 for _, e in f)
        primes = [p for p, _ in f]
        assert primes == sorted(primes)


def test_factorize_second_stage():
    # both factors above the trial bound: forces the rho stage
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q, FactorBudget(trial_bound=10**4, work_limit=1 << 23))
    assert f.factors == ((p, 1), (q, 1))
    f = factorize(p * p * q)
    assert f.factors == ((p, 2), (q, 1))


def test_factorize_budget_exceeded():
    n = (2**61 - 1) * (2**89 - 1)
    with pytest.raises(BudgetExceeded):
        factorize(n, FactorBudget(trial_bound=100, work_limit=1000))


def test_factorize_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        factorize(0)


def test_factorization_validates():
    with pytest.raises(InvalidInput):
        Factorization(((3, 1), (2, 1)))
    with pytest.raises(InvalidInput):
        Factorization(((2, 0),))


def test_sigma_values():
    assert sigma(factorize(8)) + 1 == 16
    assert sigma(factorize(2)) + 1 == 4
    assert sigma(factorize(4)) + 1 == 8
    assert sigma(factorize(1)) == 1
    assert sigma(factorize(88)) == 180
    assert sigma_prime_power(2, 3) == 15


def test_sigma_multiplicative_on_coprime_pairs():
    rng = random.Random(2)
    checked = 0
    while checked < 200:
        a = rng.randrange(2, 10**5)
        b = rng.randrange(2, 10**5)
        if math.gcd(a, b) != 1:
            continue
        assert sigma(factorize(a * b)) == sigma(factorize(a)) * sigma(factorize(b))
        checked += 1


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(24, 5) == 0
    assert valuation(480480, 13) == 1
    assert valuation(-24, 2) == 3
    with pytest.raises(InvalidInput):
        valuation(0, 2)


def test_crt_examples():
    assert crt_solve([(5, 8), (2, 3), (2, 5), (6, 7)]) == (797, 840)
    assert crt_solve([(0, 2), (0, 3)]) == (0, 6)
    with pytest.raises(InconsistentSystem):
        crt_solve([(1, 2), (0, 2)])


def test_crt_non_coprime():
    assert crt_solve([(2, 4), (4, 6)]) == (10, 12)
    with pytest.raises(InconsistentSystem):
        crt_solve([(2, 4), (3, 6)])


def test_crt_substitution_random():
    rng = random.Random(3)
    built = 0
    while built < 200:
        moduli = [rng.randrange(2, 120) for _ in range(rng.randrange(1, 6))]
        x = rng.randrange(0, math.lcm(*moduli))
        system = [(x % m, m) for m in moduli]
        r, m = crt_solve(system)
        assert m == math.lcm(*moduli)
        assert r == x % m
        for ri, mi in system:
            assert r % mi == ri
        built += 1


def test_crt_rejects_bad_inputs():
    with pytest.raises(InvalidInput):
        crt_solve([(0, 1)])
    with pytest.raises(InvalidInput):
        crt_solve([(5, 3)])


def test_prime_stream():
    it = prime_stream()
    first = [next(it) for _ in range(25)]
    assert first[:3] == [2, 3, 5]
    assert first[3] == 7
    assert first[24] == 97
    assert first == primes_upto(97).tolist()


def test_primes_upto_matches_stream():
    it = prime_stream()
    expected = []
    while len(expected) < 168:
        expected.append(next(it))
    assert primes_upto(1000).tolist() == expected

