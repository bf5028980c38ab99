import math
import random

import pytest

from practicum import arith
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
from helpers import is_prime_trial


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
    while len(expected) < 1229:
        expected.append(next(it))
    assert primes_upto(10**4).tolist() == expected
    assert expected == [n for n in range(2, 10**4) if is_prime_trial(n)]


PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_primality_past_the_miller_rabin_proven_range():
    # psi_13 passes Miller-Rabin to every base 2..41; the strong Lucas test
    # applied from psi_13 on rejects it
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not arith._is_prime(PSI_13)
    assert arith._is_prime(2**89 - 1)
    assert arith._is_prime(2**127 - 1)
    assert not arith._is_prime((2**61 - 1) * (2**89 - 1))
    assert not arith._is_prime((2**89 - 1) ** 2)


def test_strong_lucas_pseudoprimes_below_1e5():
    # the odd composites below 10^5 that pass the Selfridge strong Lucas test
    # (OEIS A217255); below psi_13 only Miller-Rabin decides
    passing = [
        n for n in range(43, 10**5, 2)
        if arith._strong_lucas(n) and not arith._is_prime(n)
    ]
    assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                       40309, 58519, 75077, 97439]
    assert all(arith._strong_lucas(p) for p in primes_upto(10**5).tolist() if p > 41)


def test_jacobi_matches_eulers_criterion():
    for p in filter(is_prime_trial, range(3, 200, 2)):
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            assert arith._jacobi(a, p) == (-1 if euler == p - 1 else euler), (a, p)
