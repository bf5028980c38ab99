import functools
import math
import random
from bisect import bisect_right
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practicum import arith
from practicum import (
    BudgetExceeded,
    Factorization,
    InvalidInput,
    crt_solve,
    factor_budget,
    factorize,
    prime_stream,
    primes_upto,
    sigma,
    sigma_prime_power,
    valuation,
)
from helpers import is_prime_trial, time_limit


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


_TB = arith._TRIAL_BOUND  # the trial bound factorize runs with


def _factorize_under(n, budget):
    """factorize(n) under budget = (trial_bound, work_limit): the work limit
    set by factor_budget, the trial bound by patching arith._TRIAL_BOUND."""
    trial_bound, work_limit = budget
    with factor_budget(work_limit), mock.patch.object(arith, "_TRIAL_BOUND", trial_bound):
        return factorize(n)


def test_factorize_second_stage():
    # both factors above the trial bound: forces the rho stage
    p, q = 1_000_003, 1_000_033
    f = _factorize_under(p * q, (10**4, 1 << 23))
    assert f.factors == ((p, 1), (q, 1))
    f = factorize(p * p * q)
    assert f.factors == ((p, 2), (q, 1))


def test_factorize_budget_exceeded():
    n = (2**61 - 1) * (2**89 - 1)
    with pytest.raises(BudgetExceeded):
        _factorize_under(n, (100, 1000))


def test_work_error_names_n_not_the_cofactor():
    n = 2 * 1_000_003 * 1_000_033
    # the trial stage runs out at prime 11 (used = limit + 1); Pollard-Brent
    # runs out after the 6,542 trial primes below 2^16
    for limit, used in ((10, 11), (6543, 6545)):
        with factor_budget(limit), pytest.raises(BudgetExceeded) as exc:
            factorize(n)
        assert f"while factoring {n}:" in str(exc.value)
        assert (exc.value.limit, exc.value.used) == (limit, used)


def test_factor_budget_restores_the_outer_budget(monkeypatch):
    monkeypatch.setattr(arith, "_TRIAL_BOUND", 100)
    n = 1_000_003 * 1_000_033  # 10 units of work do not reach its factors
    factors = ((1_000_003, 1), (1_000_033, 1))
    tight, loose = 10, 1 << 23
    with factor_budget(tight):
        with pytest.raises(BudgetExceeded):
            factorize(n)
    assert factorize(n).factors == factors  # after a normal exit
    with pytest.raises(BudgetExceeded):
        with factor_budget(tight):
            factorize(n)
    assert factorize(n).factors == factors  # after an exception
    with factor_budget(tight):
        with factor_budget(loose):
            assert factorize(n).factors == factors
        with pytest.raises(BudgetExceeded):  # the inner exit restored tight
            factorize(n)
    assert arith._work_limit.get() == arith.DEFAULT_WORK_LIMIT


def test_factorize_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        factorize(0)


@pytest.mark.parametrize("n", [12.0, 12.5, "12", None])
def test_factorize_rejects_non_integers(n):
    with pytest.raises(InvalidInput, match=f"integer, got {n!r}"):
        factorize(n)


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
    with pytest.raises(InvalidInput, match="congruences conflict"):
        crt_solve([(1, 2), (0, 2)])


def test_crt_non_coprime():
    assert crt_solve([(2, 4), (4, 6)]) == (10, 12)
    with pytest.raises(InvalidInput, match="congruences conflict"):
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


@functools.cache
def _primes_by_is_prime() -> tuple[int, ...]:
    """The primes below 2^17 + 2, by _is_prime, which shares no code with
    the sieve behind prime_stream and primes_upto."""
    return tuple(n for n in range((1 << 17) + 2) if arith._is_prime(n))


def test_prime_stream():
    it = prime_stream()
    first = [next(it) for _ in range(25)]
    assert first[:3] == [2, 3, 5]
    assert first[3] == 7
    assert first[24] == 97
    # below 2^17: every doubling window [2, 4) ... [2^14, 2^15) and the
    # first three windows of full width 2^15
    expected = [p for p in _primes_by_is_prime() if p < 1 << 17]
    assert first + list(islice(it, len(expected) - 25)) == expected
    assert next(it) == 131101  # the first prime past 2^17


def test_prime_stream_charges_a_unit_per_prime():
    it = prime_stream()
    with factor_budget(5):
        assert [next(it) for _ in range(5)] == [2, 3, 5, 7, 11]
        with pytest.raises(BudgetExceeded, match="raise --factor-work"):
            next(it)


def test_walking_2_18_primes_takes_seconds_not_minutes():
    with time_limit(3):  # Miller-Rabin on every integer took about 8.6 s
        assert list(islice(prime_stream(), 2**18))[-1] == 3681131


def test_primes_upto_matches_is_prime():
    primes = _primes_by_is_prime()
    limits = {0, 1, 2, 3}
    limits.update(p * p + d for p in primes if p <= 60 for d in (-1, 0, 1))
    limits.update((1 << k) + d for k in range(18) for d in (-1, 1))
    for limit in sorted(limits):
        got = primes_upto(limit)
        assert got.dtype == np.int64
        assert got.tolist() == list(primes[:bisect_right(primes, limit)]), limit
    assert primes[:1229] == tuple(n for n in range(2, 10**4) if is_prime_trial(n))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sieve_window_matches_is_prime(data):
    lo = data.draw(st.integers(2, 10**5 - 1), label="lo")
    hi = data.draw(st.integers(lo + 1, 10**5), label="hi")
    primes = set(_primes_by_is_prime())
    assert arith._sieve(lo, hi) == bytes(n in primes for n in range(lo, hi))


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


def _prime_loop_factorize(n, budget):
    """factorize with one trial division per prime, the primes from _is_prime."""
    trial_bound, work_limit = budget
    meter = arith._WorkMeter(work_limit, 0, n)
    factors = {}
    for d in _primes_by_is_prime():
        if d * d > n or d > trial_bound:
            break
        meter.used += 1  # meter.charge(1), inlined to keep the oracle fast
        if meter.used > work_limit:
            meter.charge(0)
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors[d] = e
    rng = random.Random(0xC0FFEE)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < d * d or arith._is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        f = arith._brent_rho(m, meter, rng)
        stack.append(f)
        stack.append(m // f)
    return Factorization(tuple(sorted(factors.items())))


def _outcome(f, n, budget):
    try:
        return f(n, budget)
    except BudgetExceeded as exc:
        return type(exc), str(exc), exc.knob, exc.limit, exc.used


def _assert_matches_prime_loop(n, budget):
    expected = _outcome(_prime_loop_factorize, n, budget)
    assert _outcome(_factorize_under, n, budget) == expected, (n, budget)
    return expected


_TRIAL_BOUNDS = (2, 3, 6, 7, 49, 100, 1619, 12345, 1 << 16, 70000)
_WORK_LIMITS = (0, 1, 3, 16, 17, 50, 1000, 1 << 23)
_P = _primes_by_is_prime  # _P()[j] is the prime with index j, 2 having index 0


def test_block_gcd_trial_division_matches_the_prime_loop():
    rng = random.Random(11)
    straddling = [p for p in range((1 << 16) - 1500, (1 << 16) + 1500) if is_prime_trial(p)]
    small = [p for p in range(2, 2000) if is_prime_trial(p)]
    for case in range(20_000):
        kind = case % 3
        if kind == 0:
            n = rng.randrange(1, 10**6)
        elif kind == 1:
            n = rng.randrange(1, 10**14)
        else:
            n = rng.choice(straddling) ** rng.randrange(1, 3) * rng.choice(straddling)
            n *= rng.choice(small) ** rng.randrange(0, 3) * rng.randrange(1, 100)
        _assert_matches_prime_loop(n, (rng.choice(_TRIAL_BOUNDS), rng.choice(_WORK_LIMITS)))


def _block_edges(blocks):
    """The first and last prime of each of blocks 0, 1, ..., blocks - 1."""
    block = arith._BLOCK
    return [_P()[j] for b in range(blocks) for j in (b * block, (b + 1) * block - 1)]


def test_prime_factor_at_a_block_edge():
    blocks = bisect_right(_P(), 1 << 16) // arith._BLOCK  # the blocks below the default bound
    ends = _block_edges(blocks)
    assert len(ends) == 50
    for c in ends:
        for n in (c, c * c, 2 * c * 1_000_003, c * 65537**2, c**3 * (c + 2)):
            f = _assert_matches_prime_loop(n, (_TB, 1 << 23))
            assert dict(f.factors)[c] >= 1


def test_trial_table_ends_at_the_first_prime_above_its_bound():
    for bound in _TRIAL_BOUNDS:
        primes, _ = arith._trial_table(bound)
        assert primes == _P()[:bisect_right(_P(), bound) + 1], bound
        assert primes[-2] <= bound < primes[-1], bound


def test_a_walk_finishes_on_its_own_table_while_another_is_made(monkeypatch):
    # a walk reads the trial bound and its table once: the table for bound
    # 100, made mid-walk, is too short to hold the walk's next prime
    p = _P()[arith._BLOCK + 10]
    walk = arith._prime_powers(p * 1_000_000_007 * 1_000_000_009)
    assert next(walk) == (p, 1)
    primes, products = arith._trial_table(_TB)
    monkeypatch.setattr(arith, "_TRIAL_BOUND", 100)
    assert factorize(101 * 103).factors == ((101, 1), (103, 1))
    assert arith._trial_table(100)[0] == _P()[:26]
    assert list(walk) == [(1_000_000_007, 1), (1_000_000_009, 1)]
    assert arith._trial_table(_TB)[0] is primes
    assert products == tuple(math.prod(primes[b * arith._BLOCK:(b + 1) * arith._BLOCK])
                             for b in range(26))


def test_trial_bound_on_between_and_inside_blocks():
    block = arith._BLOCK
    bounds = [_P()[j] for j in (block - 1, block, 3 * block + block // 2)]
    bounds += [c + 1 for c in bounds] + [c - 1 for c in bounds]
    n = 1_000_000_007**2 * 1_000_003  # no factor <= any bound: the trial stage runs to it
    for tb in bounds:
        with time_limit(10):  # a stop short of a prime bound would retest its block forever
            work = bisect_right(_P(), tb)  # the primes <= tb, each charged once
            for limit in (work - 1, work, 1 << 23):
                _assert_matches_prime_loop(n, (tb, limit))
            f = _factorize_under(1_000_003 * 1_000_033 ** 2, (tb, 1 << 23))
            assert f.factors == ((1_000_003, 1), (1_000_033, 2))
            prime = 10**12 + 39
            assert _factorize_under(prime, (tb, work)).factors == ((prime, 1),)
            with pytest.raises(BudgetExceeded) as exc:
                _factorize_under(prime, (tb, work - 1))
            assert (exc.value.limit, exc.value.used) == (work - 1, work)


def test_square_of_the_first_candidate_above_the_trial_bound():
    # the trial stage ends with d = q, so q*q is not taken for a prime by m < d*d
    for q in (3, 11, 101, 967, _P()[3 * arith._BLOCK + 5], 65537):
        assert is_prime_trial(q)
        below = max(c for c in range(2, q) if is_prime_trial(c))
        for tb in range(below, q):
            budget = (tb, 1 << 23)
            assert _assert_matches_prime_loop(q * q, budget).factors == ((q, 2),)
            assert _factorize_under(q * q * 1_000_003, budget).factors == (
                (q, 2), (1_000_003, 1))


def _record_block_reads(monkeypatch) -> list[int]:
    """Make _trial_table hand out its block products in a tuple that
    records each index read; returns the list of those reads."""
    reads = []

    class Recorder(tuple):
        def __getitem__(self, b):
            reads.append(b)
            return tuple.__getitem__(self, b)

    table = arith._trial_table
    monkeypatch.setattr(arith, "_trial_table",
                        lambda bound: (table(bound)[0], Recorder(table(bound)[1])))
    return reads


def test_block_product_cache_stays_bounded(monkeypatch):
    # the default table holds the 6,543 primes through 65537 and the products
    # of their 26 blocks; every input walks each block up to the trial bound
    # and none past it
    primes, products = arith._trial_table(arith._TRIAL_BOUND)
    assert len(primes) == 6543 and primes[-1] == 65537
    assert products == tuple(math.prod(primes[b * arith._BLOCK:(b + 1) * arith._BLOCK])
                             for b in range(26))
    reads = _record_block_reads(monkeypatch)
    for n in (65537 * 65539, 1_000_003 * 1_000_033**2, 10**30 + 57):
        reads.clear()
        factorize(n)
        assert sorted(set(reads)) == list(range(26)), n


def test_the_walk_returns_to_block_gcds_after_a_factor(monkeypatch):
    # a factor found while a flagged block is walked prime by prime restarts
    # the count of _WALK primes, after which one gcd tests the rest of the block
    blocks = _record_block_reads(monkeypatch)
    p = _P()[arith._BLOCK + 10]
    assert factorize(p * 1_000_000_007 * 1_000_000_009).factors == (
        (p, 1), (1_000_000_007, 1), (1_000_000_009, 1))
    assert blocks[:4] == [0, 1, 1, 2]


def test_cofactor_drops_below_d_squared_inside_a_block():
    block = arith._BLOCK
    j = 2 * block + block // 2
    p = _P()[j]
    q = next(c for c in range(p + 2, p * p) if is_prime_trial(c))
    r = next(c for c in range(p * p + 1, 2 * p * p) if is_prime_trial(c))
    work = j + 1  # the walk stops right after p: q < next prime^2
    for n, factors in ((p * q, ((p, 1), (q, 1))), (p**2 * r, ((p, 2), (r, 1)))):
        assert _factorize_under(n, (_TB, work)).factors == factors
        with pytest.raises(BudgetExceeded):
            _factorize_under(n, (_TB, work - 1))
        for limit in (work - 1, work, 1 << 23):
            _assert_matches_prime_loop(n, (_TB, limit))
