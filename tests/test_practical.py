import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practicum import (
    BudgetExceeded,
    InvalidInput,
    certify_product,
    factor_budget,
    factorize,
    is_practical,
    is_practical_oracle,
    is_practical_quick,
    sigma,
    sieve_practicals,
)
from practicum.arith import _TRIAL_BOUND, _is_prime
from practicum.practical import MultiplierCertificate, PracticalityVerdict, StewartWitness
from helpers import time_limit


def test_verdict_examples():
    v = is_practical(1)
    assert v.practical and v.chain == ()
    v = is_practical(88)
    assert v.practical
    assert v.chain == ((2, 3, 15), (11, 1, 180))
    v = is_practical(10)
    assert not v.practical
    assert (v.witness.index, v.witness.prime, v.witness.bound) == (2, 5, 4)
    v = is_practical(3)
    assert not v.practical
    assert v.witness.prime == 3 and v.witness.bound == 2
    with pytest.raises(InvalidInput):
        is_practical(0)
    with pytest.raises(InvalidInput, match="defined for n >= 1, got 0"):
        is_practical_quick(0)


@pytest.mark.parametrize("n", [12.0, 12.5, "12", None])
def test_is_practical_rejects_non_integers(n):
    # a float such as 12.0 would otherwise factor and come back practical
    with pytest.raises(InvalidInput, match=f"integers, got {n!r}"):
        is_practical(n)


def test_oracle_examples():
    assert is_practical_oracle(6)
    assert not is_practical_oracle(10)
    assert is_practical_oracle(1)
    with pytest.raises(BudgetExceeded, match="raise --oracle-bound"):
        is_practical_oracle(10**6 + 1)
    assert is_practical_oracle(10**6 + 2, bound=10**6 + 2) in (True, False)


def test_structure_test_matches_oracle_small():
    for n in range(1, 2001):
        assert is_practical(n).practical == is_practical_oracle(n), n


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


def test_quick_matches_full():
    for n in range(1, 4001):
        assert is_practical_quick(n) == is_practical(n).practical, n
    rng = random.Random(5)
    for n in rng.sample(range(1, 10**7), 300):
        assert is_practical_quick(n) == is_practical(n).practical, n
    for _ in range(1000):
        n = rng.randrange(1, 10**12)
        for m in (n, 2 * n):
            assert is_practical_quick(m) == is_practical(m).practical, m
    # 2^k * p * q with p and q on both sides of the trial bound: the lazy
    # walk stops in the trial stage, in Miller-Rabin or after rho
    bound = _TRIAL_BOUND
    for _ in range(600):
        p = _next_prime(rng.randrange(bound - 3000, bound + 3000))
        q = _next_prime(rng.randrange(3, 1 << rng.randrange(2, 40)))
        n = 2 ** rng.randrange(0, 64) * p * q
        assert is_practical_quick(n) == is_practical(n).practical, n


def test_quick_hands_a_large_cofactor_to_miller_rabin():
    # sigma(2^120) + 1 = 2^121 passes the prime 10^30 + 57, so the walk must
    # not trial-divide toward its square root (10^15) but stop at the trial
    # bound and let Miller-Rabin prove it prime
    n = 2**120 * (10**30 + 57)
    with time_limit(2):
        assert is_practical_quick(n)
    with factor_budget(1000), pytest.raises(BudgetExceeded):
        is_practical_quick(n)  # the trial stage alone passes 6,542 primes
    assert not is_practical_quick(2 * (10**30 + 57))  # stops at 3 > sigma(2) + 1


def test_practical_numbers_above_one_are_even():
    bm = sieve_practicals(10**5)
    for n in bm.members().tolist():
        assert n == 1 or n % 2 == 0


def test_chain_replay_and_witness_inequality():
    for n in range(1, 5001):
        v = is_practical(n)
        assert v.replay()
        if not v.practical:
            w = v.witness
            assert w.prime > w.bound
            # recompute the bound from the factorization
            factors = factorize(n).factors
            assert factors[w.index - 1][0] == w.prime
            prefix_sigma = 1
            for p, e in factors[: w.index - 1]:
                prefix_sigma *= sigma(factorize(p**e))
            assert w.bound == prefix_sigma + 1


def test_replay_rejects_tampered_chain():
    from practicum.practical import PracticalityVerdict

    good = is_practical(88)
    assert not PracticalityVerdict(89, True, chain=good.chain).replay()
    assert not PracticalityVerdict(
        88, True, chain=((2, 3, 15), (17, 1, 15 * 18))
    ).replay()
    assert not PracticalityVerdict(88, False, witness=StewartWitness(1, 5, 3)).replay()


def test_negative_verdict_carries_practical_prefix():
    v = is_practical(10)
    assert v.chain == ((2, 1, 3),) and v.prefix == 2 and v.sigma == 3
    assert is_practical(88).prefix == 88
    v = is_practical(2**3 * 17 * 19)
    assert v.chain == ((2, 3, 15),) and v.witness == StewartWitness(2, 17, 16)
    assert is_practical(9).chain == () and is_practical(9).prefix == 1


def test_replay_rejects_forged_negative_verdicts():
    from practicum.practical import PracticalityVerdict

    good = is_practical(2**3 * 17 * 19)  # prefix 8, sigma 15, fails at 17
    assert good.replay()
    forged = [
        # witness index not right after the prefix
        PracticalityVerdict(good.n, False, good.chain, StewartWitness(3, 17, 16)),
        # bound not sigma(prefix) + 1
        PracticalityVerdict(good.n, False, good.chain, StewartWitness(2, 19, 18)),
        # prefix does not divide n
        PracticalityVerdict(3 * 17, False, good.chain, StewartWitness(2, 17, 16)),
        # witness prime does not divide n / prefix
        PracticalityVerdict(good.n, False, good.chain, StewartWitness(2, 23, 16)),
        # prefix chain itself broken
        PracticalityVerdict(good.n, False, ((2, 3, 16),), StewartWitness(2, 17, 17)),
        # no witness at all
        PracticalityVerdict(good.n, False, good.chain),
    ]
    for v in forged:
        assert not v.replay(), v


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: replay() does not check that n / prefix has no prime "
    "factor <= sigma(prefix) + 1, so a chain that skips the 3 of 30 replays",
)
def test_replay_rejects_a_negative_verdict_that_skips_a_small_prime():
    from practicum.practical import PracticalityVerdict

    assert is_practical(30).practical
    forged = PracticalityVerdict(30, False, chain=((2, 1, 3),), witness=StewartWitness(2, 5, 4))
    assert not forged.replay()


def test_replay_rejects_non_coprime_chain():
    from practicum.practical import PracticalityVerdict

    # Repeating 2 inflates running_sigma to 81 > sigma(16) = 31, which would
    # admit 61; 16 * 61 is not practical.
    chain = ((2, 1, 3), (2, 1, 9), (2, 1, 27), (2, 1, 81), (61, 1, 81 * 62))
    assert not PracticalityVerdict(16 * 61, True, chain).replay()
    assert not is_practical(16 * 61).practical
    # composite entries sharing a factor: 2, 4, 8 claim 135 > sigma(64) = 127
    chain = ((2, 1, 3), (4, 1, 15), (8, 1, 135), (131, 1, 135 * 132))
    assert not PracticalityVerdict(64 * 131, True, chain).replay()
    assert not PracticalityVerdict(1, True, ((1, 1, 1),)).replay()


def test_strong_pseudoprime_psi12_is_not_taken_for_a_prime():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to every base
    # up to 37; read as a prime it fails 2^38's bound and the verdict flips.
    n = 2**38 * 399165290221 * 798330580441
    v = is_practical(n)
    assert v.practical and v.replay()
    assert [p for p, _, _ in v.chain] == [2, 399165290221, 798330580441]


def test_strong_pseudoprime_psi13_is_not_taken_for_a_prime():
    # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to every base
    # up to 41; read as a prime it fails 2^42's bound and the verdict flips.
    n = 2**42 * 1287836182261 * 2575672364521
    v = is_practical(n)
    assert v.practical and v.replay()
    assert [p for p, _, _ in v.chain] == [2, 1287836182261, 2575672364521]


def test_sigma_lower_bound_for_practical():
    # sigma(n) >= 2n - 1 justifies the factorization-free certificate bound
    bm = sieve_practicals(2 * 10**4)
    for n in bm.members().tolist():
        assert sigma(factorize(n)) >= 2 * n - 1


def test_certify_product_examples():
    cert = certify_product(is_practical(88), 101, doubling=True)
    assert cert.value == 8888
    assert cert.bound == 175
    assert cert.verify()
    assert is_practical(8888).practical

    cert = certify_product(is_practical(2), 3)
    assert cert.value == 6 and cert.bound == 4
    assert cert.verify()

    with pytest.raises(InvalidInput, match="exceeds provable bound"):
        certify_product(is_practical(2), 5)
    assert not is_practical(10).practical  # and indeed 10 is not practical


def test_certify_product_rejects_non_practical_base():
    with pytest.raises(InvalidInput):
        certify_product(is_practical(10), 2)
    forged = MultiplierCertificate(
        base=88, multiplier=176, bound=175, bound_kind="doubling", base_evidence=is_practical(88)
    )
    with pytest.raises(InvalidInput, match="base evidence certificate does not verify"):
        certify_product(forged, 2)


def test_certify_product_replays_a_verdict_base():
    # a positive verdict whose chain does not reach n does not replay
    with pytest.raises(InvalidInput, match="does not prove 22 practical"):
        certify_product(PracticalityVerdict(22, True, ((2, 1, 3),)), 1)


def test_certificate_chains_and_tampering():
    c1 = certify_product(is_practical(88), 101, doubling=True)
    c2 = certify_product(c1, 10001, doubling=True)
    assert c2.value == 88888888
    assert c2.verify()
    at_bound = MultiplierCertificate(
        base=c1.value,
        multiplier=2 * c1.value - 1,
        bound=2 * c1.value - 1,
        bound_kind="doubling",
        base_evidence=c1,
    )
    assert at_bound.verify()  # bound honored: fine
    worse = MultiplierCertificate(
        base=c1.value,
        multiplier=2 * c1.value,
        bound=2 * c1.value - 1,
        bound_kind="doubling",
        base_evidence=c1,
    )
    assert not worse.verify()
    wrong_base = MultiplierCertificate(
        base=c1.value + 2,
        multiplier=3,
        bound=2 * (c1.value + 2) - 1,
        bound_kind="doubling",
        base_evidence=c1,
    )
    assert not wrong_base.verify()
    unknown_kind = MultiplierCertificate(
        base=c1.value,
        multiplier=3,
        bound=2 * c1.value - 1,
        bound_kind="tripling",
        base_evidence=c1,
    )
    assert not unknown_kind.verify()


_PRACTICALS = sieve_practicals(10**4).members().tolist()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_certify_product_returns_only_certificates_that_verify(data):
    verdict = is_practical(data.draw(st.sampled_from(_PRACTICALS)))
    doubling = data.draw(st.booleans())
    bound = 2 * verdict.n - 1 if doubling else verdict.sigma + 1
    multiplier = data.draw(st.integers(-2, 2 * bound))
    field = data.draw(st.sampled_from(["none", "n", "practical", "chain"]))
    forged = verdict
    if field == "n":
        n = data.draw(st.integers(1, 2 * 10**4).filter(lambda m: m != verdict.n))
        forged = dataclasses.replace(verdict, n=n)
    elif field == "practical":
        forged = dataclasses.replace(verdict, practical=False)
    elif field == "chain" and verdict.chain:
        chain = [list(entry) for entry in verdict.chain]
        i = data.draw(st.integers(0, len(chain) - 1))
        j = data.draw(st.integers(0, 2))
        chain[i][j] = data.draw(st.integers(-1, 200).filter(lambda v: v != chain[i][j]))
        forged = dataclasses.replace(verdict, chain=tuple(map(tuple, chain)))
    try:
        cert = certify_product(forged, multiplier, doubling)
    except InvalidInput:
        assert forged is not verdict or not 1 <= multiplier <= bound
        return
    assert forged.replay()  # a verdict that does not replay is never certified
    assert cert.verify() and cert.value == forged.n * multiplier
