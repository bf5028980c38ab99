import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practicum import (
    InvalidInput,
    IterationCap,
    QuadraticPoly,
    ScanBudgetExceeded,
    classify_quadratic,
    is_practical,
    is_practical_quick,
    least_infinite_prime,
    mq,
    quad_constructive_witness,
    quad_practical_stream,
    valuation,
)
from practicum.quadratics import (
    FiniteWitness,
    InfiniteWitness,
    _roots_mod_prime,
    _roots_mod_prime_power,
)
from helpers import mq_oracle


def test_poly_validation():
    with pytest.raises(InvalidInput):
        QuadraticPoly(0, 1, 1)
    q = QuadraticPoly(2, -4, 2)
    assert q(3) == 8
    assert q.discriminant == 0
    assert q.content == 2
    assert q.primitive() == QuadraticPoly(1, -2, 1)


def _check_infinite_witness(q, res):
    w = res.witness
    assert isinstance(w, InfiniteWitness)
    q1 = q.primitive()
    p = res.p
    if w.kind == "hensel":
        fv = q1(w.root)
        dv = q1.derivative(w.root)
        if w.val_q is None:
            assert fv == 0
        else:
            assert valuation(fv, p) == w.val_q
            assert valuation(dv, p) == w.val_dq
            assert w.val_q >= 2 * w.val_dq + 1  # the lifting gap condition
        assert fv % p**w.level == 0
    else:
        assert w.kind == "double_root"
        assert q1.discriminant == 0
        assert w.val_lead == valuation(2 * q1.a, p)
        if q1.b:
            assert w.val_lin == valuation(q1.b, p)
            assert w.val_lead <= w.val_lin
        else:
            assert w.val_lin is None
        assert q1(w.root) % p**w.level == 0


def _check_finite_witness(q, res):
    w = res.witness
    assert isinstance(w, FiniteWitness)
    prim_level = res.exponent - res.content_val
    assert w.empty_level == prim_level + 1
    q1 = q.primitive()
    p = res.p
    if prim_level == 0:
        assert w.root is None
        assert all(q1(n) % p for n in range(p))
    else:
        assert q1(w.root) % p**prim_level == 0


def test_mq_examples():
    res = mq(QuadraticPoly(1, 1, 2), 2)
    assert res.infinite
    _check_infinite_witness(QuadraticPoly(1, 1, 2), res)

    res = mq(QuadraticPoly(1, 0, 3), 2)
    assert res.exponent == 2
    _check_finite_witness(QuadraticPoly(1, 0, 3), res)

    res = mq(QuadraticPoly(1, 0, 3), 7)
    assert res.infinite
    assert res.witness.kind == "hensel"

    res = mq(QuadraticPoly(1, 0, 1), 3)
    assert res.exponent == 0
    assert res.witness.root is None


def test_mq_degenerate_discriminant():
    # (n+1)^2: integer double root
    assert mq(QuadraticPoly(1, 2, 1), 2).infinite
    assert mq(QuadraticPoly(1, 2, 1), 7).infinite
    # (3n-2)^2: root 2/3 is a 2-adic and 5-adic integer but not a 3-adic one
    q = QuadraticPoly(9, -12, 4)
    assert mq(q, 2).infinite
    assert mq(q, 5).infinite
    res = mq(q, 3)
    assert res.exponent == 0
    # (2n+1)^2: root -1/2, odd values only
    res = mq(QuadraticPoly(4, 4, 1), 2)
    assert res.exponent == 0
    # a*n^2: root 0 at every level
    res = mq(QuadraticPoly(1, 0, 0), 5)
    assert res.infinite and res.witness.kind == "double_root"
    res = mq(QuadraticPoly(3, 0, 0), 3)
    assert res.infinite and res.content_val == 1


def test_mq_rejects_composite_p():
    q = QuadraticPoly(1, 0, 3)
    for p in (-3, 0, 1, 4, 9, 91, 561, 2047 * 4093):
        with pytest.raises(InvalidInput):
            mq(q, p)


def _exhaustive_roots(a, b, c, modulus):
    ns = np.arange(modulus, dtype=np.int64)
    return np.nonzero((a * ns * ns + b * ns + c) % modulus == 0)[0].tolist()


SMALL_GRID = list(product(range(1, 5), range(-4, 5), range(-4, 5)))


def test_roots_mod_prime_power_matches_exhaustive_scan():
    cap = 8
    for p in (2, 3, 5, 7, 11, 13):
        # the scaled copies put content divisible by p into every prime's grid
        for a, b, c in SMALL_GRID + [(p * a, p * b, p * c) for a, b, c in SMALL_GRID]:
            q = QuadraticPoly(a, b, c)
            for k in (1, 2, 3):
                got = _roots_mod_prime_power(q, p, k, cap)
                if got is None:
                    assert q.content % p**k == 0, (q, p, k)
                    continue
                assert got == _exhaustive_roots(a, b, c, p**k)[:cap], (q, p, k)


def test_roots_mod_prime_matches_exhaustive_scan():
    primes = [p for p in range(31, 102) if all(p % d for d in range(2, p))]
    rng = random.Random(31)
    for p in primes:
        polys = SMALL_GRID + [
            (p, 1, 2), (p, 0, 5), (p, 0, 0), (2 * p, 3 * p, p), (p * p, p, 0)
        ] + [
            (rng.randint(1, 10**6), rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
            for _ in range(40)
        ]
        for a, b, c in polys:
            assert _roots_mod_prime(QuadraticPoly(a, b, c), p) == _exhaustive_roots(
                a, b, c, p
            ), (a, b, c, p)


def test_mq_content_split():
    # 4(n+1)^2: content contributes v_p, primitive part decides the rest
    res = mq(QuadraticPoly(4, 8, 4), 2)
    assert res.infinite and res.content_val == 2
    res = mq(QuadraticPoly(6, 0, 18), 3)  # 6(n^2 + 3)
    assert res.content_val == 1
    assert res.exponent == 1 + 1  # m of n^2+3 at 3 is 1


def test_mq_matches_oracle_medium_grid():
    # the acceptance suite runs the full |coeff| <= 10 grid; keep a fast
    # negative-coefficient slice here
    for a in (1, 2, 3):
        for b in range(-4, 5):
            for c in range(-4, 5):
                q = QuadraticPoly(a, b, c)
                for p in (2, 3, 5):
                    res = mq(q, p)
                    kind, lvl = mq_oracle(a, b, c, p)
                    if res.infinite:
                        assert kind == "at_least", (a, b, c, p)
                    elif kind == "finite":
                        assert res.exponent == lvl, (a, b, c, p)
                    else:
                        assert res.exponent >= lvl, (a, b, c, p)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 11, 13)),
    coeffs=st.tuples(st.integers(1, 20), st.integers(-500, 500), st.integers(-500, 500)),
    shifts=st.tuples(st.integers(0, 2), st.integers(0, 6), st.integers(0, 8)),
)
def test_mq_matches_oracle_on_random_polynomials(p, coeffs, shifts):
    # the shifts put high powers of p into the coefficients, where the
    # class split runs deep
    a, b, c = (x * p**s for x, s in zip(coeffs, shifts))
    res = mq(QuadraticPoly(a, b, c), p)
    kind, lvl = mq_oracle(a, b, c, p)
    if kind == "finite":
        assert res.exponent == lvl
    else:
        assert res.infinite or res.exponent >= lvl


def test_mq_high_valuation_runs_one_class_per_level():
    # listing every root mod 5^k made m_q exponential in k = 24
    q = QuadraticPoly(1, 0, -2 * 5**24)
    res = mq(q, 5)
    assert res.exponent == 24
    _check_finite_witness(q, res)
    assert classify_quadratic(q).exponents == (1, 0, 24)
    # 4 + 5^60 is a 5-adic square, so n^2 - (4 + 5^60) 5^24 has a 5-adic root
    q = QuadraticPoly(1, 0, -(4 + 5**60) * 5**24)
    res = mq(q, 5)
    assert res.infinite
    _check_infinite_witness(q, res)


def test_mq_content_decomposition_against_oracle():
    rng = random.Random(9)
    for _ in range(60):
        g = rng.choice((2, 3, 4, 6, 9, 12))
        a = rng.randrange(1, 5)
        b = rng.randrange(-4, 5)
        c = rng.randrange(-4, 5)
        q = QuadraticPoly(a * g, b * g, c * g)
        for p in (2, 3):
            res = mq(q, p)
            part = mq(QuadraticPoly(a, b, c).primitive(), p)
            v = valuation(q.content, p)
            if res.infinite:
                assert part.infinite
            else:
                assert res.exponent == v + part.exponent
                kind, lvl = mq_oracle(q.a, q.b, q.c, p)
                if kind == "finite":
                    assert res.exponent == lvl


def test_least_infinite_prime_examples():
    assert least_infinite_prime(QuadraticPoly(1, 1, 2)) == (1, 2, ())
    assert least_infinite_prime(QuadraticPoly(1, 0, 1)) == (3, 5, (1, 0))
    assert least_infinite_prime(QuadraticPoly(1, 0, 3)) == (4, 7, (2, 1, 0))
    with pytest.raises(IterationCap):
        least_infinite_prime(QuadraticPoly(1, 0, 1), prime_cap=2)


def test_classify_anchors():
    cls = classify_quadratic(QuadraticPoly(1, 1, 2))
    assert cls.case == "infinitely_many" and cls.witness_n == 2

    cls = classify_quadratic(QuadraticPoly(1, 0, 1))
    assert cls.case == "finitely_many" and cls.witness_n == 10
    assert not cls.verdict_n.practical

    cls = classify_quadratic(QuadraticPoly(1, 0, 3))
    assert cls.case == "infinitely_many" and cls.witness_n == 84
    assert cls.verdict_n.practical


def test_lemma_grid_all_even_constant_infinite_at_two():
    for a in (1, 3, 5, 7, 9):
        for b in (1, 3, 5, 7, 9):
            for c in (2, 4, 6, 8):
                assert mq(QuadraticPoly(a, b, c), 2).infinite, (a, b, c)


def test_stream_examples():
    assert quad_practical_stream(QuadraticPoly(1, 1, 2), 3) == [4, 8, 32]
    # q(3) = 12 is practical, so the two smallest hits are 4 and 12
    assert quad_practical_stream(QuadraticPoly(1, 0, 3), 2) == [4, 12]
    assert quad_practical_stream(QuadraticPoly(1, 0, 3), 3) == [4, 12, 28]
    assert quad_practical_stream(QuadraticPoly(1, 0, 1), 5) == [2]


def test_stream_handles_negative_vertex():
    # values dip before the vertex; smallest hits must still come out sorted
    q = QuadraticPoly(1, -8, 18)  # 11, 6, 3, 2, 3, 6, 11, 18, ...
    assert quad_practical_stream(q, 2) == [2, 6]


def test_stream_budget():
    with pytest.raises(ScanBudgetExceeded):
        quad_practical_stream(QuadraticPoly(1, 1, 2), 500, n_limit=30)


def test_constructive_witness_contract():
    q = QuadraticPoly(1, 1, 2)
    w = quad_constructive_witness(q, 10)
    assert w.value >= 10 and w.value == q(w.n)
    assert w.verdict.verify() and w.verdict.value == w.value
    assert w.value % w.modulus == 0
    assert w.modulus_verdict.practical
    assert w.multiplier <= w.modulus_verdict.sigma + 1

    w = quad_constructive_witness(q, 1)
    assert w.value >= 1 and w.verdict.practical

    q = QuadraticPoly(1, 0, 3)
    w = quad_constructive_witness(q, 100)
    assert w.value > 100 and w.value == q(w.n)
    assert w.value % 7**w.k == 0
    assert w.verdict.verify() and w.verdict.value == w.value


def test_constructive_witness_nonmonic():
    for coeffs, threshold in (
        ((5, 3, 2), 50),
        ((6, 5, 4), 1000),
        ((2, 0, 2), 10**4),
        ((4, 2, 6), 777),
    ):
        q = QuadraticPoly(*coeffs)
        w = quad_constructive_witness(q, threshold)
        assert w.value >= threshold and w.value == q(w.n)
        assert w.verdict.verify() and w.verdict.value == w.value


def test_constructive_witness_single_root_class():
    # 8n^2 - 2n = 2n(4n - 1) has only n = 0 mod 2^(k-1); the root-combination
    # search must steer n away from the worst residue or the multiplier
    # bound can never be met
    q = QuadraticPoly(8, -2, 0)
    w = quad_constructive_witness(q, 99991)
    assert w.value >= 99991 and w.value == q(w.n)
    assert w.verdict.verify() and w.verdict.value == w.value
    assert w.multiplier <= w.modulus_verdict.sigma + 1


def test_constructive_witness_random_polys():
    rng = random.Random(14)
    done = 0
    while done < 60:
        q = QuadraticPoly(
            rng.randrange(1, 21), rng.randrange(-20, 21), rng.randrange(-20, 21)
        )
        if classify_quadratic(q).case != "infinitely_many":
            continue
        threshold = rng.choice((1, 50, 4000, 10**5))
        w = quad_constructive_witness(q, threshold)
        assert w.value >= threshold and w.value == q(w.n) and w.n >= 1
        assert w.verdict.verify() and w.verdict.value == w.value
        assert w.value % w.modulus == 0
        assert w.multiplier <= w.modulus_verdict.sigma + 1
        done += 1


def test_constructive_witness_negative_vertex_values():
    q = QuadraticPoly(1, -200, 150)  # negative until n = 200ish
    w = quad_constructive_witness(q, 10)
    assert w.value >= 10 and w.value == q(w.n) and w.verdict.practical


def test_constructive_witness_rejects_finite():
    with pytest.raises(InvalidInput):
        quad_constructive_witness(QuadraticPoly(1, 0, 1), 10)


SQUARES = ((1, 2, 1), (1, 4, 4), (2, 4, 2), (2, 8, 8), (3, 6, 3), (4, 8, 4))


def _assert_witness(q, threshold):
    w = quad_constructive_witness(q, threshold)
    assert w.value >= threshold and w.value == q(w.n) and w.n >= 1
    assert w.value == w.modulus * w.multiplier
    assert w.verdict.verify() and w.verdict.value == w.value
    assert w.verdict.base == w.modulus and w.verdict.bound_kind == "sigma"


@pytest.mark.parametrize("coeffs", SQUARES, ids=[f"{a},{b},{c}" for a, b, c in SQUARES])
def test_square_quadratic_witness_at_1e12(coeffs):
    # the root set of a square mod 2^k has ~2^(k/2) members; keeping only a
    # prefix of each level once lost every root that lifts to 2^40
    _assert_witness(QuadraticPoly(*coeffs), 10**12)


def test_roots_of_squares_mod_high_prime_powers_match_exhaustive_scan():
    for a, b, c in SQUARES + ((1, 0, 0), (9, -6, 1)):
        q = QuadraticPoly(a, b, c)
        for p in (2, 3, 5):
            k = 1
            while p**k <= 2 * 10**5:
                got = _roots_mod_prime_power(q, p, k)
                if got is None:
                    assert q.content % p**k == 0, (q, p, k)
                else:
                    assert got == _exhaustive_roots(a, b, c, p**k)[:8], (q, p, k)
                k += 1
    # n = 2^15 - 1 is a root of (n + 1)^2 mod 2^30, and the least one
    assert _roots_mod_prime_power(QuadraticPoly(1, 2, 1), 2, 30)[0] == 2**15 - 1


def test_every_infinite_small_quadratic_has_a_witness_at_1e12():
    done = 0
    for a, b, c in product(range(1, 5), range(-8, 9), range(-8, 9)):
        q = QuadraticPoly(a, b, c)
        if classify_quadratic(q).case == "infinitely_many":
            _assert_witness(q, 10**12)
            done += 1
    assert done == 836
