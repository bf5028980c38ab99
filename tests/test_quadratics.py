import hashlib
import random
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practicum import quadratics
from practicum import (
    BudgetExceeded,
    InvalidInput,
    QuadraticPoly,
    classify_quadratic,
    crt_solve,
    factor_budget,
    is_practical,
    is_practical_quick,
    mq,
    prime_stream,
    quad_constructive_witness,
    quad_practical_stream,
    valuation,
)
from practicum.arith import _jacobi
from practicum.quadratics import (
    FiniteWitness,
    InfiniteWitness,
    _roots_mod_prime,
    _roots_mod_prime_power,
)
from helpers import mq_oracle, time_limit


def test_poly_validation():
    with pytest.raises(InvalidInput):
        QuadraticPoly(0, 1, 1)
    q = QuadraticPoly(2, -4, 2)
    assert q(3) == 8
    assert q.discriminant == 0
    assert q.content == 2
    assert q.primitive() == QuadraticPoly(1, -2, 1)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None])
def test_poly_rejects_non_integer_coefficients(bad):
    for coeffs in ((bad, 0, 1), (1, bad, 1), (1, 0, bad)):
        with pytest.raises(InvalidInput, match=f"integers, got {bad!r}"):
            QuadraticPoly(*coeffs)


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


def test_classify_tests_no_walked_prime_twice(monkeypatch):
    # prime_stream proves each prime it yields; the walk does not test it again
    calls = []
    is_prime = quadratics._is_prime
    monkeypatch.setattr(quadratics, "_is_prime", lambda p: calls.append(p) or is_prime(p))
    cls = classify_quadratic(QuadraticPoly(1, 0, 1))
    assert cls.r >= 2 and calls == []
    with pytest.raises(InvalidInput):
        mq(QuadraticPoly(1, 0, 1), 4)
    assert calls == [4]


def _exhaustive_roots(a, b, c, modulus):
    ns = np.arange(modulus, dtype=np.int64)
    return np.nonzero((a * ns * ns + b * ns + c) % modulus == 0)[0].tolist()


SMALL_GRID = list(product(range(1, 5), range(-4, 5), range(-4, 5)))


def test_roots_mod_prime_power_matches_exhaustive_scan():
    cap = quadratics._ROOT_CAP
    for p in (2, 3, 5, 7, 11, 13):
        # the scaled copies put content divisible by p into every prime's grid
        for a, b, c in SMALL_GRID + [(p * a, p * b, p * c) for a, b, c in SMALL_GRID]:
            q = QuadraticPoly(a, b, c)
            for k in (1, 2, 3):
                got = _roots_mod_prime_power(q, p, k)
                if got is None:
                    assert q.content % p**k == 0, (q, p, k)
                    continue
                assert got == _exhaustive_roots(a, b, c, p**k)[:cap], (q, p, k)


def test_roots_mod_prime_power_is_none_exactly_when_the_content_covers_p_to_the_k():
    # every n is then a root, so a root list would be correct but not vacuous
    for p in (2, 3, 5):
        for a, b, c in SMALL_GRID:
            for v in range(3):
                q = QuadraticPoly(a * p**v, b * p**v, c * p**v)
                for k in (1, 2, 3):
                    vacuous = q.content % p**k == 0
                    assert (_roots_mod_prime_power(q, p, k) is None) == vacuous, (q, p, k)


def test_finite_witness_root_is_the_least_root_at_its_top_level():
    # the deepest class's rho, not the first with a level: for n^2 + 4 at 2 the
    # even n have level 2, with rho 0, and the least root mod 8 is 2
    for p in (2, 3, 5):
        for a, b, c in product(range(1, 4), range(-20, 21), range(-20, 21)):
            q = QuadraticPoly(a, b, c)
            res = mq(q, p)
            if res.infinite:
                continue
            _check_finite_witness(q, res)
            m = res.exponent - res.content_val
            if m:
                q1 = q.primitive()
                assert res.witness.root == _exhaustive_roots(q1.a, q1.b, q1.c, p**m)[0], (q, p)


def test_roots_mod_prime_matches_exhaustive_scan():
    primes = [p for p in range(2, 102) if all(p % d for d in range(2, p))]
    rng = random.Random(31)
    for p in primes:
        polys = SMALL_GRID + [
            (p, 1, 2), (p, 0, 5), (p, 0, 0), (2 * p, 3 * p, p), (p * p, p, 0)
        ] + [
            (rng.randint(1, 10**6), rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
            for _ in range(40)
        ]
        for a, b, c in polys:
            assert _roots_mod_prime(a, b, c, p) == _exhaustive_roots(a, b, c, p), (a, b, c, p)


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
    def least_infinite_prime(q):
        cls = classify_quadratic(q)
        return cls.r, cls.p_r, cls.exponents

    assert least_infinite_prime(QuadraticPoly(1, 1, 2)) == (1, 2, ())
    assert least_infinite_prime(QuadraticPoly(1, 0, 1)) == (3, 5, (1, 0))
    assert least_infinite_prime(QuadraticPoly(1, 0, 3)) == (4, 7, (2, 1, 0))
    # n^2 + 1 times a content of 3: v_3(3) is added at 3, where the symbol
    # (-4/3) = -1 alone decides the primitive part
    assert least_infinite_prime(QuadraticPoly(3, 0, 3)) == (3, 5, (1, 1))
    # the walk pays one unit of the work limit per prime: 2 and 3, not 5
    with factor_budget(2), pytest.raises(BudgetExceeded, match="--factor-work"):
        least_infinite_prime(QuadraticPoly(1, 0, 1))


def _nonresidue_discriminant(k: int) -> int:
    """D = 5 (mod 8) and, for each of the first k primes p > 2, the least
    non-residue mod p: n^2 - D has m_q = 2, 0, 0, ... at those k primes."""
    system = [(5, 8)]
    for p in islice(prime_stream(), 1, k):
        z = 2
        while _jacobi(z, p) != -1:
            z += 1
        system.append((z, p))
    return crt_solve(system)[0]


@pytest.mark.parametrize("k, digits, r, p_r", [
    (100, 221, 104, 569), (200, 513, 202, 1231), (400, 1171, 401, 2749),
])
def test_walk_runs_to_the_least_infinite_prime(k, digits, r, p_r):
    # no early stop: the least p with (D/p) = 1 lies past the k-th prime
    D = _nonresidue_discriminant(k)
    assert len(str(D)) == digits
    cls = classify_quadratic(QuadraticPoly(1, 0, -D))
    assert (cls.case, cls.r, cls.p_r) == ("finitely_many", r, p_r)
    assert cls.exponents == (2,) + (0,) * (r - 2)


def _reference_walk(q):
    """r, p_r and the exponents from mq itself at 2, 3, 5, ... up to the
    first infinite prime: the class split at every prime, no symbol."""
    exponents = []
    for p in prime_stream():
        res = mq(q, p)
        if res.infinite:
            return len(exponents) + 1, p, tuple(exponents)
        exponents.append(res.exponent)


def test_walk_matches_mq_at_every_prime():
    # every q with a <= 4 and |b|, |c| <= 12, and one whose walk decides 100+
    # primes by the symbol alone
    polys = [QuadraticPoly(a, b, c)
             for a in range(1, 5) for b in range(-12, 13) for c in range(-12, 13)]
    polys.append(QuadraticPoly(1, 0, -_nonresidue_discriminant(100)))
    for q in polys:
        cls = classify_quadratic(q)
        assert (cls.r, cls.p_r, cls.exponents) == _reference_walk(q), q


def test_classifications_of_small_quadratics_are_frozen():
    # the reprs of all 1,156 classifications with a <= 4 and |b|, |c| <= 8,
    # as the walk capped at 100 primes gave them
    reprs = "\n".join(repr(classify_quadratic(QuadraticPoly(a, b, c)))
                      for a in range(1, 5) for b in range(-8, 9) for c in range(-8, 9))
    assert (hashlib.sha256(reprs.encode()).hexdigest()
            == "4c9536e2f7ebe1e5b3180862c2cf43b8171d8e97b9f8a6c48d381d822c1bb8eb")


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


def test_stream_keeps_only_its_count_smallest_hits():
    # q(n) = 2 (n - 10^5)^2 falls over the whole scan: 38,452 practical values
    # come before the smallest, q(99999) = 2.  Re-sorting all hits on each one
    # took 214 s.
    with time_limit(10):
        assert quad_practical_stream(QuadraticPoly(2, -400000, 2 * 10**10), 1, 10**5) == [2]


def test_stream_budget():
    with pytest.raises(BudgetExceeded, match="raise --scan-bound"):
        quad_practical_stream(QuadraticPoly(1, 1, 2), 500, n_limit=30)


def test_stream_classifies_before_it_scans():
    # the m_q walk of n^2 + 1 takes 2, 3 and 5; the scan alone stops at q(2)
    with factor_budget(2), pytest.raises(BudgetExceeded, match="--factor-work"):
        quad_practical_stream(QuadraticPoly(1, 0, 1), 1)
    with factor_budget(3):
        assert quad_practical_stream(QuadraticPoly(1, 0, 1), 1) == [2]


def test_finite_stream_stops_past_its_prefix(monkeypatch):
    # n^2 + 1 fails Stewart's test at 5 with prefix A = 2: the scan ends at
    # q(2) = 5 > A, where a blind scan would test all 10^5 values
    tested = []
    monkeypatch.setattr(quadratics, "is_practical_quick",
                        lambda v: tested.append(v) or is_practical_quick(v))
    assert quad_practical_stream(QuadraticPoly(1, 0, 1), 5) == [2]
    assert len(tested) < 100


def test_practical_values_of_finite_quadratics_divide_the_prefix():
    # the module docstring's bound, on all 320 finite q with a <= 4 and |b|, |c| <= 8;
    # the stream, which stops past the prefix, returns what a scan to 2,000 finds
    hits = 0
    for a, b, c in product(range(1, 5), range(-8, 9), range(-8, 9)):
        q = QuadraticPoly(a, b, c)
        cls = classify_quadratic(q)
        if cls.case == "finitely_many":
            values = {q(n) for n in range(1, 2001) if q(n) >= 1 and is_practical_quick(q(n))}
            assert all(cls.verdict_n.prefix % v == 0 for v in values), q
            assert quad_practical_stream(q, len(values) + 1) == sorted(values), q
            hits += len(values)
    assert hits == 82


_BOX = [QuadraticPoly(a, b, c) for a in range(1, 4) for b in range(-6, 7) for c in range(-6, 7)]


def test_streams_of_small_quadratics_are_frozen():
    # a <= 3 and |b|, |c| <= 6, as the scan gave them before it stopped at A
    reprs = "\n".join(repr(quad_practical_stream(q, count)) for q in _BOX for count in (1, 3))
    assert (hashlib.sha256(reprs.encode()).hexdigest()
            == "7001486c7e685fb594d25a9d9b429865d9434a553e6e51ff6626bdb68afe9d0e")


def test_constructive_witness_contract():
    q = QuadraticPoly(1, 1, 2)
    w = quad_constructive_witness(q, 10)
    assert w.value >= 10 and w.value == q(w.n)
    assert w.verdict.verify() and w.verdict.value == w.value
    assert w.value % w.modulus == 0
    assert w.verdict.base_evidence.n == w.modulus and w.verdict.base_evidence.practical
    assert w.multiplier <= w.verdict.base_evidence.sigma + 1

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
    assert w.multiplier <= w.verdict.base_evidence.sigma + 1


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
        assert w.multiplier <= w.verdict.base_evidence.sigma + 1
        done += 1


def test_constructive_witness_negative_vertex_values():
    q = QuadraticPoly(1, -200, 150)  # negative until n = 200ish
    w = quad_constructive_witness(q, 10)
    assert w.value >= 10 and w.value == q(w.n) and w.verdict.practical


def test_constructive_witness_rejects_finite():
    with pytest.raises(InvalidInput):
        quad_constructive_witness(QuadraticPoly(1, 0, 1), 10)


def test_witness_walks_one_prime_stream(monkeypatch):
    # its t primes continue the m_q walk instead of restarting at 2
    starts = []
    monkeypatch.setattr(quadratics, "prime_stream", lambda: starts.append(1) or prime_stream())
    w = quad_constructive_witness(QuadraticPoly(2, -7, -4), 10**3)
    assert w.t_primes == (3,) and len(starts) == 1


def test_witnesses_of_small_quadratics_are_frozen():
    # every infinite q with a <= 3 and |b|, |c| <= 6, as the witness gave them
    # with a second prime walk for its t primes
    reprs = "\n".join(repr(quad_constructive_witness(q, threshold)) for q in _BOX
                      if classify_quadratic(q).case == "infinitely_many"
                      for threshold in (10**3, 10**12))
    assert (hashlib.sha256(reprs.encode()).hexdigest()
            == "c31c1f10939c0c7661e8c5ee5c28f7cd64ae0afdf39f853ef34b4d25c3f1cdfe")


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
                    want = _exhaustive_roots(a, b, c, p**k)[:quadratics._ROOT_CAP]
                    assert got == want, (q, p, k)
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
