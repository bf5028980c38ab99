"""Arithmetic progressions an + b and practical numbers.

A progression with positive a, b contains infinitely many practical
numbers, exactly one, or none, and the case is decided by d, the largest
practical divisor of gcd(a, b): it is infinite exactly when some prime
p <= sigma(d) + 1 misses a/d; otherwise b itself (term n = 0) is the only
candidate and decides between one and none.

The constructive path mirrors the infinitude argument: pick such a prime
p, raise it to p^k past the requested threshold, solve one linear
congruence, and certify the hit through the multiplier bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Factorization, _prime_powers, factorize, sigma
from .errors import BudgetExceeded, FalsificationSignal, InvalidInput, _int_arg
from .practical import (
    DEFAULT_SCAN_BOUND,
    Evidence,
    PracticalityVerdict,
    _walk,
    certify_product,
    is_practical,
    is_practical_quick,
    practical_from_factorization,
)

INFINITELY_MANY = "infinitely_many"
EXACTLY_ONE = "exactly_one"
NONE = "none"

# Largest scan bound of nonpractical_witness (InvalidInput above it): 10^5 values of
# P(n) = 10^40 n, all practical, took 1.2 s; 10^6 took 16 s (2-vCPU Xeon).
_POLY_BOUND_CAP = 10**5


@dataclass(frozen=True)
class APClassification:
    """Trichotomy outcome for the progression a*n + b (n >= 0)."""

    a: int
    b: int
    case: str
    d: int
    witness_prime: int | None = None  # prime <= sigma(d)+1 not dividing a/d
    unique_value: int | None = None   # b, when it is the only practical term


@dataclass(frozen=True)
class APWitness:
    """A practical term a*n + b >= threshold produced constructively;
    verdict is the multiplier-lemma certificate on d * prime^k."""

    n: int
    value: int
    verdict: Evidence
    prime: int
    k: int
    d: int


@dataclass(frozen=True)
class PolyWitness:
    """Smallest n >= 1 whose polynomial value is positive and not practical."""

    n: int
    value: int
    verdict: PracticalityVerdict


def classify_ap(a: int, b: int) -> APClassification:
    """Decide the trichotomy for a*n + b.

    Both coefficients must be positive.  d and sigma(d) come from
    Stewart's walk over the least prime powers of gcd(a, b), which stops at
    the first prime past sigma(d) + 1 without factoring what is left.  The
    least m >= 2 coprime to a/d is the least prime missing a/d, since each
    prime factor of m is at most m and coprime to a/d; the case is infinite
    when m <= sigma(d) + 1.
    """
    _int_arg("a", a, 1)
    _int_arg("b", b, 1)
    chain: list[tuple[int, int, int]] = []
    _walk(_prime_powers(math.gcd(a, b), 2), chain)
    d = math.prod(p**e for p, e, _ in chain)  # the largest practical divisor of gcd(a, b)
    bound = chain[-1][2] + 1 if chain else 2
    a1 = a // d
    m = 2
    while m <= bound and math.gcd(m, a1) > 1:
        m += 1
    if m <= bound:
        return APClassification(a, b, INFINITELY_MANY, d, witness_prime=m)
    if is_practical_quick(b):
        return APClassification(a, b, EXACTLY_ONE, d, unique_value=b)
    return APClassification(a, b, NONE, d)


def ap_practical_stream(
    a: int, b: int, count: int, n_limit: int = DEFAULT_SCAN_BOUND
) -> list[int]:
    """First `count` practical values of a*n + b, scanning n = 0, 1, 2, ...

    For the exactly-one / none cases the (at most one) practical term is
    returned without error.  In the infinite case a shortfall within
    n_limit raises BudgetExceeded -- that would contradict the
    classification, so tests treat it as failure.
    """
    _int_arg("count", count, 1)
    _int_arg("n_limit", n_limit, 1)
    cls = classify_ap(a, b)
    if cls.case == EXACTLY_ONE:
        return [b][:count]
    if cls.case == NONE:
        return []
    found = []
    for n in range(n_limit + 1):
        v = a * n + b
        if is_practical_quick(v):
            found.append(v)
            if len(found) == count:
                return found
    raise BudgetExceeded(f"only {len(found)} practical terms of {a}n+{b} within n <= {n_limit}",
                         knob="--scan-bound", limit=n_limit, used=n_limit, param="n_limit")


def ap_constructive_witness(a: int, b: int, threshold: int) -> APWitness:
    """A practical term of a*n + b that is >= threshold, built directly.

    With p the witness prime and k large enough that p^k clears the
    threshold, b/d and the multiplier bound, the solution of
    (a/d) n = -(b/d) (mod p^k) in [1, p^k] gives a term divisible by
    d * p^k whose cofactor is at most a/d + 1 <= sigma(d p^k) + 1.
    """
    _int_arg("threshold", threshold, 1)
    cls = classify_ap(a, b)
    if cls.case != INFINITELY_MANY:
        raise InvalidInput(
            f"progression {a}n+{b} is classified {cls.case}; no constructive witness"
        )
    p = cls.witness_prime
    d = cls.d
    a1, b1 = a // d, b // d

    d_factors = dict(factorize(d).factors)
    k = 1
    while True:
        pk = p**k
        merged = {**d_factors, p: d_factors.get(p, 0) + k}
        divisor = Factorization(tuple(sorted(merged.items())))
        if pk >= threshold and pk >= b1 and sigma(divisor) >= a1:
            break
        k += 1

    r = (-b1 * pow(a1, -1, pk)) % pk
    n = r if r >= 1 else pk
    value = a * n + b
    verdict = practical_from_factorization(divisor)
    multiplier, rem = divmod(value, verdict.n)
    if rem or not verdict.practical or multiplier > verdict.sigma + 1:
        raise FalsificationSignal(
            f"constructed term {value} of {a}n+{b} is not certified by {verdict.n}"
        )
    return APWitness(
        n=n, value=value, verdict=certify_product(verdict, multiplier), prime=p, k=k, d=d
    )


def _poly_eval(coeffs: list[int], n: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * n + c
    return v


def nonpractical_witness(
    coeffs: list[int], n_limit: int = DEFAULT_SCAN_BOUND
) -> PolyWitness:
    """Smallest n >= 1 with P(n) >= 1 and P(n) not practical, scanning
    n = 1, ..., n_limit.

    coeffs are ascending (constant term first).  The polynomial must be
    non-constant with positive leading coefficient; a witness always
    exists, so a scan that ends without one raises BudgetExceeded and
    means n_limit was too small; at _POLY_BOUND_CAP its message names the
    cap.  n_limit above _POLY_BOUND_CAP is refused with InvalidInput.
    """
    trimmed = [_int_arg("coefficient", c) for c in coeffs]
    _int_arg("n_limit", n_limit, 1, _POLY_BOUND_CAP, "_POLY_BOUND_CAP")
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if len(trimmed) < 2:
        raise InvalidInput("polynomial must be non-constant")
    if trimmed[-1] < 0:
        raise InvalidInput("leading coefficient must be positive")
    for n in range(1, n_limit + 1):
        v = _poly_eval(trimmed, n)
        if v >= 1 and not is_practical_quick(v):
            return PolyWitness(n=n, value=v, verdict=is_practical(v))
    at_cap = n_limit == _POLY_BOUND_CAP
    raise BudgetExceeded(f"no non-practical value with n <= {n_limit}",
                         knob="progressions._POLY_BOUND_CAP" if at_cap else "--scan-bound",
                         limit=n_limit, used=n_limit, param=None if at_cap else "n_limit")
