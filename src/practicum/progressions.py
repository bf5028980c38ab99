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

from .arith import Factorization, factorize, sigma
from .errors import (
    ClassificationMismatch,
    InvalidInput,
    ScanBudgetExceeded,
    SearchExhausted,
)
from .practical import PracticalityVerdict, is_practical, is_practical_quick

INFINITELY_MANY = "infinitely_many"
EXACTLY_ONE = "exactly_one"
NONE = "none"

DEFAULT_SCAN_LIMIT = 10**6


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
    """A practical term a*n + b >= threshold produced constructively."""

    n: int
    value: int
    verdict: PracticalityVerdict
    prime: int
    k: int
    d: int


@dataclass(frozen=True)
class PolyWitness:
    """Smallest n >= 1 whose polynomial value is positive and not practical."""

    n: int
    value: int
    verdict: PracticalityVerdict


def largest_practical_divisor(g: int) -> int:
    """Maximum practical divisor of g (1 divides everything, so always >= 1).

    This is the practical prefix of g's verdict: taking full exponents and
    every admissible prime maximizes both the divisor and the divisor-sum
    bound for later primes, and once a prime fails the chain condition all
    larger ones do too.
    """
    if g < 1:
        raise InvalidInput(f"largest_practical_divisor requires g >= 1, got {g}")
    return is_practical(g).prefix


def classify_ap(a: int, b: int) -> APClassification:
    """Decide the trichotomy for a*n + b.

    Both coefficients must be positive.  The least m >= 2 coprime to a/d is
    the least prime missing a/d, since each prime factor of m is at most m
    and coprime to a/d; the case is infinite when m <= sigma(d) + 1.
    """
    if a < 1 or b < 1:
        raise InvalidInput(f"classify_ap requires positive a, b; got ({a}, {b})")
    verdict = is_practical(math.gcd(a, b))
    d = verdict.prefix  # the largest practical divisor of gcd(a, b)
    bound = verdict.sigma + 1
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
    a: int, b: int, count: int, n_limit: int = DEFAULT_SCAN_LIMIT
) -> list[int]:
    """First `count` practical values of a*n + b, scanning n = 0, 1, 2, ...

    For the exactly-one / none cases the (at most one) practical term is
    returned without error.  In the infinite case a shortfall within
    n_limit raises ScanBudgetExceeded -- that would contradict the
    classification, so tests treat it as failure.
    """
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
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
    raise ScanBudgetExceeded(
        f"only {len(found)} practical terms of {a}n+{b} within n <= {n_limit}"
    )


def ap_constructive_witness(a: int, b: int, threshold: int) -> APWitness:
    """A practical term of a*n + b that is >= threshold, built directly.

    With p the witness prime and k large enough that p^k clears the
    threshold, b/d and the multiplier bound, the solution of
    (a/d) n = -(b/d) (mod p^k) in [1, p^k] gives a term divisible by
    d * p^k whose cofactor is at most a/d + 1 <= sigma(d p^k) + 1.
    """
    if threshold < 1:
        raise InvalidInput(f"threshold must be >= 1, got {threshold}")
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
        sig = sigma(Factorization(tuple(sorted(merged.items()))))
        if pk >= threshold and pk >= b1 and sig >= a1:
            break
        k += 1

    r = (-b1 * pow(a1, -1, pk)) % pk
    n = r if r >= 1 else pk
    value = a * n + b
    verdict = is_practical(value)
    if not verdict.practical:
        raise ClassificationMismatch(
            f"constructed term {value} of {a}n+{b} failed the practicality test"
        )
    return APWitness(n=n, value=value, verdict=verdict, prime=p, k=k, d=d)


def _poly_eval(coeffs: list[int], n: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * n + c
    return v


def nonpractical_witness(
    coeffs: list[int], search_bound: int = 10**4
) -> PolyWitness:
    """Smallest n >= 1 with P(n) >= 1 and P(n) not practical.

    coeffs are ascending (constant term first).  The polynomial must be
    non-constant with positive leading coefficient; a witness always
    exists, so exhausting the bound raises SearchExhausted and means the
    bound was too small.
    """
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    if len(trimmed) < 2:
        raise InvalidInput("polynomial must be non-constant")
    if trimmed[-1] < 0:
        raise InvalidInput("leading coefficient must be positive")
    for n in range(1, search_bound + 1):
        v = _poly_eval(trimmed, n)
        if v >= 1 and not is_practical_quick(v):
            return PolyWitness(n=n, value=v, verdict=is_practical(v))
    raise SearchExhausted(
        f"no non-practical value with n <= {search_bound} (raise the bound)"
    )
