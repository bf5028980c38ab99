"""Shared oracles for the test suite.

These deliberately re-derive results from definitions (full residue
enumeration, exhaustive lifting) and never use the library's shortcuts
(Hensel gap condition, termination bounds, structure-test early exits).
"""

from __future__ import annotations

import math

import numpy as np

ORACLE_LEVEL_FLOOR = 8
ORACLE_MODULUS_CAP = 10**7
FULL_RANGE_CAP = 10**4


def is_prime_trial(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def mq_oracle_horizon(p: int) -> int:
    k = 1
    while p ** (k + 1) <= ORACLE_MODULUS_CAP:
        k += 1
    return max(ORACLE_LEVEL_FLOOR, k)


def mq_oracle(a: int, b: int, c: int, p: int) -> tuple[str, int]:
    """Exhaustive level-by-level root enumeration for a*n^2 + b*n + c mod p^k.

    Full-range enumeration while p^k <= FULL_RANGE_CAP; beyond that, roots
    mod p^(k+1) are found by extending roots mod p^k (every root reduces to
    one, so extension enumeration is still exhaustive).  Returns
    ("finite", m) when the root set empties at level m+1, else
    ("at_least", horizon): roots exist at every level up to the horizon.
    """
    horizon = mq_oracle_horizon(p)
    roots: list[int] = []
    for k in range(1, horizon + 1):
        pk = p**k
        if pk <= FULL_RANGE_CAP:
            ns = np.arange(pk, dtype=np.int64)
            vals = (a * ns * ns + b * ns + c) % pk
            cur = np.nonzero(vals == 0)[0].tolist()
        else:
            step = pk // p
            cur = []
            for r in roots:
                for j in range(p):
                    cand = r + j * step
                    if (a * cand * cand + b * cand + c) % pk == 0:
                        cur.append(cand)
        if not cur:
            return "finite", k - 1
        roots = cur
    return "at_least", horizon

