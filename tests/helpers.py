"""Shared oracles for the test suite.

These deliberately re-derive results from definitions (full residue
enumeration, exhaustive lifting) and never use the library's shortcuts
(Hensel gap condition, termination bounds, structure-test early exits).
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager

import numpy as np

ORACLE_LEVEL_FLOOR = 8
ORACLE_MODULUS_CAP = 10**7
FULL_RANGE_CAP = 10**4


class TimeLimitExceeded(BaseException):
    """Raised by time_limit; a BaseException, so no `except Exception` in
    the code under test turns it into an ordinary error."""


@contextmanager
def time_limit(seconds: float):
    """Fail the block with TimeLimitExceeded once it runs for `seconds`
    (SIGALRM: main thread only), instead of letting a test hang."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def mq_by_valuations(a: int, b: int, c: int, p: int) -> int | None:
    """m_q(p) for q = a*n^2 + b*n + c (a >= 1) at a prime p, None for
    infinity, read off valuations and one Legendre symbol (Euler's
    criterion) instead of lifting roots.  For primitive q, with
    disc = p^w * u and p not dividing u:

    - p | a: infinite if p does not divide b (a simple root mod p), else 0
      (then p divides neither c nor any value);
    - disc = 0: infinite (a double root -b/2a that is a p-adic integer);
    - odd p: w if w is odd or (u/p) = -1, else infinite;
    - p = 2: w - 2 if w is odd; otherwise infinite if u = 1 (mod 8), w if
      u = 5 (mod 8) and w - 1 if u = 3 (mod 4).

    m_q(p) of any q adds v_p(content) to its primitive part's value.
    """

    def val(n: int) -> int:
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        return k

    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    disc = b * b - 4 * a * c
    if a % p == 0:
        m = None if b % p else 0
    elif disc == 0:
        m = None
    else:
        w = val(disc)
        u = disc // p**w
        if p > 2:
            m = w if w % 2 or pow(u, (p - 1) // 2, p) == p - 1 else None
        elif w % 2:
            m = w - 2
        else:
            m = {1: None, 5: w}.get(u % 8, w - 1)
    return None if m is None else m + val(g)


def sqrt_mod_power_of_two_doubling(m: int, k: int) -> int:
    """Odd x in [1, 2^k - 1] with x^2 = m (mod 2^(k+2)), for m = 1 (mod 8),
    by the doubling induction of the 8k+1 proof: x_1 = 1, and x_{s+1} is
    x_s or 2^(s+1) - x_s, whichever square matches m modulo 2^(s+3)."""
    x = 1
    for s in range(1, k):
        if (x * x - m) % (1 << (s + 3)):
            x = (1 << (s + 1)) - x
    return x


def stewart_sieve_bits(limit: int, window: int = 1 << 20) -> bytes:
    """Packed flags of the practical n <= limit (bit n % 8 of byte n // 8),
    by Stewart's criterion on windows of `window` integers.

    In each window, every even n has its primes p <= isqrt(n) divided out
    in increasing order; at each multiple p must be at most sigma(the part
    removed so far) + 1, and the cofactor left, 1 or a prime, must be too.
    An odd n > 1 fails at its least prime, which exceeds sigma(1) + 1.  No
    tree, no prime-counting table and no int64 isqrt: the primes come from
    trial division and numpy only divides.
    """
    primes = [p for p in range(2, math.isqrt(limit) + 1) if is_prime_trial(p)]
    flags = np.zeros(limit + 1, dtype=bool)
    flags[1:2] = True
    for k0 in range(1, limit // 2 + 1, window // 2):  # the window's evens are 2k, k >= k0
        n = 2 * np.arange(k0, min(k0 + window // 2, limit // 2 + 1), dtype=np.int64)
        rem, sig, ok = n.copy(), np.ones_like(n), np.ones(len(n), dtype=bool)
        for p in primes:
            if p * p > n[-1]:
                break
            idx = np.arange(0 if p == 2 else -k0 % p, len(n), 1 if p == 2 else p)  # p | n
            ok[idx] &= p <= sig[idx] + 1
            rem[idx] //= p
            term = np.full(len(idx), p, dtype=np.int64)  # p^e
            part = 1 + term  # sigma(p^e)
            at = np.arange(len(idx))
            while (at := at[rem[idx[at]] % p == 0]).size:
                rem[idx[at]] //= p
                term[at] *= p
                part[at] += term[at]
            sig[idx] *= part
        flags[n] = ok & (rem <= sig + 1)
    return np.packbits(flags, bitorder="little").tobytes()
