"""Exact integer arithmetic substrate.

Factorization (trial division + Pollard-Brent behind an explicit work
budget), divisor sums, p-adic valuations, a CRT solver that accepts
non-coprime moduli and the two ways primes are produced: prime_stream walks
2, 3, 4, ... through the primality test _is_prime (Miller-Rabin, proven
below psi_13 ~ 3.3 * 10^24, Baillie-PSW above), and primes_upto sieves a
numpy prime table.  Everything here works on arbitrary-precision ints; only
the prime table is restricted to machine-word sizes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator

import numpy as np

from .errors import BudgetExceeded, InconsistentSystem, InvalidInput

# Deterministic Miller-Rabin witness set: the first 13 primes are correct for
# all n < psi_13 = 3317044064679887385961981 (~3.3 * 10^24; Sorenson-Webster).
# Bases up to 37 alone pass the composite psi_12 = 399165290221 * 798330580441,
# and psi_13 = 1287836182261 * 2575672364521 itself passes all 13.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


@dataclass(frozen=True)
class FactorBudget:
    """Work allowance for factorize().

    trial_bound  -- largest trial-division candidate before switching to rho
    work_limit   -- total charged operations (trial candidates + rho steps)
    """

    trial_bound: int = 1 << 16
    work_limit: int = 1 << 23


DEFAULT_BUDGET = FactorBudget()


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ...

    The empty tuple represents 1.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise InvalidInput(f"malformed factorization: {self.factors!r}")
            last = p

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def sigma_prime_power(p: int, e: int) -> int:
    """sigma(p^e) = (p^(e+1) - 1) / (p - 1)."""
    return (p ** (e + 1) - 1) // (p - 1)


def sigma(f: Factorization) -> int:
    """Sum of divisors of the integer represented by f (multiplicative)."""
    s = 1
    for p, e in f:
        s *= sigma_prime_power(p, e)
    return s


def valuation(n: int, p: int) -> int:
    """Largest k with p^k | n.  Requires n != 0 and p >= 2."""
    if n == 0:
        raise InvalidInput("valuation of 0 is undefined")
    if p < 2:
        raise InvalidInput(f"not a valid prime base: {p}")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _is_prime(n: int) -> bool:
    """Primality by Miller-Rabin to the bases 2..41, a proof for n < psi_13.

    From psi_13 on, n must also pass a strong Lucas test with Selfridge's
    parameters, which with the base-2 round makes a Baillie-PSW test: no
    composite is known to pass it, but none is proven not to.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D) / 4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would ever qualify
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:
        return False  # |D| < n shares a factor with n
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def half(x: int) -> int:
        return (x + n if x & 1 else x) // 2 % n

    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1 (P = 1)
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class _WorkMeter:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def charge(self, amount: int, n: int) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded(
                f"factorization work limit exhausted while factoring {n}"
            )


def _brent_rho(n: int, meter: _WorkMeter, rng: random.Random) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                meter.charge(min(m, r - k), n)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                meter.charge(1, n)
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated; retry with a fresh polynomial


def factorize(n: int, budget: FactorBudget | None = None) -> Factorization:
    """Canonical factorization of n >= 1.

    Trial division up to budget.trial_bound, then Miller-Rabin plus
    Pollard-Brent for any remaining cofactor.  Raises BudgetExceeded when
    the configured work limit runs out; never returns a partial answer.
    """
    if n < 1:
        raise InvalidInput(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return Factorization(())
    budget = budget or DEFAULT_BUDGET
    meter = _WorkMeter(budget.work_limit)

    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # candidates coprime to 30
    i = 0
    while d * d <= n and d <= budget.trial_bound:
        meter.charge(1, n)
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors[d] = e
        d += wheel[i]
        i = (i + 1) % 8

    rng = random.Random(0xC0FFEE)  # fixed seed: factorize must be deterministic
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < d * d or _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        f = _brent_rho(m, meter, rng)
        stack.append(f)
        stack.append(m // f)

    return Factorization(tuple(sorted(factors.items())))


def crt_solve(system: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Solve simultaneous congruences x = r_i (mod m_i).

    Moduli need not be coprime; the system is merged pairwise and rejected
    with InconsistentSystem when residues disagree on a shared divisor.
    Returns (residue, modulus) with 0 <= residue < modulus = lcm(m_i).

    >>> crt_solve([(5, 8), (2, 3), (2, 5), (6, 7)])
    (797, 840)
    """
    r, m = 0, 1
    for ri, mi in system:
        if mi < 2:
            raise InvalidInput(f"modulus must be >= 2, got {mi}")
        if not 0 <= ri < mi:
            raise InvalidInput(f"residue {ri} out of range for modulus {mi}")
        g = math.gcd(m, mi)
        if (ri - r) % g:
            raise InconsistentSystem(
                f"congruences conflict modulo {g}: x={r} (mod {m}) vs x={ri} (mod {mi})"
            )
        lcm = m // g * mi
        t = ((ri - r) // g * pow(m // g, -1, mi // g)) % (mi // g)
        r += m * t
        m = lcm
        r %= m
    return r, m


def prime_stream() -> Iterator[int]:
    """2, 3, 5, 7, ... without end: the integers from 2 that pass _is_prime."""
    return filter(_is_prime, count(2))


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (classic boolean sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)
