"""Exact integer arithmetic substrate.

Factorization (a trial stage that yields prime powers in increasing order
up to _TRIAL_BOUND, then Pollard-Brent, under a work limit that
factor_budget sets for a scope), divisor sums, p-adic valuations, a CRT
solver that accepts non-coprime moduli and the one way primes are
produced: the pure-Python sieve _sieve, whose windows prime_stream walks
under the same work limit, whose one window to a bound gives primes_upto
a numpy prime table and the trial stage its fixed table of primes and
block products, and whose small windows give representations' family rule
its odd primes.  _is_prime (Miller-Rabin, proven below psi_13 ~ 3.3 *
10^24, Baillie-PSW above) tests cofactors and primes given as input;
_jacobi and _is_square are the package's one Jacobi symbol and one square
test.
Everything here works on arbitrary-precision ints; only the prime table is
machine-word sized.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Generator, Iterable, Iterator

from .errors import BudgetExceeded, InvalidInput

if TYPE_CHECKING:
    import numpy as np

# Deterministic Miller-Rabin witness set: the first 13 primes are correct for
# all n < psi_13 = 3317044064679887385961981 (~3.3 * 10^24; Sorenson-Webster).
# Bases up to 37 alone pass the composite psi_12 = 399165290221 * 798330580441,
# and psi_13 = 1287836182261 * 2575672364521 itself passes all 13.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


# Trial division stops at the first prime above _TRIAL_BOUND.  A factorization
# may charge work_limit units: one per prime passed, divided into n or cleared
# with its block by one gcd, and one per rho step.  A prime_stream charges its
# own work_limit units, one per prime too.  The limit crosses every layer
# between a command and the factorizations and prime walks it causes, none of
# which owns it, so factor_budget sets it for a scope.
_TRIAL_BOUND = 1 << 16
_STREAM_WINDOW = 1 << 15  # widest window of primes a prime_stream sieves at once
DEFAULT_WORK_LIMIT = 1 << 23
_work_limit: ContextVar[int] = ContextVar("factor_budget", default=DEFAULT_WORK_LIMIT)


@contextmanager
def factor_budget(work_limit: int) -> Iterator[None]:
    """Make every factorize() inside the with block run under work_limit.

    On exit the limit in force before the block is restored, also when the
    block raises, so blocks nest.  The limit is a context variable: a new
    thread starts with DEFAULT_WORK_LIMIT, an asyncio task with its creator's.
    """
    token = _work_limit.set(work_limit)
    try:
        yield
    finally:
        _work_limit.reset(token)


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


def _is_square(n: int) -> bool:
    """Whether n is a perfect square; no negative n is."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


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
    if _is_square(n):
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


# Trial division runs over _trial_table(_TRIAL_BOUND), the primes 2, 3, 5, ...
# through the first prime above the bound from one _sieve window, made once
# per bound and never changed.  Each block of _BLOCK primes is tested by one
# gcd with its product, made with the table: the primes up to 65537, the
# first past the default bound, fill 26 blocks.
_BLOCK = 256
_WALK = 16  # primes tried one by one before a gcd clears the rest of a block


@functools.cache
def _trial_table(bound: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The primes through the first one above bound, and the product of
    each block of them: block b is primes[b * _BLOCK:(b + 1) * _BLOCK]."""
    hi = bound + 2  # for the default bound, a window to 65537
    while True:
        primes = (2, *compress(range(3, hi, 2), _sieve(2, hi)[1::2]))  # 2 and the odd primes < hi
        if primes[-1] > bound:
            primes = primes[:bisect_right(primes, bound) + 1]
            return primes, tuple(math.prod(primes[i:i + _BLOCK]) for i in range(0, len(primes), _BLOCK))
        hi *= 2  # (bound, 2 * bound] holds a prime


class _WorkMeter:
    __slots__ = ("limit", "used", "n")

    def __init__(self, limit: int, used: int, n: int):
        self.limit, self.used, self.n = limit, used, n

    def charge(self, amount: int) -> None:
        self.used += amount
        if self.used > self.limit:
            raise _out_of_work(f"factoring {self.n}", self.limit, self.used)


def _out_of_work(task: str, limit: int, used: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"factorization work limit exhausted while {task}: "
        "raise --factor-work (factor_budget's work_limit)",
        knob="--factor-work", limit=limit, used=used,
    )


def _brent_rho(n: int, meter: _WorkMeter, rng: random.Random) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
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
                meter.charge(min(m, r - k))
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                meter.charge(1)
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated; retry with a fresh polynomial


def _prime_powers(n: int, cap: float = math.inf) -> Generator[tuple[int, int], int | None, None]:
    """The prime powers (p, e) of n >= 1 in increasing p, under the work limit in force.

    The primes up to min(isqrt(n), _TRIAL_BOUND) of the trial table for
    _TRIAL_BOUND, both read once at the start: _WALK of them one by one, the
    rest of their block by one gcd, and a block the gcd flags one by one;
    then Miller-Rabin and Pollard-Brent on what is left.  A work limit
    error names n, not the cofactor left.
    A caller walking Stewart's chain sends its bound sigma(prefix) + 1 after
    each step (cap is the first; next() keeps it).  Once the next untried
    prime passes the bound while the cofactor is not 1, the last pair is
    (cofactor, 1): every prime of the cofactor exceeds the bound, so it
    fails the bound as its least prime would.  Without a cap, every pair
    is a prime power.
    """
    trial_bound, work_limit, asked = _TRIAL_BOUND, _work_limit.get(), n
    primes, products = _trial_table(trial_bound)
    j = 0  # index of the next prime to try, and the work charged so far
    walk_end = _WALK if _WALK < work_limit else work_limit  # where work ends or a gcd tests a block
    while True:
        d = primes[j]  # the table's last prime passes trial_bound, so j never passes it
        if d * d > n or d > cap:  # n is 1 or prime, or its primes all pass the bound
            if n > 1:
                yield n, 1
            return
        if d > trial_bound:
            break
        if j == walk_end:
            if j == work_limit:  # prime j would cost one unit more than the limit
                raise _out_of_work(f"factoring {asked}", work_limit, j + 1)
            block_end = (j // _BLOCK + 1) * _BLOCK
            if math.gcd(n, products[j // _BLOCK]) == 1:  # none in it divides n
                stop = bisect_right(primes, min(math.isqrt(n), trial_bound, cap))
                j = walk_end = min(stop, block_end, work_limit)
                continue
            walk_end = min(block_end, work_limit)  # walk the rest of the block
        j += 1
        if n % d == 0:
            n //= d
            e = 1
            while n % d == 0:
                n //= d
                e += 1
            cap = (yield d, e) or cap
            walk_end = j + _WALK if j + _WALK < work_limit else work_limit

    meter = _WorkMeter(work_limit, j, asked)
    rng = None
    factors: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m < d * d or _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        rng = rng or random.Random(0xC0FFEE)  # built once, seeded so results are deterministic
        f = _brent_rho(m, meter, rng)
        stack.append(f)
        stack.append(m // f)
    for pe in sorted(factors.items()):
        yield pe  # not yield from: a list iterator has no send()


def factorize(n: int) -> Factorization:
    """Canonical factorization of n >= 1, under the work limit in force.

    The limit is the one set by the innermost enclosing factor_budget
    block, else DEFAULT_WORK_LIMIT.  The prime powers come from
    _prime_powers: trial division by the primes up to min(isqrt(n),
    _TRIAL_BOUND) of a table made once per bound, a block of them per gcd,
    then Miller-Rabin plus Pollard-Brent for any remaining cofactor.
    Raises BudgetExceeded, naming n, when the work limit runs out; never
    returns a partial answer.
    """
    if not isinstance(n, int):
        raise InvalidInput(f"factorize requires an integer, got {n!r}")
    if n < 1:
        raise InvalidInput(f"factorize requires n >= 1, got {n}")
    return Factorization(tuple(_prime_powers(n)))


def crt_solve(system: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Solve simultaneous congruences x = r_i (mod m_i).

    Moduli need not be coprime; the system is merged pairwise and rejected
    with InvalidInput when residues disagree on a shared divisor.
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
            raise InvalidInput(
                f"congruences conflict modulo {g}: x={r} (mod {m}) vs x={ri} (mod {mi})"
            )
        lcm = m // g * mi
        t = ((ri - r) // g * pow(m // g, -1, mi // g)) % (mi // g)
        r += m * t
        m = lcm
        r %= m
    return r, m


def _sieve(lo: int, hi: int) -> bytearray:
    """Eratosthenes on the window [lo, hi), 2 <= lo: byte n - lo is 1
    exactly when n is prime.  Each sieving prime up to isqrt(hi - 1)
    strikes its multiples from its square.  From lo = 2 they are read off
    the window's own flags, each final before it is read; any other window
    takes them from _sieve(2, isqrt(hi - 1) + 1), one level down."""
    flags = bytearray([1]) * (hi - lo)
    if hi > 4:  # 2 <= isqrt(hi - 1): there are primes to sieve with
        root = math.isqrt(hi - 1)
        small = flags if lo == 2 else _sieve(2, root + 1)
        for p in compress(range(2, root + 1), small):
            start = max(p * p - lo, -lo % p)  # offset of max(p^2, the first multiple >= lo)
            flags[start::p] = bytes(len(range(start, hi - lo, p)))
    return flags


def prime_stream() -> Iterator[int]:
    """2, 3, 5, 7, ...: the primes _sieve proves, window by window, at one
    unit per prime of the work limit in force when the stream starts.

    Its windows [2, 4), [4, 8), ... double up to _STREAM_WINDOW wide.  The
    primes never run out; the units do, and the prime after the last one
    raises BudgetExceeded.  A walk for a prime that provably exists (see
    quadratics) thus ends at it or at the limit, never earlier.
    """
    limit = left = _work_limit.get()
    lo = 2
    while True:
        hi = lo + min(lo, _STREAM_WINDOW)
        primes = list(compress(range(lo, hi), _sieve(lo, hi)))
        yield from primes[:left]
        if len(primes) > left:
            raise _out_of_work(f"walking primes past the first {limit}", limit, limit + 1)
        left, lo = left - len(primes), hi


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, from one _sieve window."""
    import numpy as np

    return np.frombuffer(_sieve(2, limit + 1), bool).nonzero()[0] + 2
