"""Additive representations involving practical numbers.

Every n = 1 (mod 8) splits as x^2 + P with P practical, by a
power-of-two-accurate square root: with m = floor(log2 sqrt(n)) there is an
odd x <= 2^m - 1 whose square matches n modulo 2^(m+2), leaving
P = 2^(m+2) s with s <= 2^m, practical because s <= sigma(2^(m+2)) + 1.

For every other residue j mod 8 (j != 1) a congruence class exists whose
members are never a square plus a practical number: family_spec checks the
local obstruction its congruences force and derives from them the squares
to drop, and verify_not_representable checks any single m exhaustively.
Goldbach-style facts (every even number is a sum of two practical numbers;
practical triples m-2, m, m+2) are verified against the sieve, and the
chain 88, 8888, 88888888, ... yields arbitrarily large palindromic
practical numbers certified without ever factoring them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING

from .arith import Factorization, _is_square, _jacobi, _sieve, crt_solve
from .errors import FalsificationSignal, InvalidInput, _int_arg
from .practical import (
    MultiplierCertificate,
    PracticalityVerdict,
    certify_product,
    is_practical,
    is_practical_quick,
    practical_from_factorization,
)

if TYPE_CHECKING:
    from .sieve import PracticalBitmap

NON_REPRESENTABLE_J = (0, 2, 3, 4, 5, 6, 7)

# Caps on counts nothing else bounds (InvalidInput above them): 10^5 family members list in
# 0.05-0.15 s; the palindromic chain to 19, 20, 21 entries took 0.10, 0.28, 0.81 s (2-vCPU Xeon).
_FAMILY_COUNT_CAP = 10**5
_PALINDROMIC_COUNT_CAP = 20

_FAMILY_CONGRUENCES = {
    0: ((24, 32), (2, 3), (2, 5), (6, 7), (10, 11), (2, 13)),
    4: ((12, 16), (2, 3), (2, 5), (6, 7), (10, 11), (2, 13)),
    5: ((5, 8), (2, 3), (2, 5), (6, 7)),
    2: ((2, 24),),
    3: ((11, 24),),
    6: ((14, 24),),
    7: ((23, 24),),
}


@dataclass(frozen=True)
class SquareDecomposition:
    n: int
    x: int
    practical_part: int
    m: int  # floor(log2 sqrt(n))
    s: int  # practical_part == 2^(m+2) * s
    certificate: MultiplierCertificate


@dataclass(frozen=True)
class FamilySpec:
    j: int
    congruences: tuple[tuple[int, int], ...]
    residue: int
    modulus: int
    square_exclusions: tuple[int, ...]  # drop m when m - o is a perfect square


@dataclass(frozen=True)
class RepresentationTrace:
    """Outcome of the exhaustive square-plus-practical search for m."""

    m: int
    not_representable: bool
    counterexample: tuple[int, int] | None = None  # (x, practical m - x^2)


def power2_practical(k: int, multiplier: int) -> MultiplierCertificate:
    """Certified practical number 2^k * multiplier, 1 <= multiplier <= 2^(k+1).

    The bound is exactly sigma(2^k) + 1, so the certificate replays from
    the trivial chain of the power of two, whose k >= 1 must keep 2^(k+1)
    under sieve's memory budget.
    """
    from .sieve import _check_memory

    _int_arg("k", k, 1)
    _check_memory(f"2^{k + 1}", (k + 1) // 8)
    return certify_product(practical_from_factorization(Factorization(((2, k),))), multiplier)


def sqrt_mod_power_of_two(m: int, k: int) -> int:
    """Odd x in [1, 2^k - 1] with x^2 = m (mod 2^(k+2)), for m = 1 (mod 8).

    Newton's iteration for the inverse square root, r <- r (3 - m r^2) / 2,
    takes m r^2 = 1 (mod 2^j) to precision 2j - 2, starting from r = 1 at
    j = 3.  Once j >= k + 2, x = m r is a root modulo 2^(k+2); modulo
    2^(k+1) the roots are x and -x, and exactly one of them lies below 2^k.
    That root is unique, so it is the one the doubling induction of the
    proof builds.  k >= 1 must keep the numbers mod 2^(k+3) under sieve's
    memory budget.
    """
    from .sieve import _check_memory

    if _int_arg("m", m) % 8 != 1:
        raise InvalidInput(f"m must be 1 mod 8, got {m}")
    _int_arg("k", k, 1)
    _check_memory(f"arithmetic mod 2^{k + 3}", (k + 3) // 2)
    mod = 1 << (k + 3)
    m %= mod
    r, j = 1, 3
    while j < k + 2:
        r = r * (3 - m * r * r) % mod >> 1
        j = 2 * j - 2
    x = m * r % (1 << (k + 1))
    return (1 << (k + 1)) - x if x >> k else x


def decompose_square_plus_practical(n: int) -> SquareDecomposition:
    """The canonical split n = x^2 + practical part for n = 1 (mod 8), n > 1."""
    if _int_arg("n", n, 2) % 8 != 1:
        raise InvalidInput(f"n must be 1 mod 8, got {n}")
    m = (n.bit_length() - 1) // 2  # 2^(2m) <= n < 2^(2m+2)
    x = sqrt_mod_power_of_two(n, m)
    part = n - x * x
    s, rem = divmod(part, 1 << (m + 2))
    if rem or not 1 <= s <= 1 << m or not 1 <= x <= (1 << m) - 1:
        raise FalsificationSignal(f"decomposition invariants failed for n = {n}")
    cert = power2_practical(m + 2, s)
    return SquareDecomposition(
        n=n, x=x, practical_part=part, m=m, s=s, certificate=cert
    )


def family_spec(j: int) -> FamilySpec:
    """The non-representable congruence family for residue class j mod 8.

    Its exclusions follow from its congruences by one local obstruction.
    With modulus 2^a * M' (M' odd) and residue r, let V be the 2-adic
    valuations of r - x^2 mod 2^a over every x; none of those rests may be
    0 mod 2^a.  Every odd prime p <= 2^(max V + 1) must divide M', with r
    a non-residue mod p.  Then for a member m, N = m - x^2 has v2(N) = v in
    V and no odd prime factor <= 2^(v + 1) = sigma(2^v) + 1, so by
    Stewart's criterion N is practical only when N = 2^v.  The exclusions
    are the 2^v for which r - 2^v is a square modulo every congruence
    modulus.  As the moduli are pairwise coprime, these are exactly the
    2^v with m - 2^v a perfect square for some member m.  A family whose
    congruences do not force the obstruction raises FalsificationSignal.
    """
    if _int_arg("j", j) not in _FAMILY_CONGRUENCES:
        if j == 1:
            raise InvalidInput("every number 1 mod 8 is a square plus a practical number")
        raise InvalidInput(f"j must be in {NON_REPRESENTABLE_J}, got {j}")
    congruences = _FAMILY_CONGRUENCES[j]
    residue, modulus = crt_solve(congruences)
    two = modulus & -modulus  # 2^a
    rests = {(residue - x * x) % two for x in range(two)}
    if 0 in rests:
        raise FalsificationSignal(f"family {j}: m - x^2 can be 0 mod {two}")
    powers = sorted({c & -c for c in rests})  # 2^v for v in V
    top = 2 * powers[-1] + 1
    for p in compress(range(3, top), _sieve(3, top)):  # the odd primes <= 2^(max V + 1)
        if modulus % p or _jacobi(residue, p) != -1:
            raise FalsificationSignal(f"family {j}: no non-residue is fixed mod {p}")
    exclusions = tuple(o for o in powers if all(
        any((residue - o - x * x) % q == 0 for x in range(q)) for _, q in congruences))
    return FamilySpec(j, congruences, residue, modulus, exclusions)


def family_stream(j: int, count: int) -> list[int]:
    """The `count` smallest members of the j family, ascending."""
    _int_arg("count", count, 1, _FAMILY_COUNT_CAP, "_FAMILY_COUNT_CAP")
    spec = family_spec(j)
    members = []
    m = spec.residue
    while len(members) < count:
        if not any(_is_square(m - o) for o in spec.square_exclusions):
            members.append(m)
        m += spec.modulus
    return members


def verify_not_representable(m: int) -> RepresentationTrace:
    """Exhaustively test that no x with x^2 < m leaves m - x^2 practical.

    x = 0 is included, so m itself is also checked.
    """
    _int_arg("m", m, 1)
    for x in range(math.isqrt(m - 1) + 1):
        part = m - x * x
        if is_practical_quick(part):
            return RepresentationTrace(m=m, not_representable=False, counterexample=(x, part))
    return RepresentationTrace(m=m, not_representable=True)


def goldbach_pair(
    n: int, bitmap: PracticalBitmap | None = None
) -> tuple[int, int]:
    """Lexicographically smallest (p1, p2), p1 <= p2, both practical,
    p1 + p2 = n, for even n >= 2.

    Exhausting all practical p1 <= n/2 raises FalsificationSignal, which would
    falsify the two-practicals decomposition theorem.
    """
    _goldbach_n(n)
    if bitmap is None or bitmap.limit < n:
        from .sieve import sieve_practicals

        bitmap = sieve_practicals(n)
    bits = bitmap.bits
    for p1 in range(1, n // 2 + 1):
        p2 = n - p1
        if bits[p1 >> 3] >> (p1 & 7) & 1 and bits[p2 >> 3] >> (p2 & 7) & 1:
            return p1, p2
    raise FalsificationSignal(f"no practical pair sums to {n}")


def _goldbach_n(n: int) -> None:
    """Refuse n unless it is an even int >= 2: goldbach_pair's domain."""
    if _int_arg("even n", n, 2) % 2:
        raise InvalidInput(f"n must be even, got {n}")


def practical_triples(
    limit: int, bitmap: PracticalBitmap | None = None
) -> list[int]:
    """All m <= limit with m-2, m, m+2 simultaneously practical."""
    _int_arg("limit", limit, 1)
    if bitmap is None or bitmap.limit < limit + 2:
        from .sieve import sieve_practicals

        bitmap = sieve_practicals(limit + 2)
    bits = bitmap.as_int(limit + 2)
    return _set_bits(bits << 2 & bits & bits >> 2)  # bit m: m - 2, m and m + 2 practical


# byte -> 1 when any of its bits is set, so bytes.find can skip zero bytes
_NONZERO = bytes([0]) + bytes([1]) * 255


def _set_bits(v: int) -> list[int]:
    """Positions of the set bits of v >= 0, ascending."""
    data = v.to_bytes((v.bit_length() + 7) // 8, "little")
    marks = data.translate(_NONZERO)
    out = []
    i = marks.find(1)
    while i >= 0:
        byte = data[i]
        while byte:
            low = byte & -byte
            out.append(8 * i + low.bit_length() - 1)
            byte ^= low
        i = marks.find(1, i + 1)
    return out


@dataclass(frozen=True)
class PalindromicEntry:
    index: int  # 1-based position in the chain
    value: int
    evidence: PracticalityVerdict | MultiplierCertificate


def palindromic_practicals(count: int) -> list[PalindromicEntry]:
    """The first `count` values of the chain A_i = 8 * (10^(2^i) - 1) / 9.

    A_1 = 88 is checked by the structure test; each later value is
    certified as A_i * (10^(2^i) + 1) with the factorization-free bound
    10^(2^i) + 1 <= 2 A_i - 1, all in exact arithmetic.  The power is read
    off the value just certified, 10^(2^i) = (9 A_i + 8) / 8, so nothing is
    squared.  Every value is a decimal palindrome (a run of 8s), by
    induction: A_1 = 88, and if A_i = 8 (10^(2^i) - 1) / 9, then
    A_i (10^(2^i) + 1) = 8 (10^(2^(i+1)) - 1) / 9.
    """
    _int_arg("count", count, 1, _PALINDROMIC_COUNT_CAP, "_PALINDROMIC_COUNT_CAP")
    entries = [PalindromicEntry(index=1, value=88, evidence=is_practical(88))]
    for i in range(2, count + 1):
        power = (9 * entries[-1].value + 8) // 8
        evidence = certify_product(entries[-1].evidence, power + 1, doubling=True)
        entries.append(PalindromicEntry(index=i, value=evidence.value, evidence=evidence))
    return entries
