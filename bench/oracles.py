"""Independent arithmetic and the correctness checks built on it.

Nothing here imports practicum.  Every check re-derives its answer from
definitions or from data the benchmark generated itself: primes from its
own Miller-Rabin, verdicts from its own trial-division structure test,
counts and bitmaps from its own walk of the practical-number tree, m_q
from complete root enumeration.  A check raises CheckFailed with a reason;
it never compares against a saved copy of earlier output.
"""

from __future__ import annotations

import math
import struct

import numpy as np


class CheckFailed(Exception):
    """An operation's output contradicts the independent computation."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# primes and factorizations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Sorenson-Webster: the first 13 prime bases decide every n below this.
MR_PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for n < MR_PROVEN_BELOW."""
    if n >= MR_PROVEN_BELOW:
        raise ValueError(f"{n} is beyond the proven Miller-Rabin range")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(limit: int) -> list[int]:
    """All primes < limit (plain sieve of Eratosthenes)."""
    if limit < 3:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [i for i, f in enumerate(flags) if f]


def random_prime(rng, lo: int, hi: int) -> int:
    """A uniformly drawn start in [lo, hi), advanced to the next prime."""
    n = rng.randrange(lo, hi) | 1
    while not is_prime(n):
        n += 2
    return n


def factor_td(n: int) -> list[tuple[int, int]]:
    """Factorization of n >= 1 by plain trial division, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def sigma(factors) -> int:
    """Divisor sum from a factorization [(p, e), ...]."""
    s = 1
    for p, e in factors:
        s *= (p ** (e + 1) - 1) // (p - 1)
    return s


def stewart_chain(factors):
    """Apply the structure criterion to an ascending factorization.

    Returns ("practical", [(p, e, running_sigma), ...]) or
    ("not", (index, prime, sigma(prefix) + 1)) for the first failing prime.
    """
    running = 1
    chain = []
    for i, (p, e) in enumerate(factors, start=1):
        if p > running + 1:
            return "not", (i, p, running + 1)
        running *= (p ** (e + 1) - 1) // (p - 1)
        chain.append((p, e, running))
    return "practical", chain


def is_practical_td(n: int) -> bool:
    """Structure test by trial division, with its own early exits.

    Once the trial divisor passes sigma(prefix) + 1 with a cofactor left,
    that cofactor's least prime breaks the chain.
    """
    if n < 1:
        raise ValueError(n)
    if n == 1:
        return True
    if n % 2:
        return False
    s, m, d = 1, n, 2
    while m > 1:
        if d > s + 1:
            return False
        if d * d > m:
            return m <= s + 1
        if m % d == 0:
            t = pk = 1
            while m % d == 0:
                m //= d
                pk *= d
                t += pk
            s *= t
        d += 1 if d == 2 else 2
    return True


def practical_by_multiplier(value: int, modulus: int, modulus_factors) -> bool:
    """value is practical by the multiplier lemma: modulus practical (by the
    structure criterion on its known factors), modulus | value and
    value / modulus <= sigma(modulus) + 1."""
    kind, _ = stewart_chain(modulus_factors)
    return (
        kind == "practical"
        and math.prod(p**e for p, e in modulus_factors) == modulus
        and value % modulus == 0
        and 1 <= value // modulus <= sigma(modulus_factors) + 1
    )


# ---------------------------------------------------------------------------
# the practical-number tree: counts and bitmaps without sieving
#
# By the structure theorem every prefix p1^a1...pi^ai of a practical number's
# ordered factorization is practical, so the practical numbers <= N form a
# tree rooted at 1 whose children of n are n*q^e, q prime above n's largest
# prime and q <= sigma(n) + 1.  A child n*q with q > sqrt(N/n) can have no
# children and no higher power of q, so those leaves are one block of the
# prime table and are counted or scattered at once.  Every prime used is at
# most sqrt(N * (sigma(n)/n + 1)); the table is checked to reach that far.


def _tree_walk(N: int, on_node, on_leaf_block) -> None:
    if N < 1:
        return
    table = primes_below(2 * math.isqrt(8 * N) + 16)
    arr = np.array(table, dtype=np.int64)
    on_node(1)
    stack = []
    n, s = 2, 3
    while n <= N:  # powers of two are the only practical nodes with q = 2 last
        stack.append((n, s, 0))  # index of the last prime used (2)
        n, s = 2 * n, 2 * s + 1
    while stack:
        n, s, last = stack.pop()
        on_node(n)
        hi = min(s + 1, N // n)
        if hi <= table[last]:
            continue
        split = math.isqrt(N // n)  # q > split: leaf n*q, no q^2, no children
        if hi > table[-1]:
            raise RuntimeError(f"prime table too short for N = {N}")
        lo_i = last + 1
        mid_i = int(np.searchsorted(arr, min(split, hi), side="right"))
        hi_i = int(np.searchsorted(arr, hi, side="right"))
        for i in range(lo_i, max(lo_i, mid_i)):
            q = table[i]
            m, sq = n * q, s * (q + 1)
            pk_sum = q + 1
            while m <= N:
                stack.append((m, sq, i))
                pk_sum = pk_sum * q + 1
                m *= q
                sq = s * pk_sum
        first = max(lo_i, mid_i)
        if hi_i > first:
            on_leaf_block(n, arr, first, hi_i)


def tree_count(N: int) -> int:
    """Number of practical numbers <= N."""
    total = 0

    def node(_n):
        nonlocal total
        total += 1

    def leaves(_n, _arr, i, j):
        nonlocal total
        total += j - i

    _tree_walk(N, node, leaves)
    return total


def tree_flags(N: int) -> np.ndarray:
    """Bool array over 0..N, True exactly at the practical numbers."""
    flags = np.zeros(N + 1, dtype=bool)
    nodes = []
    _tree_walk(N, nodes.append, lambda n, arr, i, j: flags.__setitem__(n * arr[i:j], True))
    flags[np.array(nodes, dtype=np.int64)] = True
    return flags


# ---------------------------------------------------------------------------
# m_q by complete root enumeration


def mq_levels(a: int, b: int, c: int, p: int, horizon: int, root_cap: int = 4096):
    """Deepest level k <= horizon at which a n^2 + b n + c = 0 (mod p^k) has a
    root, found by listing every root level by level (each root mod p^(k+1)
    reduces to one mod p^k, so extending the full list is exhaustive).

    Returns (k, exhausted): exhausted is True when level k + 1 has no root.
    Enumeration also stops, unexhausted, once the list passes root_cap.
    """
    roots = [n for n in range(p) if (a * n * n + b * n + c) % p == 0]
    if not roots:
        return 0, True
    k = 1
    while k < horizon and len(roots) <= root_cap:
        step, mod = p**k, p ** (k + 1)
        roots = [
            r + j * step
            for r in roots
            for j in range(p)
            if (a * (r + j * step) ** 2 + b * (r + j * step) + c) % mod == 0
        ]
        if not roots:
            return k, True
        k += 1
    return k, False


def infinite_horizon(p: int) -> int:
    """Levels an "infinite" m_q must reach: p^k up to about 10^4."""
    k = 1
    while p ** (k + 1) <= 10**4:
        k += 1
    return max(k, 4)


def check_mq(a, b, c, p, exponent) -> None:
    """exponent is m_q(p) for an int, or infinity for None."""
    if exponent is None:
        k, exhausted = mq_levels(a, b, c, p, infinite_horizon(p))
        require(not exhausted, f"m_q({a},{b},{c}; {p}) claimed infinite, roots end at {k}")
    else:
        k, exhausted = mq_levels(a, b, c, p, exponent + 1)
        require(
            exhausted and k == exponent,
            f"m_q({a},{b},{c}; {p}) = {exponent}, enumeration gives {k}",
        )


# ---------------------------------------------------------------------------
# checks on single answers (shared by the library and CLI workloads)


def check_verdict(n: int, practical: bool, chain, witness, factors=None) -> None:
    """Verdict against the benchmark's own factorization of n.

    factors, when given, is the factorization the input was built from;
    otherwise n is factored by trial division.  chain is a list of
    (p, e, running_sigma); witness is (index, prime, bound) or None.
    """
    factors = factor_td(n) if factors is None else factors
    require(math.prod(p**e for p, e in factors) == n, f"bad reference factors for {n}")
    kind, detail = stewart_chain(factors)
    require(practical == (kind == "practical"), f"verdict for {n} is {practical}")
    if practical:
        require([tuple(x) for x in chain] == detail, f"chain for {n} differs")
    else:
        require(tuple(witness) == detail, f"witness for {n} is {witness}, expected {detail}")


def check_ap_classification(a, b, case, d, witness_prime, unique_value) -> None:
    """The trichotomy's certificate, re-derived: d is the largest practical
    divisor of gcd(a, b); infinite needs a prime <= sigma(d) + 1 missing a/d,
    the other cases need every such prime to divide a/d and then hinge on
    whether b is practical."""
    g = math.gcd(a, b)
    divisors = [x for x in range(1, g + 1) if g % x == 0]
    d_ref = max(x for x in divisors if is_practical_td(x))
    require(d == d_ref, f"ap {a}n+{b}: d = {d}, expected {d_ref}")
    bound = sigma(factor_td(d)) + 1
    missing = [q for q in primes_below(bound + 1) if (a // d) % q]
    if case == "infinitely_many":
        require(
            witness_prime in missing,
            f"ap {a}n+{b}: witness prime {witness_prime} not in {missing[:5]}",
        )
        return
    require(not missing, f"ap {a}n+{b}: classified {case} though {missing[:1]} misses a/d")
    b_practical = is_practical_td(b)
    if case == "exactly_one":
        require(b_practical and unique_value == b, f"ap {a}n+{b}: unique value {unique_value}")
    else:
        require(case == "none" and not b_practical, f"ap {a}n+{b}: case {case}")
    hits = [n for n in range(1, 65) if is_practical_td(a * n + b)]
    require(not hits, f"ap {a}n+{b}: term n = {hits[:1]} is practical")


def check_ap_witness(a, b, threshold, n, value, prime, k, d) -> None:
    """a n + b = value >= threshold, practical by the multiplier lemma on the
    divisor d * prime^k the construction claims."""
    require(value == a * n + b and value >= threshold, f"ap witness {value} for {a}n+{b}")
    factors = dict(factor_td(d))
    require(is_prime(prime), f"ap witness prime {prime} is not prime")
    factors[prime] = factors.get(prime, 0) + k
    modulus = d * prime**k
    require(
        practical_by_multiplier(value, modulus, sorted(factors.items())),
        f"ap witness {value} not certified by {modulus}",
    )


def check_ap_stream(a, b, count, values) -> None:
    expected = []
    n = 0
    while len(expected) < count and n <= 10**5:
        if is_practical_td(a * n + b):
            expected.append(a * n + b)
        n += 1
    require(list(values) == expected, f"ap stream {a}n+{b}: {values} != {expected}")


def check_poly_witness(coeffs, n, value) -> None:
    def ev(x):
        return sum(cf * x**i for i, cf in enumerate(coeffs))

    first = next(x for x in range(1, 10**5) if ev(x) >= 1 and not is_practical_td(ev(x)))
    require(n == first and value == ev(first), f"poly witness {coeffs}: n = {n}, expected {first}")


def check_quad_classification(a, b, c, case, r, p_r, exponents, witness_n, witness_practical) -> None:
    primes = primes_below(600)[:r]
    require(len(primes) == r and primes[-1] == p_r, f"quad ({a},{b},{c}): p_r = {p_r}, r = {r}")
    for p, e in zip(primes, exponents):
        check_mq(a, b, c, p, e)
    check_mq(a, b, c, p_r, None)
    factors = [(p, e) for p, e in zip(primes, exponents) if e] + [(p_r, 1)]
    require(witness_n == math.prod(p**e for p, e in factors), f"quad ({a},{b},{c}): witness_n")
    practical = stewart_chain(factors)[0] == "practical"
    require(witness_practical == practical, f"quad ({a},{b},{c}): verdict on {witness_n}")
    expected = "infinitely_many" if practical else "finitely_many"
    require(case == expected, f"quad ({a},{b},{c}): case {case}, expected {expected}")


def check_quad_stream(a, b, c, count, values) -> None:
    hits: list[int] = []
    turn = max(1, (-b) // (2 * a) + 1)
    for n in range(1, 10**5):
        v = a * n * n + b * n + c
        if v >= 1 and is_practical_td(v) and v not in hits:
            hits.append(v)
            hits.sort()
        if len(hits) >= count and n >= turn and v > hits[count - 1]:
            break
    require(list(values) == hits[:count], f"quad stream ({a},{b},{c}): {values}")


def check_quad_witness(a, b, c, threshold, n, value, modulus) -> None:
    """q(n) = value >= threshold, modulus | value, and value / modulus <=
    sigma(modulus) + 1 with modulus practical: the multiplier lemma then
    proves value practical.  modulus is built from small primes, so trial
    division factors it."""
    require(value == (a * n + b) * n + c, f"quad witness: q({n}) != {value}")
    require(value >= threshold, f"quad witness {value} below threshold {threshold}")
    require(modulus >= 1 and value % modulus == 0, f"quad witness: {modulus} does not divide value")
    factors = factor_td(modulus)
    require(
        practical_by_multiplier(value, modulus, factors),
        f"quad witness: multiplier {value // modulus} exceeds sigma({modulus}) + 1 "
        "or the modulus is not practical",
    )


def check_decomposition(n, x, part) -> None:
    """x^2 + part = n with part = 2^a * s, s <= 2^(a+1) = sigma(2^a) + 1."""
    require(x * x + part == n and part >= 1, f"decomposition of {n}: x^2 + part != n")
    a = (part & -part).bit_length() - 1
    require((part >> a) <= 1 << (a + 1), "decomposition part not certified practical")


def check_not_representable(m: int) -> None:
    """No x >= 0 with x^2 < m leaves a practical m - x^2."""
    for x in range(math.isqrt(m - 1) + 1):
        require(not is_practical_td(m - x * x), f"{m} = {x}^2 + practical {m - x * x}")


def check_goldbach(n, p1, p2) -> None:
    require(p1 + p2 == n, f"goldbach {n}: {p1} + {p2} != {n}")
    require(1 <= p1 <= p2, f"goldbach {n}: pair ({p1}, {p2}) out of order")
    require(is_practical_td(p1) and is_practical_td(p2), f"goldbach {n}: part not practical")


def check_palindromic(values) -> None:
    """The i-th value is a run of 8s of length 2^i: 9 v + 8 = 8 * 10^(2^i)."""
    for i, v in enumerate(values, start=1):
        require(9 * v + 8 == 8 * 10 ** (1 << i), f"palindromic entry {i} is not 8 repeated 2^{i} times")


def check_flags(flags: np.ndarray, reference: np.ndarray | None = None) -> None:
    """Bitmap properties; equality with the tree bitmap when given."""
    require(flags.dtype == bool and not flags[0], "bitmap bit 0 set or wrong dtype")
    members = np.nonzero(flags[3:])[0] + 3
    require(
        bool(np.all((members % 4 == 0) | (members % 6 == 0))),
        "bitmap member above 2 not divisible by 4 or 6",
    )
    if reference is not None:
        require(flags.shape == reference.shape, "bitmap limit differs")
        diff = np.nonzero(flags != reference)[0]
        require(diff.size == 0, f"bitmap differs from the tree at n = {diff[:3].tolist()}")


def triples_from_flags(flags: np.ndarray, limit: int) -> list[int]:
    """Every m <= limit with m - 2, m and m + 2 set in flags."""
    ms = np.arange(3, limit + 1)
    return ms[flags[ms - 2] & flags[ms] & flags[ms + 2]].tolist()


_HEADER = struct.Struct("<4sIQ")


def read_bitmap_file(data: bytes) -> np.ndarray:
    """Parse the documented cache format: "PRAC", u32 version 1, u64 limit,
    then a little-endian bit array over 0..limit."""
    require(len(data) >= _HEADER.size, "bitmap file truncated")
    magic, version, limit = _HEADER.unpack_from(data)
    require(magic == b"PRAC" and version == 1, f"bitmap header {magic!r} v{version}")
    payload = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
    require(payload.size == (limit + 8) // 8, "bitmap payload length")
    return np.unpackbits(payload, bitorder="little")[: limit + 1].astype(bool)
