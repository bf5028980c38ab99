"""Bulk enumeration of practical numbers.

Tree walk, no sieve: by the structure theorem every prefix of a practical
number's ordered factorization is practical, so the practical numbers
<= limit form a tree rooted at 1.  The children of a node n, with divisor
sum s and largest prime p, are n*q^e for primes q > p with q <= s + 1.  A
child n*q with q > isqrt(limit // n) has no children and no q^2 multiple
under the limit, so each node's leaves are one slice of the prime table:
counted by its length, set by one numpy scatter.  Counts need no bitmap.

The bitmap persists as a 16-byte header (magic "PRAC", version u32 LE,
limit u64 LE) followed by a little-endian bit array over 0..limit.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from pathlib import Path

import numpy as np

from .arith import primes_upto
from .errors import InvalidInput, MemoryBudgetExceeded

MAGIC = b"PRAC"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")

DEFAULT_MEMORY_BUDGET = 1 << 31  # bytes for the bitmap's bool array


class PracticalBitmap:
    """Membership bitmap for practical numbers on [1, limit]."""

    def __init__(self, flags: np.ndarray):
        self._flags = flags

    @property
    def limit(self) -> int:
        return len(self._flags) - 1

    def __contains__(self, n: int) -> bool:
        if not 1 <= n <= self.limit:
            raise InvalidInput(f"n = {n} outside bitmap range [1, {self.limit}]")
        return bool(self._flags[n])

    @property
    def flags(self) -> np.ndarray:
        """The underlying bool array, indexed by n (entry 0 is always False)."""
        return self._flags

    def members(self) -> np.ndarray:
        """All practical numbers <= limit, ascending."""
        return np.nonzero(self._flags)[0]

    def count(self, x: int | None = None) -> int:
        """Number of practical numbers <= x (default: <= limit)."""
        x = self.limit if x is None else x
        if not 1 <= x <= self.limit:
            raise InvalidInput(f"x = {x} outside bitmap range [1, {self.limit}]")
        return int(np.count_nonzero(self._flags[: x + 1]))

    def save(self, path: str | Path) -> None:
        packed = np.packbits(self._flags, bitorder="little")
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, self.limit))
            fh.write(packed.tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "PracticalBitmap":
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise InvalidInput(f"{path}: truncated header")
            magic, version, limit = _HEADER.unpack(header)
            if magic != MAGIC:
                raise InvalidInput(f"{path}: bad magic {magic!r}")
            if version != VERSION:
                raise InvalidInput(f"{path}: unsupported version {version}")
            payload = fh.read()
        expected = (limit + 8) // 8
        if len(payload) != expected:
            raise InvalidInput(
                f"{path}: payload length {len(payload)} != expected {expected}"
            )
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
        flags = bits[: limit + 1].astype(bool)
        if flags[0]:
            raise InvalidInput(f"{path}: corrupt bitmap (bit 0 set)")
        return cls(flags)


def _initial_prime_bound(limit: int) -> int:
    """Start of the prime table.  A node n needs primes up to min(sigma(n) + 1,
    limit // n) <= sqrt(limit * (sigma(n)/n + 1)), and sigma(n)/n < 7 for
    n < 1.9 * 10^24 (OEIS A023199); the walk extends a short table."""
    return math.isqrt(8 * limit) + 2


def _tree_walk(limit: int, on_node, on_leaves) -> None:
    """Visit every practical number <= limit once, from an explicit stack of
    (n, sigma(n), table index of n's largest prime): on_node(n) for each
    node, on_leaves(n, primes, i, j) for its leaves n * primes[i:j]."""
    primes = primes_upto(_initial_prime_bound(limit))
    table = primes.tolist()
    stack = [(1, 1, -1)]
    while stack:
        n, s, last = stack.pop()
        on_node(n)
        top = limit // n
        hi = min(s + 1, top)
        if hi > table[-1]:
            primes = primes_upto(2 * hi)
            table = primes.tolist()
        mid = bisect_right(table, min(math.isqrt(top), hi), last + 1)
        for i in range(last + 1, mid):
            q = table[i]
            m, t = n * q, q + 1  # t = sigma(q^e)
            while m <= limit:
                stack.append((m, s * t, i))
                m, t = m * q, t * q + 1
        end = bisect_right(table, hi, mid)
        if end > mid:
            on_leaves(n, primes, mid, end)


def sieve_practicals(
    limit: int, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> PracticalBitmap:
    """Bitmap of practical numbers on [1, limit]: one scatter per leaf slice
    of the tree walk, then one for its nodes."""
    if limit < 1:
        raise InvalidInput(f"sieve limit must be >= 1, got {limit}")
    if limit + 1 > memory_budget:
        raise MemoryBudgetExceeded(f"bitmap for limit {limit} exceeds {memory_budget} bytes")
    flags = np.zeros(limit + 1, dtype=bool)
    nodes: list[int] = []

    def leaves(n, primes, i, j):
        flags[n * primes[i:j]] = True

    _tree_walk(limit, nodes.append, leaves)
    flags[nodes] = True
    return PracticalBitmap(flags)


def count_practicals(x: int, bitmap: PracticalBitmap | None = None) -> int:
    """Exact count of practical numbers <= x; without a bitmap, the tree's
    node count plus its leaf slice lengths."""
    if bitmap is not None:
        return bitmap.count(x)
    if x < 1:
        raise InvalidInput(f"count bound must be >= 1, got {x}")
    total = 0

    def add(k):
        nonlocal total
        total += k

    _tree_walk(x, lambda _n: add(1), lambda _n, _primes, i, j: add(j - i))
    return total


def density_report(
    checkpoints: list[int], bitmap: PracticalBitmap | None = None
) -> list[tuple[int, int, float]]:
    """Rows (x, count, count * ln(x) / x) for each checkpoint.

    The first two columns are exact.  The ratio tends to Weingartner's
    constant c ~ 1.336, since P(x) ~ c * x / log x, but slowly; the report
    shows it and asserts no value.
    """
    if not checkpoints:
        return []
    if any(x < 1 for x in checkpoints):
        raise InvalidInput("checkpoints must be >= 1")
    # without a bitmap reaching every checkpoint, each count is a tree count
    bitmap = bitmap if bitmap is not None and bitmap.limit >= max(checkpoints) else None
    counts = [(x, count_practicals(x, bitmap)) for x in checkpoints]
    return [(x, c, c * math.log(x) / x if x > 1 else 0.0) for x, c in counts]
