"""Bulk enumeration of practical numbers.

Tree walk, no sieve: by the structure theorem every prefix of a practical
number's ordered factorization is practical, so the practical numbers
<= limit form a tree rooted at 1.  The children of a node n, with divisor
sum s and largest prime p, are n*q^e for primes q > p with q <= s + 1; the
ones with q > isqrt(limit // n) are leaves, one range of the prime table.
The walk holds one depth of nodes at a time as numpy arrays: searchsorted
finds their child and leaf ranges, np.repeat expands them.  Counts add
node counts and range lengths (no bitmap); the fill scatters both.

A bitmap is a little-endian bit array over 0..limit (bit n % 8 of byte
n // 8 is set when n is practical), held in memory as the bytes it
persists as, after a 16-byte header (magic "PRAC", version u32 LE, limit
u64 LE).  Counts, membership and the representation checks read those
bytes directly or as one Python int, so a bitmap loaded from disk needs no
numpy; numpy is imported only to walk the tree and to hand out bool arrays
(`flags`, `members`).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import TYPE_CHECKING

from .arith import primes_upto
from .errors import InvalidInput, MemoryBudgetExceeded

if TYPE_CHECKING:
    import numpy as np

MAGIC = b"PRAC"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")

DEFAULT_MEMORY_BUDGET = 1 << 31  # bytes for the bitmap's bool array


class PracticalBitmap:
    """Membership bitmap for practical numbers on [1, limit].

    `bits` is the packed bit array of the file format, (limit + 8) // 8
    bytes with bit 0 clear: n is practical when bit n % 8 of byte n // 8
    is set.  `PracticalBitmap(flags)` packs a bool array indexed by n and
    keeps it as `flags`; `load` and `save` copy the bytes as they are.
    """

    def __init__(self, flags: np.ndarray):
        import numpy as np

        self.limit = len(flags) - 1
        self.bits = np.packbits(flags, bitorder="little").tobytes()
        self._flags = flags

    def __contains__(self, n: int) -> bool:
        if not 1 <= n <= self.limit:
            raise InvalidInput(f"n = {n} outside bitmap range [1, {self.limit}]")
        return bool(self.bits[n >> 3] >> (n & 7) & 1)

    @property
    def flags(self) -> np.ndarray:
        """Bool array indexed by n (entry 0 is always False): the array the
        bitmap was built from, else unpacked from `bits` on first use.
        Writing to it leaves `bits` as it was."""
        if self._flags is None:
            import numpy as np

            packed = np.frombuffer(self.bits, dtype=np.uint8)
            self._flags = np.unpackbits(packed, count=self.limit + 1, bitorder="little").view(bool)
        return self._flags

    def members(self) -> np.ndarray:
        """All practical numbers <= limit, ascending."""
        import numpy as np

        return np.nonzero(self.flags)[0]

    def as_int(self, x: int) -> int:
        """Bits 0..x as one int: bit n is set when n <= x is practical."""
        last = self.bits[x >> 3] & ((2 << (x & 7)) - 1)  # bits 8 * (x >> 3)..x
        return int.from_bytes(self.bits[: x >> 3] + bytes((last,)), "little")

    def count(self, x: int | None = None) -> int:
        """Number of practical numbers <= x (default: <= limit)."""
        x = self.limit if x is None else x
        if not 1 <= x <= self.limit:
            raise InvalidInput(f"x = {x} outside bitmap range [1, {self.limit}]")
        return self.as_int(x).bit_count()

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, self.limit))
            fh.write(self.bits)

    @classmethod
    def load(cls, path: str | Path) -> PracticalBitmap:
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
        if payload[0] & 1:
            raise InvalidInput(f"{path}: corrupt bitmap (bit 0 set)")
        bitmap = cls.__new__(cls)  # bits only: `flags` unpacks them when asked
        bitmap.limit, bitmap.bits, bitmap._flags = limit, payload, None
        return bitmap


def _initial_prime_bound(limit: int) -> int:
    """Start of the prime table.  A node n needs primes up to min(sigma(n) + 1,
    limit // n) <= sqrt(limit * (sigma(n)/n + 1)), and sigma(n)/n < 7 for
    n < 1.9 * 10^24 (OEIS A023199); the walk extends a short table."""
    return math.isqrt(8 * limit) + 2


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index) pairs listing every index of the ranges lo[k]:hi[k]."""
    import numpy as np

    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    index = np.arange(len(owner)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    return owner, index


def _tree_levels(limit: int):
    """Every practical number <= limit once, one tree depth at a time: yields
    (nodes, primes, lo, hi) with the leaves of nodes[k] at nodes[k] * primes[lo[k]:hi[k]].
    A depth is held as int64 arrays of n, sigma(n) and the table index of
    n's largest prime (-1 for the root); sigma(n) < 7n and q * q < 8 * limit
    for table primes q keep them exact below 2^59."""
    import numpy as np

    primes = primes_upto(_initial_prime_bound(limit))
    n, s, last = (np.array([v], dtype=np.int64) for v in (1, 1, -1))
    while len(n):
        top = limit // n
        hi = np.minimum(s + 1, top)
        if hi.max() > primes[-1]:
            primes = primes_upto(2 * int(hi.max()))
        end = np.searchsorted(primes, hi, "right")
        mid = np.minimum(np.searchsorted(primes * primes, top, "right"), end)  # q * q <= top
        mid = np.maximum(mid, last + 1)
        end = np.maximum(end, mid)
        yield n, primes, mid, end
        owner, last = _spans(last + 1, mid)
        q, s = primes[last], s[owner]
        m, t = n[owner] * q, q + 1  # t = sigma(q^e)
        kids = [(m, s * t, last)]
        while len(m):
            more = m <= limit // q  # m * q <= limit, without overflow
            m, t, s, q, last = (a[more] for a in (m * q, t * q + 1, s, q, last))
            kids.append((m, s * t, last))
        n, s, last = (np.concatenate(a) for a in zip(*kids))


def sieve_practicals(
    limit: int, memory_budget: int = DEFAULT_MEMORY_BUDGET
) -> PracticalBitmap:
    """Bitmap of practical numbers on [1, limit]: per tree depth, one scatter
    for its nodes and one for its leaves."""
    if limit < 1:
        raise InvalidInput(f"sieve limit must be >= 1, got {limit}")
    if limit + 1 > memory_budget:
        raise MemoryBudgetExceeded(f"bitmap for limit {limit} exceeds {memory_budget} bytes")
    import numpy as np

    flags = np.zeros(limit + 1, dtype=bool)
    for n, primes, lo, hi in _tree_levels(limit):
        flags[n] = True
        for k in range(0, len(n), 1024):  # the leaves of 1024 nodes at a time
            owner, index = _spans(lo[k : k + 1024], hi[k : k + 1024])
            flags[n[k + owner] * primes[index]] = True
    return PracticalBitmap(flags)


def count_practicals(x: int, bitmap: PracticalBitmap | None = None) -> int:
    """Exact count of practical numbers <= x; without a bitmap, the tree's
    node count plus its leaf range lengths."""
    if bitmap is not None:
        return bitmap.count(x)
    if x < 1:
        raise InvalidInput(f"count bound must be >= 1, got {x}")
    if x >= 1 << 59:  # below it, sigma(n) + 1 <= 7 * x stays under 2^63
        raise InvalidInput(f"count bound must be < 2^59 for the int64 tree walk, got {x}")
    return sum(len(n) + int((hi - lo).sum()) for n, _, lo, hi in _tree_levels(x))


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
