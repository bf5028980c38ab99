"""Bulk enumeration of practical numbers.

Tree walk, no sieve: by the structure theorem every prefix of a practical
number's ordered factorization is practical, so the practical numbers
<= limit form a tree rooted at 1.  Here a node m whose largest prime is p
has two kinds of child: m*q for primes q > p with q <= sigma(m) + 1, and
m*p.  The walk starts from the practical numbers 2^a * 3^b in closed form:
the root's only children are the powers of two, 2^a with sigma
2^(a+1) - 1, and each one with a >= 1 takes every power of 3.  A child m*q
with q^2 > limit // m has no children (a leaf), so the leaves of m are one
range of the prime table, found by indexing a prime-counting table pi at
min(sigma(m) + 1, limit // m) and at that bound's integer square root.
The walk holds its nodes as numpy arrays, at most _BLOCK of them per
block, and its pending nodes on a stack that it empties deepest first, so
its memory is bounded however large the limit.  Counts add node counts and
leaf-range lengths, for every checkpoint in the same pass; the fill
scatters both.  Each checks its memory against DEFAULT_MEMORY_BUDGET.

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
from .errors import BudgetExceeded, InvalidInput

if TYPE_CHECKING:
    import numpy as np

MAGIC = b"PRAC"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")

DEFAULT_MEMORY_BUDGET = 1 << 31  # bytes for a walk, and for a fill with its walk
_BLOCK = 1 << 15  # the most nodes in one block of the walk


class PracticalBitmap:
    """Membership bitmap for practical numbers on [1, limit].

    `bits` is the packed bit array of the file format, (limit + 8) // 8
    bytes with bit 0 clear: n is practical when bit n % 8 of byte n // 8
    is set.  `PracticalBitmap(flags)` packs a bool array indexed by n and
    keeps only the bits; `load` and `save` copy the bytes as they are.
    """

    def __init__(self, flags: np.ndarray):
        import numpy as np

        self.limit = len(flags) - 1
        self.bits = np.packbits(flags, bitorder="little").tobytes()
        self._flags = None

    def __contains__(self, n: int) -> bool:
        if not 1 <= n <= self.limit:
            raise InvalidInput(f"n = {n} outside bitmap range [1, {self.limit}]")
        return bool(self.bits[n >> 3] >> (n & 7) & 1)

    @property
    def flags(self) -> np.ndarray:
        """Bool array indexed by n (entry 0 is always False), unpacked from
        `bits` on first use and kept.  Writing to it leaves `bits` as it
        was."""
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
        if not 0 <= x <= self.limit:
            raise InvalidInput(f"x = {x} outside bitmap range [0, {self.limit}]")
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
    """Size of the prime tables.  A node m needs primes up to
    min(sigma(m) + 1, limit // m) <= sqrt(limit * (sigma(m)/m + 1)), and
    sigma(m)/m < 7 for m < 1.97 * 10^24 (OEIS A023199), so the table holds
    every prime a walk below 2^59 reaches."""
    return math.isqrt(8 * limit) + 2


def _walk_bytes(limit: int) -> int:
    """Bytes a walk to limit holds at most: 17 per prime table entry (the
    sieve's flags, pi, and two copies of the primes, at most half the
    entries), 48 per node of a job on the stack and 160 per node of the
    current block and the children it is being expanded into."""
    depth = 0  # of the deepest node, whose part prime to 6 is 5^depth or more
    while 5 ** (depth + 1) <= limit:
        depth += 1
    return 17 * (_initial_prime_bound(limit) + 1) + _BLOCK * (48 * depth + 160)


def _prime_tables(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes <= bound, and pi with pi[v] the number of them <= v."""
    import numpy as np

    primes = primes_upto(bound)
    pi = np.zeros(bound + 1, dtype=np.int64)
    pi[primes] = 1
    return primes, np.cumsum(pi, out=pi)


def _isqrt(v: np.ndarray) -> np.ndarray:
    """math.isqrt of each entry of an int64 array below 2^59.  Below 2^52
    the correctly rounded float root truncates to it.  Above, float(v) is
    within 32 of v, which moves the root of a square k^2 by less than half
    a unit in k's last place, so the truncated root is never low and at
    most one high: one step down corrects it."""
    import numpy as np

    r = np.sqrt(v).astype(np.int64)
    if v.max(initial=0) >= 1 << 52:
        r -= r * r > v
    return r


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index) pairs listing every index of the ranges lo[k]:hi[k]."""
    import numpy as np

    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    index = np.arange(len(owner)) + (lo - np.cumsum(counts) + counts)[owner]
    return owner, index


def _smooth_practicals(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The practical numbers 2^a * 3^b <= limit and their divisor sums, as
    int64 arrays: 1, and 2^a * 3^b for a >= 1, since sigma(2^a) + 1 >= 3."""
    import numpy as np

    n, s = [1], [1]
    t = 1  # 3^b
    while 2 * t <= limit:
        m = 2 * t
        while m <= limit:
            n.append(m)
            s.append((2 * m // t - 1) * (3 * t - 1) // 2)
            m *= 2
        t *= 3
    return np.array(n, dtype=np.int64), np.array(s, dtype=np.int64)


def _take(stack: list, primes: np.ndarray) -> tuple[np.ndarray, ...]:
    """The next children of the top job on the stack, at most _BLOCK of them,
    as arrays (m, sigma(m), sigma(m / p^e), table index of p) for m's
    largest prime power p^e.  A job is a block's four node arrays and the
    range lo:stop of each node's child indices: index `last`, its own
    prime's, stands for the child m * p, a larger index i for m * primes[i].
    The job keeps the ranges it does not hand out."""
    import numpy as np

    n, s, r, last, lo, stop = stack[-1]
    size = stop - lo
    if size.sum() <= _BLOCK:
        stack.pop()
        cut = stop
    else:
        cut = lo + np.clip(_BLOCK - np.cumsum(size) + size, 0, size)
        rest = cut < stop
        stack[-1] = [a[rest] for a in (n, s, r, last, cut, stop)]
    owner, index = _spans(lo, cut)
    q, s = primes[index], s[owner]
    # sigma(m * p) = p * sigma(m) + sigma(m / p^e), sigma(m * q) = q * sigma(m) + sigma(m)
    r = np.where(index == last[owner], r[owner], s)
    return n[owner] * q, q * s + r, r, index


def _tree_blocks(limit: int):
    """Every practical number <= limit once, a block of tree nodes at a time:
    yields (nodes, primes, pi, lo, hi) with the leaves of nodes[k] at
    nodes[k] * primes[lo[k]:hi[k]].

    The first block is _smooth_practicals(limit).  Every later block is at
    most _BLOCK children that _take hands out from the job on top of the
    stack, and a block with children goes on the stack whole, as one job.
    So a job holds at most _BLOCK nodes (the first has at most 1,109 below
    2^59), and the stack holds jobs of strictly increasing depth, each with
    children one depth below it.  A node at depth d has a part prime to 6
    of 5^d or more, so the stack holds at most log_5(limit) jobs, and with
    the current block at most _BLOCK * (log_5(limit) + 1) nodes are in
    flight.  Nodes are int64
    arrays of m, sigma(m), sigma of m without its largest prime's power and
    the table index of that prime; sigma(m) < 7m and q * q < 8 * limit for
    table primes q keep them exact below 2^59.
    """
    import numpy as np

    primes, pi = _prime_tables(_initial_prime_bound(limit))
    n, s = _smooth_practicals(limit)
    # last is 3's index and lo = last + 1: every child is m * q with q >= 5,
    # and none m * p, so r is not read
    r, last = s, np.ones_like(n)
    top, lo = limit // n, last + 1
    stack: list = []
    while True:
        hi = np.minimum(s + 1, top)
        mid = np.maximum(pi[np.minimum(_isqrt(top), hi)], last + 1)  # q * q <= top
        end = np.maximum(pi[hi], mid)
        yield n, primes, pi, mid, end
        if (lo < mid).any():
            stack.append([n, s, r, last, lo, mid])
        if not stack:
            return
        n, s, r, last = _take(stack, primes)
        top = limit // n
        lo = last + (primes[last] > top)  # lo = last: m * p <= limit is a child


def _check_memory(what: str, need: int) -> None:
    """Raise when need bytes exceed DEFAULT_MEMORY_BUDGET, read at call time."""
    if need > DEFAULT_MEMORY_BUDGET:
        raise BudgetExceeded(
            f"{what} needs {need} bytes, over sieve.DEFAULT_MEMORY_BUDGET = {DEFAULT_MEMORY_BUDGET}",
            knob="sieve.DEFAULT_MEMORY_BUDGET", limit=DEFAULT_MEMORY_BUDGET, used=need,
        )


def sieve_practicals(limit: int) -> PracticalBitmap:
    """Bitmap of practical numbers on [1, limit]: per block of the walk, one
    scatter for its nodes and one per 1024 nodes for their leaves."""
    if limit < 1:
        raise InvalidInput(f"sieve limit must be >= 1, got {limit}")
    packed = (limit + 8) // 8  # held twice: the packed array and its bytes copy
    _check_memory(f"bitmap for limit {limit}", limit + 1 + 2 * packed + _walk_bytes(limit))
    import numpy as np

    flags = np.zeros(limit + 1, dtype=bool)
    for n, primes, _, lo, hi in _tree_blocks(limit):
        flags[n] = True
        for k in range(0, len(n), 1024):  # the leaves of 1024 nodes at a time
            owner, index = _spans(lo[k : k + 1024], hi[k : k + 1024])
            flags[n[k + owner] * primes[index]] = True
    return PracticalBitmap(flags)


def _counts(xs: list[int], bitmap: PracticalBitmap | None) -> list[int]:
    """The number of practical numbers <= x for each x in xs: from the bitmap
    when it reaches max(xs), else from one walk to max(xs), whose
    _walk_bytes must fit DEFAULT_MEMORY_BUDGET.  A node m counts towards x
    when m <= x, its leaves m * q when q <= x // m."""
    if min(xs) < 1:
        raise InvalidInput(f"count bound must be >= 1, got {min(xs)}")
    limit = max(xs)
    if bitmap is not None and bitmap.limit >= limit:
        return [bitmap.count(x) for x in xs]
    if limit >= 1 << 59:  # below it, sigma(m) + 1 <= 7 * limit stays under 2^63
        raise InvalidInput(f"count bound must be < 2^59 for the int64 tree walk, got {limit}")
    _check_memory(f"tree walk to {limit}", _walk_bytes(limit))
    import numpy as np

    below = sorted(set(xs) - {limit})
    tally = dict.fromkeys(below + [limit], 0)
    for n, _, pi, lo, hi in _tree_blocks(limit):
        tally[limit] += len(n) + int((hi - lo).sum())
        for x in below:
            fit = np.clip(pi[np.minimum(x // n, len(pi) - 1)], lo, hi)
            tally[x] += int(np.count_nonzero(n <= x)) + int((fit - lo).sum())
    return [tally[x] for x in xs]


def count_practicals(x: int, bitmap: PracticalBitmap | None = None) -> int:
    """Exact count of practical numbers <= x: the bitmap's when it reaches
    x, else the tree's node count plus its leaf range lengths."""
    return _counts([x], bitmap)[0]


def density_report(
    checkpoints: list[int], bitmap: PracticalBitmap | None = None
) -> list[tuple[int, int, float]]:
    """Rows (x, count, count * ln(x) / x) for each checkpoint, every count
    from the bitmap when it reaches them all, else from one tree walk.

    The first two columns are exact.  The ratio tends to Weingartner's
    constant c ~ 1.336, since P(x) ~ c * x / log x, but slowly; the report
    shows it and asserts no value.
    """
    if not checkpoints:
        return []
    counts = _counts(checkpoints, bitmap)
    return [(x, c, c * math.log(x) / x if x > 1 else 0.0) for x, c in zip(checkpoints, counts)]
