"""Bulk enumeration of practical numbers.

Segmented sieve: each segment factors its numbers by striking base primes
in increasing order, which lets the structure test run incrementally (the
divisor-sum of the already-extracted prefix is at hand exactly when the
next prime factor shows up).  Segments are independent, so construction
order cannot change the result.

The bitmap persists as a 16-byte header (magic "PRAC", version u32 LE,
limit u64 LE) followed by a little-endian bit array over 0..limit.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .arith import primes_upto
from .errors import InvalidInput, MemoryBudgetExceeded

MAGIC = b"PRAC"
VERSION = 1
_HEADER = struct.Struct("<4sIQ")

DEFAULT_SEGMENT_SIZE = 1 << 20
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


def _segment_flags(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Practicality flags for [lo, hi); requires lo >= 1 and the base primes
    to cover isqrt(hi - 1)."""
    size = hi - lo
    remaining = np.arange(lo, hi, dtype=np.int64)
    sig = np.ones(size, dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    for p in base_primes:
        p = int(p)
        if p * p >= hi:
            break
        first = ((lo + p - 1) // p) * p
        idx = np.arange(first - lo, size, p, dtype=np.int64)
        if idx.size == 0:
            continue
        # chain condition: p <= sigma(prefix of smaller primes) + 1
        alive[idx] &= sig[idx] >= p - 1
        rem = remaining[idx] // p
        t = np.full(idx.size, p + 1, dtype=np.int64)
        pk = p
        while True:
            div = rem % p == 0
            if not div.any():
                break
            pk *= p
            rem[div] //= p
            t[div] += pk
        remaining[idx] = rem
        sig[idx] *= t
    big = remaining > 1  # a single prime factor above the segment's sqrt
    alive[big] &= remaining[big] <= sig[big] + 1
    return alive


def sieve_practicals(
    limit: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> PracticalBitmap:
    """Bitmap of practical numbers on [1, limit].

    Memory stays bounded by the output array plus O(segment_size) work
    arrays regardless of limit.
    """
    if limit < 1:
        raise InvalidInput(f"sieve limit must be >= 1, got {limit}")
    if segment_size < 8:
        raise InvalidInput(f"segment size too small: {segment_size}")
    if limit + 1 > memory_budget:
        raise MemoryBudgetExceeded(
            f"bitmap for limit {limit} exceeds {memory_budget} bytes"
        )
    flags = np.zeros(limit + 1, dtype=bool)
    base = primes_upto(math.isqrt(limit))
    lo = 1
    while lo <= limit:
        hi = min(lo + segment_size, limit + 1)
        flags[lo:hi] = _segment_flags(lo, hi, base)
        lo = hi
    return PracticalBitmap(flags)


def count_practicals(x: int, bitmap: PracticalBitmap | None = None) -> int:
    """Exact count of practical numbers <= x."""
    if bitmap is None:
        bitmap = sieve_practicals(x)
    return bitmap.count(x)


def density_report(
    checkpoints: list[int], bitmap: PracticalBitmap | None = None
) -> list[tuple[int, int, float]]:
    """Rows (x, count, count * ln(x) / x) for each checkpoint.

    The first two columns are exact; the ratio tracks the linear-over-log
    growth of the count empirically (no constant is asserted).
    """
    if not checkpoints:
        return []
    if any(x < 1 for x in checkpoints):
        raise InvalidInput("checkpoints must be >= 1")
    top = max(checkpoints)
    if bitmap is None or bitmap.limit < top:
        bitmap = sieve_practicals(top)
    rows = []
    for x in checkpoints:
        c = bitmap.count(x)
        ratio = c * math.log(x) / x if x > 1 else 0.0
        rows.append((x, c, ratio))
    return rows
