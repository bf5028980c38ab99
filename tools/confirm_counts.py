"""Confirm the frozen practical-number counts with the test suite's oracle.

    python3 tools/confirm_counts.py

tests/test_sieve.py freezes count_practicals at 10^8 and 10^9.  This tool
recounts both with tests/helpers.stewart_sieve_bits, which checks Stewart's
criterion window by window with no tree and no prime-counting table, so
the frozen values get a source independent of the code they test.  It
prints each count, its wall time and the process's peak RSS so far, and
exits 1 when a count differs from its frozen value.  The oracle holds a
bool array of limit + 1 bytes: about 1 GB at 10^9.  Not part of the test
suite; it takes minutes.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import stewart_sieve_bits  # noqa: E402

FROZEN = {10**8: 7266286, 10**9: 64782731}  # tests/test_sieve.py


def main() -> int:
    failed = False
    for limit, expected in FROZEN.items():
        start = time.perf_counter()
        count = int.from_bytes(stewart_sieve_bits(limit), "little").bit_count()
        seconds = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict = "ok" if count == expected else f"MISMATCH (frozen {expected})"
        print(f"limit {limit:.0e}  count {count}  {seconds:.1f} s  peak RSS {peak_mb:.0f} MiB  {verdict}",
              flush=True)
        failed |= count != expected
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
