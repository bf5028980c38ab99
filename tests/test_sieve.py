import hashlib
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from practicum import arith, sieve
from practicum import (
    BudgetExceeded,
    InvalidInput,
    PracticalBitmap,
    count_practicals,
    density_report,
    goldbach_pair,
    is_practical,
    is_practical_oracle,
    is_practical_quick,
    practical_triples,
    sieve_practicals,
)
from helpers import stewart_sieve_bits, time_limit


def test_sieve_limit_20_exact():
    bm = sieve_practicals(20)
    assert bm.members().tolist() == [1, 2, 4, 6, 8, 12, 16, 18, 20]
    # cross-checked against the definition-level oracle
    expected = [n for n in range(1, 21) if is_practical_oracle(n)]
    assert bm.members().tolist() == expected


def test_sieve_limit_1():
    bm = sieve_practicals(1)
    assert bm.members().tolist() == [1]
    assert bm.count() == 1
    with pytest.raises(InvalidInput, match="sieve limit must be >= 1, got 0"):
        sieve_practicals(0)


def test_counts():
    assert count_practicals(1) == 1
    assert count_practicals(20) == 9
    bm = sieve_practicals(100)
    assert bm.count(100) == sum(1 for n in range(1, 101) if is_practical_oracle(n))


def test_sieve_agrees_with_structure_test():
    bm = sieve_practicals(4000)
    for n in range(1, 4001):
        assert (n in bm) == is_practical(n).practical, n
    big = sieve_practicals(10**6)
    rng = random.Random(6)
    for n in rng.sample(range(1, 10**6 + 1), 3000):
        assert (n in big) == is_practical(n).practical, n


def test_tree_bitmap_agrees_with_structure_test():
    small = sieve_practicals(2 * 10**4)
    for n in range(1, 2 * 10**4 + 1):
        assert (n in small) == is_practical(n).practical, n
    big = sieve_practicals(10**7)
    rng = random.Random(7)
    for n in rng.sample(range(1, 10**7 + 1), 3000):
        assert (n in big) == is_practical(n).practical, n


def _unpacked(bits, limit):
    return np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=limit + 1, bitorder="little")


def test_stewart_sieve_oracle_agrees_with_the_structure_test():
    # windows of 2^12: 24 window edges inside the range
    flags = _unpacked(stewart_sieve_bits(10**5, 1 << 12), 10**5)
    assert flags[0] == 0
    for n in range(1, 10**5 + 1):
        assert flags[n] == is_practical(n).practical, n
    for n in range(1, 10**3 + 1):
        assert flags[n] == is_practical_oracle(n), n


def test_whole_bitmap_matches_the_stewart_sieve_oracle():
    # every bit to 10^7 against an algorithm with no tree, pi table or int64
    # isqrt, on windows of 2^20: nine window edges inside the range
    bits = stewart_sieve_bits(10**7)
    assert sieve_practicals(10**7).bits == bits
    assert int(_unpacked(bits, 10**7).sum()) == 829_157


def test_jobs_split_at_small_blocks_match_the_stewart_sieve_oracle(monkeypatch):
    # 64-node blocks split jobs all through the walk to 2 * 10^5, so every
    # child range cut at a block boundary is checked against the oracle
    monkeypatch.setattr(sieve, "_BLOCK", 64)
    assert sieve_practicals(2 * 10**5).bits == stewart_sieve_bits(2 * 10**5)


def test_tree_count_agrees_with_bitmap_count():
    X = 2 * 10**5
    bm = sieve_practicals(X)
    rng = random.Random(8)
    xs = list(range(1, 300)) + rng.sample(range(300, X + 1), 300) + [X]
    for x in xs:
        assert count_practicals(x) == bm.count(x), x


def test_prime_table_holds_every_prime_a_walk_reaches():
    # a node m takes primes up to min(sigma(m) + 1, L // m), and the walk's
    # table, indexed up to _initial_prime_bound(L), is never extended
    top = 10**5
    nodes = [(m, is_practical(m).sigma) for m in sieve_practicals(top).members().tolist()]
    for limit in (1, 2, 3, 10, 100, 999, 10**4, 54321, top):
        need = max(min(s + 1, limit // m) for m, s in nodes if m <= limit)
        assert need < sieve._initial_prime_bound(limit) + 1, limit


def test_smooth_practicals_are_the_practical_2_3_smooth_numbers():
    for limit in (1, 2, 5, 6, 17, 18, 10**4):
        n, s = sieve._smooth_practicals(limit)
        expected = [m for m in range(1, limit + 1)
                    if m == 2 ** arith.valuation(m, 2) * 3 ** arith.valuation(m, 3) and is_practical_quick(m)]
        assert sorted(n.tolist()) == expected, limit
        assert s.tolist() == [arith.sigma(arith.factorize(int(m))) for m in n], limit


def _quick_flags(limit):
    return np.array([False] + [is_practical_quick(n) for n in range(1, limit + 1)])


def test_level_walk_matches_quick_scan():
    # every small limit, and p^k - 1, p^k, p^k + 1: at p^k the tree gains a
    # node and at q^2 / n a prime moves from a node's leaves to its children
    limits = list(range(1, 601))
    for p in (2, 3, 5, 7, 11, 13):
        limits += [x for k in range(1, 18) if p**k <= 2 * 10**5 for x in (p**k - 1, p**k, p**k + 1)]
    reference = _quick_flags(max(limits))
    for x in limits:
        assert np.array_equal(sieve_practicals(x).flags, reference[: x + 1]), x
        assert count_practicals(x) == int(reference[: x + 1].sum()), x


def test_count_at_10_to_the_8_is_frozen():
    assert count_practicals(10**8) == 7266286


def test_counts_at_10_to_the_9_and_10_are_frozen():
    assert count_practicals(10**9) == 64782731
    assert count_practicals(10**10) == 582798892


def _walk_limits():
    limits = list(range(1, 700))
    for p in (2, 3, 5, 7, 11, 13):
        limits += [x for k in range(1, 18) if p**k <= 2 * 10**5 for x in (p**k - 1, p**k, p**k + 1)]
    return limits + [10**6, 4 * 10**6 + 3, 10**7]


def test_walk_digest_is_frozen():
    # every bitmap and count on 852 limits, as the level walk (commit 634616c) gave them
    limits = _walk_limits()
    assert len(limits) == 852
    digest = hashlib.sha256()
    for x in limits:
        digest.update(f"{x} {count_practicals(x)}\n".encode())
        digest.update(sieve_practicals(x).bits)
    assert digest.hexdigest() == "c63eecdd61d23b9e2a81d4b11d365d94a6107c5066f44bc09a60846aadbac7b6"


def test_one_pass_tallies_match_bitmap_counts():
    X = 2 * 10**5
    bm = sieve_practicals(X)
    rng = random.Random(17)
    for trial in range(40):
        top = X if trial % 2 else rng.randrange(2, X)
        xs = rng.sample(range(1, top + 1), rng.randrange(1, 8)) + [1, top]
        xs += rng.choices(xs, k=3)  # duplicates
        rng.shuffle(xs)
        expected = [bm.count(x) for x in xs]
        assert [c for _, c, _ in density_report(xs)] == expected, xs
        assert [x for x, _, _ in density_report(xs)] == xs
        assert [count_practicals(x) for x in set(xs)] == [bm.count(x) for x in set(xs)]


def test_bitmap_that_does_not_reach_x_falls_back_to_the_tree():
    short = sieve_practicals(1000)
    assert count_practicals(5000, short) == count_practicals(5000) == int(_quick_flags(5000).sum())
    assert density_report([10, 5000], short) == density_report([10, 5000])
    assert count_practicals(1000, short) == short.count()


def test_small_blocks_keep_every_count_and_bound_the_nodes_in_flight(monkeypatch):
    # with 7-node blocks every job is split across many takes
    monkeypatch.setattr(sieve, "_BLOCK", 7)
    take = sieve._take
    stacks = []

    def recording_take(stack, primes):
        stacks.append([len(job[0]) for job in stack])
        return take(stack, primes)

    monkeypatch.setattr(sieve, "_take", recording_take)
    reference = _quick_flags(3 * 10**4)
    for x in (1, 2, 17, 64, 729, 10**4, 3 * 10**4):
        stacks.clear()
        with time_limit(10):  # a split that hands out no child would take forever
            assert np.array_equal(sieve_practicals(x).flags, reference[: x + 1]), x
            assert count_practicals(x) == int(reference[: x + 1].sum()), x
            blocks = [len(n) for n, *_ in sieve._tree_blocks(x)]
        assert max(blocks[1:], default=0) <= 7, x  # every block after the first
        depth = int(math.log(x, 5) + 1e-9)  # the part prime to 6 of a depth-d node is >= 5^d
        assert all(len(jobs) <= depth and max(jobs[1:], default=0) <= 7 for jobs in stacks), x


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_memory_stays_within_its_budget(monkeypatch):
    for x in (10**4, 10**6, 10**8):
        assert _traced_peak(lambda: count_practicals(x)) <= sieve._walk_bytes(x), x
        with monkeypatch.context() as m:
            m.setattr(sieve, "DEFAULT_MEMORY_BUDGET", sieve._walk_bytes(x))
            assert count_practicals(x) > 0
            m.setattr(sieve, "DEFAULT_MEMORY_BUDGET", sieve._walk_bytes(x) - 1)
            with pytest.raises(BudgetExceeded, match="DEFAULT_MEMORY_BUDGET"):
                count_practicals(x)
    bitmap = sieve_practicals(10**4)  # built first: the fill checks the same budget
    monkeypatch.setattr(sieve, "DEFAULT_MEMORY_BUDGET", 0)
    assert count_practicals(10**4, bitmap) == 1456  # a covering bitmap needs no walk


def test_a_built_bitmap_holds_only_its_bits():
    sieve_practicals(100)  # imports and caches made before tracing starts
    tracemalloc.start()
    try:
        bitmap = sieve_practicals(10**6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * len(bitmap.bits), held  # not the fill's bool array, 8x the bits
    assert int(bitmap.flags.sum()) == bitmap.count() == 97385  # unpacked on first use


def test_fill_memory_stays_within_its_budget():
    for x in (10**4, 10**6, 10**7):
        # the bool array, its packed bits, their bytes copy and the walk
        need = x + 1 + 2 * ((x + 8) // 8) + sieve._walk_bytes(x)
        assert _traced_peak(lambda: sieve_practicals(x)) <= need, x


def test_budget_errors_name_their_knob(monkeypatch):
    need = sieve._walk_bytes(10**6)
    monkeypatch.setattr(sieve, "DEFAULT_MEMORY_BUDGET", need - 1)
    knob = re.escape(f"over sieve.DEFAULT_MEMORY_BUDGET = {need - 1}")
    with pytest.raises(BudgetExceeded, match=f"needs {need} bytes, {knob}$"):
        count_practicals(10**6)
    with pytest.raises(BudgetExceeded, match=r"sieve\.DEFAULT_MEMORY_BUDGET"):
        density_report([10, 10**6])
    monkeypatch.setattr(sieve, "DEFAULT_MEMORY_BUDGET", 1000)
    message = "needs 19123922 bytes, over sieve.DEFAULT_MEMORY_BUDGET = 1000"
    with pytest.raises(BudgetExceeded, match=re.escape(message) + "$"):
        sieve_practicals(10**6)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, math.isqrt((1 << 59) - 1) - 1), v=st.integers(0, (1 << 59) - 1))
def test_int64_isqrt_matches_math_isqrt(k, v):
    # (2^26 + 1)^2 - 1 is the first value whose truncated float root is one high
    values = [k * k, k * k + 1, (k + 1) ** 2 - 1, max(k * k - 1, 0), v,
              (1 << 52) - 1, 1 << 52, (2**26 + 1) ** 2 - 1, (1 << 59) - 1]
    for u in values:  # alone, so each array takes its own branch
        assert sieve._isqrt(np.array([u], dtype=np.int64)).tolist() == [math.isqrt(u)], u
    got = sieve._isqrt(np.array(values, dtype=np.int64))
    assert got.tolist() == [math.isqrt(u) for u in values]


def test_count_rejects_bounds_beyond_int64_walk():
    with pytest.raises(InvalidInput, match=r"2\^59"):
        count_practicals(1 << 59)
    with pytest.raises(InvalidInput, match=r"2\^59"):
        count_practicals(10**30)


def test_triples_match_brute_force_at_every_small_limit():
    flags = _quick_flags(70)
    for limit in range(1, 65):
        expected = [m for m in range(3, limit + 1) if flags[m - 2] and flags[m] and flags[m + 2]]
        assert practical_triples(limit) == expected, limit
        assert practical_triples(limit, sieve_practicals(limit + 5)) == expected, limit


@settings(max_examples=25, deadline=None)
@given(N=st.integers(min_value=1, max_value=3 * 10**5), data=st.data())
def test_tree_count_and_fill_agree_with_structure_test(N, data):
    bm = sieve_practicals(N)
    assert count_practicals(N) == bm.count()
    for n in data.draw(st.lists(st.integers(1, N), max_size=40)):
        assert (n in bm) == is_practical(n).practical, n


def test_membership_range_checks():
    bm = sieve_practicals(100)
    with pytest.raises(InvalidInput):
        101 in bm
    with pytest.raises(InvalidInput):
        bm.count(0)


def test_as_int_rejects_bits_outside_the_bitmap():
    bm = sieve_practicals(100)
    for x in (-1, bm.limit + 1, bm.limit + 8):
        with pytest.raises(InvalidInput, match=r"\[0, 100\]"):
            bm.as_int(x)
    assert bm.as_int(0) == 0
    assert bm.as_int(bm.limit) == sum(1 << int(n) for n in bm.members())


def test_memory_budget(monkeypatch):
    # the fill reads sieve.DEFAULT_MEMORY_BUDGET when it runs, as the tree count does
    monkeypatch.setattr(sieve, "DEFAULT_MEMORY_BUDGET", 1000)
    with pytest.raises(BudgetExceeded, match="DEFAULT_MEMORY_BUDGET"):
        sieve_practicals(10**6)
    limit = 5000  # the fill holds its flags, the packed bits twice and the walk
    need = limit + 1 + 2 * 626 + sieve._walk_bytes(limit)
    monkeypatch.setattr(sieve, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(BudgetExceeded, match="DEFAULT_MEMORY_BUDGET"):
        sieve_practicals(limit)
    monkeypatch.setattr(sieve, "DEFAULT_MEMORY_BUDGET", need)
    assert sieve_practicals(limit).count() == len([n for n in range(1, limit + 1) if is_practical(n).practical])


def test_density_report_columns():
    bm = sieve_practicals(1000)
    rows = density_report([10, 100, 1000], bm)
    for x, count, ratio in rows:
        assert count == bm.count(x)
        assert ratio == pytest.approx(count * math.log(x) / x)
    assert density_report([]) == []
    with pytest.raises(InvalidInput):
        density_report([0])


def test_save_load_roundtrip(tmp_path):
    bm = sieve_practicals(12345)
    path = tmp_path / "p.bits"
    bm.save(path)
    loaded = PracticalBitmap.load(path)
    assert loaded.limit == 12345
    assert loaded.flags.dtype == bool
    assert np.array_equal(loaded.flags, bm.flags)
    # byte-identical re-save
    path2 = tmp_path / "p2.bits"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_header_validation(tmp_path):
    bm = sieve_practicals(100)
    path = tmp_path / "p.bits"
    bm.save(path)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.bits"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(InvalidInput, match="magic"):
        PracticalBitmap.load(bad)

    bad.write_bytes(bytes(raw[:4]) + b"\x02\x00\x00\x00" + bytes(raw[8:]))
    with pytest.raises(InvalidInput, match="version"):
        PracticalBitmap.load(bad)

    bad.write_bytes(bytes(raw[:-1]))
    with pytest.raises(InvalidInput, match="length"):
        PracticalBitmap.load(bad)

    bad.write_bytes(raw[:10])
    with pytest.raises(InvalidInput, match="truncated"):
        PracticalBitmap.load(bad)

    flipped = bytearray(raw)
    flipped[16] |= 1  # set bit for n = 0
    bad.write_bytes(bytes(flipped))
    with pytest.raises(InvalidInput, match="bit 0"):
        PracticalBitmap.load(bad)


def _check_packed_against_flags(limit, directory):
    """A bitmap loaded from disk (bits only, no bool array) against numpy
    formulas on the flags of the bitmap it was saved from: counts,
    membership, Goldbach pairs and triples; and save -> load -> save keeps
    the bytes."""
    built = sieve_practicals(limit)
    path, again = directory / f"{limit}.bits", directory / f"{limit}-again.bits"
    built.save(path)
    loaded = PracticalBitmap.load(path)
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()
    flags = built.flags
    xs = range(1, limit + 1)
    if limit > 64:
        xs = sorted({1, limit, *random.Random(limit).sample(xs, min(limit, 200))})
    for x in xs:
        assert loaded.count(x) == int(np.count_nonzero(flags[: x + 1])), (limit, x)
        assert (x in loaded) == bool(flags[x]), (limit, x)
        if x % 2 == 0:
            p = np.arange(1, x // 2 + 1)
            p1 = int(p[flags[p] & flags[x - p]][0])
            assert goldbach_pair(x, loaded) == (p1, x - p1), (limit, x)
    for t in range(1, limit - 1) if limit <= 64 else (limit - 2, limit // 3):
        m = np.arange(3, t + 1)
        expected = m[flags[m - 2] & flags[m] & flags[m + 2]].tolist()
        assert practical_triples(t, loaded) == expected, (limit, t)


def test_packed_bitmap_matches_flags_at_every_small_limit(tmp_path):
    for limit in range(1, 65):  # every byte phase; triples below limit 5
        _check_packed_against_flags(limit, tmp_path)


@settings(max_examples=20, deadline=None)
@given(limit=st.integers(min_value=65, max_value=2 * 10**5))
def test_packed_bitmap_matches_flags(limit, tmp_path_factory):
    _check_packed_against_flags(limit, tmp_path_factory.mktemp("bits"))
