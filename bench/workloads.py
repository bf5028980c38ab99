"""The three workloads: seeded operation lists, how to run each operation,
and how to check its output.

An operation is plain data (kind, args, ref), so one seed always gives the
same list; ref holds what the benchmark knows independently of the program,
such as the factorization an input was built from.  A round runs the whole
list once.  Each seed moves inputs only inside narrow bands, so every seed
asks the program for about the same amount of work.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles as orc
from oracles import CheckFailed, require


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    ref: tuple | None = None


# Quadratics with infinitely many practical values, grouped by the cost of
# quad_constructive_witness at thresholds near 10^30 (which does not depend
# on the threshold inside that band): about 0.4 s, 0.08 s and 0.02 s.  A
# seed picks inside a group, so every seed asks for the same work.
QUAD_POOL_SLOW = ((1, -1, 2), (1, 0, 7), (1, 1, 2))
QUAD_POOL_MID = ((1, -2, 7), (1, 0, 6), (1, 2, 7))
QUAD_POOL_FAST = ((1, -2, 5), (1, 0, 4), (1, 2, 5), (2, 0, 2))

SMALL_PRIMES = orc.primes_below(2000)[1:]  # odd primes


def _factored(rng, two_exp, odd_count, big=None):
    """(n, factors) for 2^two_exp times odd_count distinct small odd primes
    (exponents 1-2) and optionally one prime drawn from the range big."""
    factors = {2: two_exp}
    for p in rng.sample(SMALL_PRIMES, odd_count):
        factors[p] = rng.randint(1, 2)
    if big is not None:
        factors[orc.random_prime(rng, *big)] = 1
    items = tuple(sorted(factors.items()))
    return math.prod(p**e for p, e in items), items


def _n_one_mod_8(rng, bits):
    n = rng.getrandbits(bits) | (1 << (bits - 1))
    return n - n % 8 + 1


# ---------------------------------------------------------------------------
# operation lists


def certify_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(16):
        n = rng.randrange(2, 10**6) * rng.choice((1, 2))
        ops.append(Op("is_practical", (n,)))
    for _ in range(16):
        n, factors = _factored(rng, rng.randint(1, 12), rng.randint(1, 3),
                               (10**4, 10**6) if rng.random() < 0.5 else None)
        ops.append(Op("is_practical", (n,), factors))
    for _ in range(16):  # two primes above the trial bound: Pollard-Brent
        a = rng.randint(20, 40)
        p, q = sorted(orc.random_prime(rng, 10**6, 4 * 10**6) for _ in range(2))
        if p == q:
            q = orc.random_prime(rng, q + 1, q + 10**6)
        factors = ((2, a), (p, 1), (q, 1))
        ops.append(Op("is_practical", (2**a * p * q,), factors))
    for _ in range(8):
        ops.append(Op("classify_ap", (rng.randint(1, 2000), rng.randint(1, 2000))))
    for _ in range(16):  # a = d * (primes up to sigma(d) + 1) * k: one, none or many
        d = rng.choice((1, 2, 4, 6))
        bound = orc.sigma(orc.factor_td(d)) + 1
        a = d * math.prod(orc.primes_below(bound + 1)) * rng.randint(1, 9)
        ops.append(Op("classify_ap", (a, d * rng.randint(1, 60))))
    for _ in range(6):
        ops.append(Op("ap_witness", (2 * rng.randint(1, 499) + 1, rng.randint(1, 999),
                                     10**12 + rng.randrange(10**10))))
    for _ in range(48):
        ops.append(Op("mq", (rng.randint(1, 10), rng.randint(-10, 10), rng.randint(-10, 10),
                             rng.choice((2, 3, 5, 7, 11, 13)))))
    b0, c0 = rng.randint(-10, 7), rng.randint(-10, 8)
    for a in (1, 2, 3):
        for b in range(b0, b0 + 4):
            for c in range(c0, c0 + 3):
                ops.append(Op("classify_quadratic", (a, b, c)))
    polys = [rng.choice(QUAD_POOL_SLOW), rng.choice(QUAD_POOL_MID), *rng.sample(QUAD_POOL_FAST, 2)]
    for poly in polys:
        ops.append(Op("quad_witness", (*poly, 10**30 + rng.randrange(10**27))))
    for _ in range(12):
        ops.append(Op("decompose", (_n_one_mod_8(rng, 3322),)))  # 1000 digits
    for j in (0, 2, 3, 4, 5, 6, 7):
        ops.append(Op("family", (j, 100 + rng.randrange(10), 2)))
    ops.append(Op("palindromic", (19,)))
    return ops


def enumerate_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [Op("count", (base + rng.randrange(base // 100),))
           for base in (10**6, 125 * 10**4, 15 * 10**5)]
    top = 2 * 10**6 + rng.randrange(2 * 10**4)
    ops.append(Op("density", (top // 100, top // 10, top)))
    limit = 4 * 10**6 + rng.randrange(4 * 10**4)
    ops.append(Op("sieve", (limit,)))
    ops.append(Op("triples", (limit - 2,)))
    ops.append(Op("goldbach", tuple(2 * rng.randrange(2, limit // 2) for _ in range(200))))
    ops.append(Op("save", ()))
    ops.append(Op("load", ()))
    return ops


def cli_ops(seed: int) -> list[Op]:
    """One process per operation, README-scale inputs.  The sieve command is
    the first to need a bitmap, so it writes the cache; count, goldbach and
    triples stay under its limit and read it."""
    rng = random.Random(seed)
    limit = 10**6 + rng.randrange(10**4)
    n_test, f_test = _factored(rng, rng.randint(3, 10), 2, (10**3, 10**5))
    x = 9 * 10**5 + rng.randrange(10**5)
    a_odd, b_any = 2 * rng.randint(1, 25) + 1, rng.randint(1, 50)
    poly = rng.choice(QUAD_POOL_FAST + QUAD_POOL_MID)
    argvs = [
        ("test", str(n_test)),
        ("oracle", str(rng.randrange(200, 3000))),
        ("sieve", "--limit", str(limit)),
        ("count", str(x), "--report", f"{10**4 + rng.randrange(100)},{10**5 + rng.randrange(1000)},{x}"),
        ("ap", "classify", str(rng.randint(1, 100)), str(rng.randint(1, 100))),
        ("ap", "stream", str(a_odd), str(b_any), "--count", "3"),
        ("ap", "witness", str(a_odd), str(b_any), "--min", str(rng.randrange(100, 10**6))),
        ("poly", "witness", f"{rng.randint(0, 5)},{rng.randint(0, 5)},{rng.randint(1, 3)}"),
        ("quad", "mq", str(rng.randint(1, 5)), str(rng.randint(-5, 5)), str(rng.randint(-5, 5)),
         str(rng.choice((2, 3, 5, 7)))),
        ("quad", "classify", str(rng.randint(1, 3)), str(rng.randint(-5, 5)), str(rng.randint(-5, 5))),
        ("quad", "stream", *map(str, poly), "--count", "3"),
        ("quad", "witness", *map(str, poly), "--min", str(rng.randrange(100, 10**6))),
        ("decompose", str(_n_one_mod_8(rng, 30)), "--verify"),
        ("family", str(rng.choice((0, 2, 3, 4, 5, 6, 7))), "--count", "3", "--verify"),
        ("goldbach", str(2 * rng.randrange(5 * 10**4, limit // 2))),
        ("triples", "--limit", str(10**4 + rng.randrange(10**4))),
        ("palindromic", "--count", str(rng.randint(10, 12))),
    ]
    return [Op("cli", argv, f_test if argv[0] == "test" else None) for argv in argvs]


# ---------------------------------------------------------------------------
# running one operation


class Round:
    """Per-round state: the package, a working directory and what earlier
    operations of the round produced (the enumerate bitmap)."""

    def __init__(self, pk, work: Path):
        self.pk = pk
        self.work = work
        self.bitmap = None

    @property
    def cache_dir(self) -> Path:
        return self.work / "cache"

    @property
    def roundtrip(self) -> Path:
        return self.work / "roundtrip.bits"

    def fresh(self) -> "Round":
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        self.bitmap = None
        return self


def run_library(op: Op, rd: Round):
    pk = rd.pk
    a = op.args
    k = op.kind
    if k == "is_practical":
        verdict = pk.is_practical(a[0])
        return verdict, verdict.replay()
    if k == "classify_ap":
        return pk.classify_ap(*a)
    if k == "ap_witness":
        return pk.ap_constructive_witness(*a)
    if k == "mq":
        return pk.mq(pk.QuadraticPoly(*a[:3]), a[3])
    if k == "classify_quadratic":
        return pk.classify_quadratic(pk.QuadraticPoly(*a))
    if k == "quad_witness":
        return pk.quad_constructive_witness(pk.QuadraticPoly(*a[:3]), a[3])
    if k == "decompose":
        return pk.decompose_square_plus_practical(a[0])
    if k == "family":
        members = pk.family_stream(a[0], a[1])
        return members, [pk.verify_not_representable(m) for m in members[-a[2]:]]
    if k == "palindromic":
        return pk.palindromic_practicals(a[0])
    if k == "count":
        return pk.count_practicals(a[0])
    if k == "density":
        return pk.density_report(list(a))
    if k == "sieve":
        rd.bitmap = pk.sieve_practicals(a[0])
        return rd.bitmap
    if k == "triples":
        return pk.practical_triples(a[0], rd.bitmap)
    if k == "goldbach":
        return [pk.goldbach_pair(n, rd.bitmap) for n in a]
    if k == "save":
        return rd.bitmap.save(rd.roundtrip)
    if k == "load":
        return pk.PracticalBitmap.load(rd.roundtrip)
    raise ValueError(f"unknown operation {k}")


def cli_env(src: Path, cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PRACTICUM_CACHE_DIR"] = str(cache_dir)
    return env


def run_cli_process(op: Op, env: dict):
    proc = subprocess.run([sys.executable, "-m", "practicum.cli", *op.args],
                          env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(op: Op, rd: Round):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = rd.pk.cli.main(list(op.args))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


# ---------------------------------------------------------------------------
# checking one operation


class Memo:
    """Reference results shared by the checks of one round."""

    def __init__(self):
        self._counts: dict[int, int] = {}
        self._flags: dict[int, np.ndarray] = {}

    def count(self, x: int) -> int:
        if x not in self._counts:
            self._counts[x] = orc.tree_count(x)
        return self._counts[x]

    def flags(self, limit: int) -> np.ndarray:
        if limit not in self._flags:
            self._flags[limit] = orc.tree_flags(limit)
        return self._flags[limit]


def _witness_tuple(w):
    return None if w is None else (w.index, w.prime, w.bound)


def check_library(op: Op, result, memo: Memo, rd: Round) -> None:
    a = op.args
    k = op.kind
    if k == "is_practical":
        verdict, replayed = result
        require(replayed, f"verdict for {a[0]} does not replay")
        require(verdict.n == a[0], "verdict for the wrong n")
        orc.check_verdict(a[0], verdict.practical, verdict.chain,
                          _witness_tuple(verdict.witness), op.ref and list(op.ref))
    elif k == "classify_ap":
        orc.check_ap_classification(*a, result.case, result.d, result.witness_prime,
                                    result.unique_value)
    elif k == "ap_witness":
        w = result
        orc.check_ap_witness(*a, w.n, w.value, w.prime, w.k, w.d)
    elif k == "mq":
        require(result.p == a[3], "m_q for the wrong prime")
        orc.check_mq(*a, result.exponent)
    elif k == "classify_quadratic":
        c = result
        orc.check_quad_classification(*a, c.case, c.r, c.p_r, c.exponents, c.witness_n,
                                      c.verdict_n.practical)
    elif k == "quad_witness":
        orc.check_quad_witness(*a, result.n, result.value, result.modulus)
        require(result.verdict.practical, "quad witness verdict says not practical")
    elif k == "decompose":
        orc.check_decomposition(a[0], result.x, result.practical_part)
    elif k == "family":
        members, reports = result
        require(len(members) == a[1] and members == sorted(set(members)), "family stream shape")
        require(all(m % 8 == a[0] for m in members), f"family {a[0]}: member in another class")
        for m, report in zip(members[-a[2]:], reports):
            require(report.m == m and report.not_representable, f"{m} reported representable")
            orc.check_not_representable(m)
    elif k == "palindromic":
        _check_palindromic_chain(result, a[0])
    elif k == "count":
        require(result == memo.count(a[0]), f"P({a[0]}) = {result}, tree gives {memo.count(a[0])}")
    elif k == "density":
        require(len(result) == len(a), "density report length")
        for x, (rx, c, ratio) in zip(a, result):
            require(rx == x and c == memo.count(x), f"density row for {x}: count {c}")
            require(math.isclose(ratio, c * math.log(x) / x, rel_tol=1e-12), f"ratio at {x}")
    elif k == "sieve":
        require(result.limit == a[0], "bitmap limit")
        orc.check_flags(result.flags, memo.flags(a[0]))
    elif k == "triples":
        expected = orc.triples_from_flags(memo.flags(a[0] + 2), a[0])
        require(result == expected, "practical triples differ from the tree bitmap")
    elif k == "goldbach":
        flags = rd.bitmap.flags
        for n, (p1, p2) in zip(a, result):
            orc.check_goldbach(n, p1, p2)
            smaller = np.nonzero(flags[1:p1])[0] + 1
            require(not any(flags[n - s] for s in smaller), f"goldbach {n}: smaller pair exists")
    elif k == "save":
        orc.check_flags(orc.read_bitmap_file(rd.roundtrip.read_bytes()), rd.bitmap.flags)
    elif k == "load":
        require(np.array_equal(result.flags, rd.bitmap.flags), "loaded bitmap differs from saved")
    else:
        raise ValueError(f"unknown operation {k}")


def _check_palindromic_chain(entries, count: int) -> None:
    """Values are runs of 8s; each certificate multiplies the previous value
    by at most 2 * base - 1 (sigma(m) >= 2m - 1 for practical m), and the
    chain starts at 88, practical by the trial-division test."""
    require(len(entries) == count, "palindromic entry count")
    values = [e.value for e in entries]
    orc.check_palindromic(values)
    require(orc.is_practical_td(values[0]), "88 is not practical")
    for prev, entry in zip(values, entries[1:]):
        cert = entry.evidence
        require(cert.base == prev and cert.value == entry.value, "certificate links the wrong values")
        require(1 <= cert.multiplier <= 2 * cert.base - 1, "multiplier above the doubling bound")
        require(cert.base * cert.multiplier == entry.value, "certificate product")


def _ints(argv, *positions):
    return [int(argv[i]) for i in positions]


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_cli(op: Op, result, memo: Memo, rd: Round) -> None:
    """Exit code 0, stdout is JSON, and the JSON answers the command."""
    code, out, err = result
    require(code == 0, f"{' '.join(op.args)}: exit {code}: {err.decode()[-200:]}")
    try:
        d = json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"{' '.join(op.args)}: stdout is not JSON ({exc})") from exc
    argv = op.args
    cmd = argv[0] if argv[0] not in ("ap", "quad", "poly") else f"{argv[0]} {argv[1]}"
    if cmd == "test":
        w = d.get("witness")
        orc.check_verdict(int(argv[1]), d["practical"], d.get("chain"),
                          w and (w["index"], w["prime"], w["bound"]), list(op.ref))
    elif cmd == "oracle":
        require(d["practical"] == orc.is_practical_td(int(argv[1])), "oracle verdict")
    elif cmd == "sieve":
        limit = int(_flag(argv, "--limit"))
        require(d["limit"] == limit and d["count"] == memo.count(limit), f"sieve count {d['count']}")
        flags = orc.read_bitmap_file(Path(d["path"]).read_bytes())
        orc.check_flags(flags, memo.flags(limit))
    elif cmd == "count":
        x = int(argv[1])
        require(d["count"] == memo.count(x), f"count({x}) = {d['count']}")
        for row in d["rows"]:
            require(row["count"] == memo.count(row["x"]), f"report row {row['x']}")
    elif cmd == "ap classify":
        a, b = _ints(argv, 2, 3)
        orc.check_ap_classification(a, b, d["case"], d["d"], d.get("witness_prime"),
                                    d.get("unique_value"))
    elif cmd == "ap stream":
        a, b = _ints(argv, 2, 3)
        orc.check_ap_stream(a, b, int(_flag(argv, "--count")), d["values"])
    elif cmd == "ap witness":
        a, b = _ints(argv, 2, 3)
        orc.check_ap_witness(a, b, int(_flag(argv, "--min")), d["n"], d["value"], d["prime"],
                             d["k"], d["d"])
    elif cmd == "poly witness":
        orc.check_poly_witness([int(c) for c in argv[2].split(",")], d["n"], d["value"])
    elif cmd == "quad mq":
        a, b, c, p = _ints(argv, 2, 3, 4, 5)
        orc.check_mq(a, b, c, p, None if d["m"] == "infinite" else d["m"])
    elif cmd == "quad classify":
        a, b, c = _ints(argv, 2, 3, 4)
        orc.check_quad_classification(a, b, c, d["case"], d["r"], d["p_r"], d["exponents"],
                                      d["witness_n"], d["verdict_n"]["practical"])
    elif cmd == "quad stream":
        a, b, c = _ints(argv, 2, 3, 4)
        orc.check_quad_stream(a, b, c, int(_flag(argv, "--count")), d["values"])
    elif cmd == "quad witness":
        a, b, c = _ints(argv, 2, 3, 4)
        orc.check_quad_witness(a, b, c, int(_flag(argv, "--min")), d["n"], d["value"],
                               d["modulus"])
    elif cmd == "decompose":
        orc.check_decomposition(int(argv[1]), d["x"], d["practical_part"])
        require(d["verified"] is True, "decompose --verify did not report verified")
    elif cmd == "family":
        j = int(argv[1])
        require(len(d["members"]) == int(_flag(argv, "--count")), "family member count")
        for m in d["members"]:
            require(m % 8 == j, f"family {j}: member {m} in another class")
            orc.check_not_representable(m)
        require(d["verified"] is True, "family --verify did not report verified")
    elif cmd == "goldbach":
        orc.check_goldbach(int(argv[1]), *d["pair"])
    elif cmd == "triples":
        limit = int(_flag(argv, "--limit"))
        expected = orc.triples_from_flags(memo.flags(limit + 2), limit)
        require(d["triples"] == expected, "cli triples differ from the tree bitmap")
    elif cmd == "palindromic":
        count = int(_flag(argv, "--count"))
        require(len(d["values"]) == count, "palindromic value count")
        orc.check_palindromic(d["values"])
    else:
        raise ValueError(f"unknown command {argv}")
