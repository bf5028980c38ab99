"""Quadratic polynomials and practical numbers.

For q(n) = a n^2 + b n + c (a > 0) and a prime p, m_q(p) is the supremum
of the k for which q has a root modulo p^k; it is infinite exactly when q
has a p-adic integer root.  The classifier walks primes in order, collects
the finite exponents, stops at the first infinite prime p_r, and the
number p_1^m1 ... p_{r-1}^m{r-1} p_r is practical iff q represents
infinitely many practical numbers.

m_q is computed by splitting the roots into residue classes n = rho (mod
p^d), breadth first (`_class_split`): a class carries the largest power
p^level dividing q on all of it, and splits on the roots mod p of its
content-free part, so it takes one step per class rather than one per
root.  The search stops at the first class whose least element rho meets
the gap v_p(q(rho)) >= 2 v_p(q'(rho)) + 1 (rho then refines to a p-adic
root); if instead the classes run out, m is the deepest level reached.
After factoring out the content g, the process provably resolves by level
v_p(disc) + v_p(4a) + 2, with the degenerate disc = 0 case decided
directly: the double root -b/2a is a p-adic integer iff v_p(2a) <= v_p(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product

from .arith import Factorization, _is_prime, _jacobi, crt_solve, prime_stream, valuation
from .errors import (
    ClassificationMismatch,
    FalsificationSignal,
    InvalidInput,
    IterationCap,
    ScanBudgetExceeded,
)
from .practical import (
    Evidence,
    PracticalityVerdict,
    certify_product,
    is_practical,  # noqa: F401  (unused here; bench/test_bench.py wraps it by this name)
    is_practical_quick,
    practical_from_factorization,
)

INFINITELY_MANY = "infinitely_many"
FINITELY_MANY = "finitely_many"

DEFAULT_QUAD_SCAN = 10**4
DEFAULT_PRIME_CAP = 100


@dataclass(frozen=True)
class QuadraticPoly:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a < 1:
            raise InvalidInput(f"leading coefficient must be positive, got {self.a}")

    def __call__(self, n: int) -> int:
        return (self.a * n + self.b) * n + self.c

    def derivative(self, n: int) -> int:
        return 2 * self.a * n + self.b

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self) -> int:
        return math.gcd(self.a, math.gcd(self.b, self.c))

    def primitive(self) -> "QuadraticPoly":
        g = self.content
        return QuadraticPoly(self.a // g, self.b // g, self.c // g) if g > 1 else self

    def __str__(self):
        return f"{self.a}n^2{self.b:+d}n{self.c:+d}"


@dataclass(frozen=True)
class FiniteWitness:
    """m_q(p) finite: root at the top level (for the content-free part),
    with the exhaustive lift search at empty_level coming back empty."""

    root: int | None  # None when even level 1 has no roots
    empty_level: int


@dataclass(frozen=True)
class InfiniteWitness:
    """m_q(p) infinite, via one of two routes on the content-free part:

    kind "hensel":      v_p(q(root)) >= 2 v_p(q'(root)) + 1 at `level`
                        (val_q None means q(root) == 0 exactly);
    kind "double_root": disc == 0 and the double root -b/2a is a p-adic
                        integer, i.e. val_lead = v_p(2a) <= v_p(b) = val_lin
                        (val_lin None means b == 0); root approximates it
                        modulo p^level.
    """

    kind: str
    root: int
    level: int
    val_q: int | None = None
    val_dq: int | None = None
    val_lead: int | None = None
    val_lin: int | None = None


@dataclass(frozen=True)
class MqResult:
    p: int
    exponent: int | None  # None encodes infinity
    content_val: int      # v_p(gcd(a, b, c)); exponent includes it when finite
    witness: FiniteWitness | InfiniteWitness

    @property
    def infinite(self) -> bool:
        return self.exponent is None


@dataclass(frozen=True)
class QuadClassification:
    poly: QuadraticPoly
    case: str
    r: int                      # 1-based index of the least infinite prime
    p_r: int
    exponents: tuple[int, ...]  # m_q at the first r-1 primes
    witness_n: int              # p_1^m1 ... p_{r-1}^m{r-1} * p_r
    verdict_n: PracticalityVerdict


@dataclass(frozen=True)
class QuadWitness:
    """A practical value q(n) >= threshold with its supporting arithmetic;
    verdict is the multiplier-lemma certificate modulus * multiplier."""

    n: int
    value: int
    verdict: Evidence
    modulus: int                # practical divisor of value, built by CRT
    modulus_verdict: PracticalityVerdict
    multiplier: int             # value // modulus, <= sigma(modulus) + 1
    k: int
    t_primes: tuple[int, ...]


def _mq_primitive(q: QuadraticPoly, p: int):
    """m_q(p) of primitive q: (exponent, FiniteWitness) or
    (None, InfiniteWitness)."""
    disc = q.discriminant
    if disc != 0:
        bound = valuation(disc, p) + valuation(4 * q.a, p) + 2
    else:
        v_lead = valuation(2 * q.a, p)
        v_lin = valuation(q.b, p) if q.b else None
        if v_lin is None or v_lead <= v_lin:
            # -b/2a is a p-adic integer; approximate it to a comfortable level
            prec = v_lead + 4
            mod = p**prec
            scale = p**v_lead
            r = (-(q.b // scale) * pow(2 * q.a // scale, -1, mod // scale)) % (mod // scale)
            fv = q(r)
            level = valuation(fv, p) if fv else prec
            return None, InfiniteWitness(
                kind="double_root",
                root=r,
                level=level,
                val_lead=v_lead,
                val_lin=v_lin,
            )
        bound = 2 * v_lin + valuation(4 * q.a, p) + 2
    # Two roots of a class mod p are simple and lift to p-adic roots, so a
    # finite m_q splits along one chain of classes; the deepest class's rho
    # is the least root mod p^m.
    m, root = 0, None
    for rho, _, level in _class_split(q, p, bound):
        if not level:
            continue
        fv = q(rho)
        dv = q.derivative(rho)
        if fv == 0 or (dv and valuation(fv, p) >= 2 * valuation(dv, p) + 1):
            top, lvl = p, 1  # the least lvl >= 1 with rho < p^lvl
            while top <= rho:
                top, lvl = top * p, lvl + 1
            return None, InfiniteWitness(
                kind="hensel",
                root=rho,
                level=lvl,
                val_q=valuation(fv, p) if fv else None,
                val_dq=valuation(dv, p) if dv else None,
            )
        if level == bound:  # mathematically unreachable; see module docstring
            raise FalsificationSignal(
                f"root lifting for {q} mod {p} ran past its termination bound"
            )
        if level > m:
            m, root = level, rho
    return m, FiniteWitness(root, m + 1)


def mq(q: QuadraticPoly, p: int) -> MqResult:
    """m_q(p) with its justifying witness.

    Content splits off exactly: m_q(p) = v_p(gcd(a,b,c)) + m for the
    primitive part's m, and infinity is unaffected.
    """
    if not _is_prime(p):
        raise InvalidInput(f"p must be prime, got {p}")
    g = q.content
    v = valuation(g, p) if g > 1 else 0
    exponent, witness = _mq_primitive(q.primitive(), p)
    if exponent is None:
        return MqResult(p=p, exponent=None, content_val=v, witness=witness)
    return MqResult(p=p, exponent=v + exponent, content_val=v, witness=witness)


def _mq_walk(q: QuadraticPoly, prime_cap: int = DEFAULT_PRIME_CAP) -> list[MqResult]:
    """m_q at 2, 3, 5, ... up to and including the least prime with infinite
    m_q.  Some prime always qualifies; running past prime_cap primes raises
    IterationCap and should be treated as a failure, not an outcome."""
    walk = []
    for p in islice(prime_stream(), prime_cap):
        walk.append(mq(q, p))
        if walk[-1].infinite:
            return walk
    raise IterationCap(
        f"no prime with infinite m_q among the first {prime_cap} primes for {q}"
    )


def least_infinite_prime(
    q: QuadraticPoly, prime_cap: int = DEFAULT_PRIME_CAP
) -> tuple[int, int, tuple[int, ...]]:
    """(r, p_r, m_q at the earlier primes) for the least p_r with infinite m_q."""
    walk = _mq_walk(q, prime_cap)
    return len(walk), walk[-1].p, tuple(res.exponent for res in walk[:-1])


def classify_quadratic(q: QuadraticPoly) -> QuadClassification:
    """Infinitely many practical values of q, or finitely many, decided by
    the practicality of p_1^m1 ... p_{r-1}^m{r-1} p_r."""
    walk = _mq_walk(q)
    p_r = walk[-1].p
    factors = [(res.p, res.exponent) for res in walk[:-1] if res.exponent]
    verdict = practical_from_factorization(Factorization((*factors, (p_r, 1))))
    case = INFINITELY_MANY if verdict.practical else FINITELY_MANY
    return QuadClassification(
        poly=q,
        case=case,
        r=len(walk),
        p_r=p_r,
        exponents=tuple(res.exponent for res in walk[:-1]),
        witness_n=verdict.n,
        verdict_n=verdict,
    )


def quad_practical_stream(
    q: QuadraticPoly, count: int, n_limit: int = DEFAULT_QUAD_SCAN
) -> list[int]:
    """The `count` smallest practical values among q(1), q(2), ...

    Scans until the values are provably the smallest (past the vertex and
    beyond the current count-th hit).  A shortfall within n_limit returns
    the hits found when the classification is finite, and raises
    ScanBudgetExceeded when it is infinite.
    """
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
    hits: set[int] = set()
    turn = max(1, (-q.b) // (2 * q.a) + 1)  # q strictly increasing from here
    kth = None
    for n in range(1, n_limit + 1):
        v = q(n)
        if v >= 1 and is_practical_quick(v):
            hits.add(v)
            kth = sorted(hits)[count - 1] if len(hits) >= count else None
        if kth is not None and n >= turn and v > kth:
            break
    values = sorted(hits)[:count]
    if len(values) < count and classify_quadratic(q).case == INFINITELY_MANY:
        raise ScanBudgetExceeded(
            f"only {len(values)} practical values of {q} within n <= {n_limit}"
        )
    return values


def _sqrt_mod_prime(a: int, p: int) -> int:
    """Square root mod odd prime p; a must be 0 or a quadratic residue."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _roots_mod_prime(q: QuadraticPoly, p: int) -> list[int]:
    """All roots of q mod prime p, ascending; exhaustive for small p,
    discriminant-based for large p."""
    if p <= 30:
        return [n for n in range(p) if q(n) % p == 0]
    a, b, c = q.a % p, q.b % p, q.c % p
    if a == 0:
        if b == 0:
            return list(range(p)) if c == 0 else []
        return [-c * pow(b, -1, p) % p]
    disc = (b * b - 4 * a * c) % p
    inv2a = pow(2 * a, -1, p)
    if disc == 0:
        return [-b * inv2a % p]
    if _jacobi(disc, p) == -1:
        return []
    s = _sqrt_mod_prime(disc, p)
    return sorted({(-b + s) * inv2a % p, (-b - s) * inv2a % p})


def _roots_mod_prime_power(
    q: QuadraticPoly, p: int, k: int, cap: int = 8
) -> list[int] | None:
    """The `cap` smallest roots of q mod p^k, ascending; [] if none.

    Returns None when the congruence is vacuous (the content alone covers
    p^k), in which case divisibility holds for every n.  The roots are
    the classes of `_class_split` that reach level k, however many roots
    each holds.
    """
    g = q.content
    if k <= (valuation(g, p) if g > 1 else 0):
        return None
    top = p**k
    return sorted(
        n
        for rho, step, level in _class_split(q, p, k)
        if level == k
        for n in islice(range(rho, top, step), cap)
    )[:cap]


def _class_split(q: QuadraticPoly, p: int, k: int):
    """Breadth-first split of the roots of q modulo p^k into residue classes.

    Yields (rho, step, level) for each class n = rho (mod step), 0 <= rho <
    step, once its content is stripped: p^level divides q(n) on the whole
    class and g(y) = q(rho + step y) / p^level has content prime to p, or
    level = k.  A class below level k splits on the roots r of g mod p:
    g(r + p y) = a p^2 y^2 + (2 a r + b) p y + g(r) has every coefficient
    divisible by p, so each child's level is higher and the split ends.  The
    first class yielded is the root class (0, 1, v_p(content)).
    """
    todo = [(q.a, q.b, q.c, 0, 1, 0)]
    for a, b, c, rho, step, level in todo:  # the loop reaches the appended classes
        while level < k and a % p == 0 and b % p == 0 and c % p == 0:
            a, b, c, level = a // p, b // p, c // p, level + 1
        yield rho, step, level
        if level == k:
            continue
        for r in _roots_mod_prime(QuadraticPoly(a, b, c) if level else q, p):
            todo.append((a * p * p, (2 * a * r + b) * p, (a * r + b) * r + c,
                         rho + r * step, step * p, level))


def _t_prime_candidates(q: QuadraticPoly, p_r: int, scan_cap: int):
    """Primes t > p_r with q solvable mod t."""
    for t in islice(prime_stream(), scan_cap):
        if t > p_r and _roots_mod_prime(q, t):
            yield t


def quad_constructive_witness(
    q: QuadraticPoly,
    threshold: int,
    max_rounds: int = 60,
    t_scan_cap: int = 20000,
    combo_cap: int = 128,
) -> QuadWitness:
    """A practical value q(n) >= threshold, built rather than scanned.

    Assembles a divisor D from the finite prime powers, p_r^k with
    p_r^k > threshold, and (when needed) extra primes with roots; a CRT
    solution n makes q(n) divisible by D, and q(n) is certified practical
    once q(n)/D <= sigma(D) + 1.  Root choices steer where n lands inside
    [1, D], so up to combo_cap root combinations are tried per round,
    keeping the multiplier as small as possible; escalation then alternates
    between raising k and adding root primes t, which monotonically raises
    sigma(D)/D.
    """
    if threshold < 1:
        raise InvalidInput(f"threshold must be >= 1, got {threshold}")
    cls = classify_quadratic(q)
    if cls.case != INFINITELY_MANY:
        raise InvalidInput(
            f"{q} is classified {cls.case}; no practical value construction"
        )
    # verdict_n is practical: its chain factors witness_n and ends in p_r^1
    prefix = [(p, e) for p, e, _ in cls.verdict_n.chain[:-1]]
    p_r = cls.p_r
    k = 1
    while p_r**k <= threshold:
        k += 1

    t_iter = _t_prime_candidates(q, p_r, t_scan_cap)
    t_list: list[int] = []
    for round_no in range(max_rounds):
        factors = sorted(prefix + [(p_r, k)] + [(t, 1) for t in t_list])
        mod_verdict = practical_from_factorization(Factorization(tuple(factors)))
        divisor = mod_verdict.n
        options: list[list[tuple[int, int]]] = []
        solvable = True
        for p, e in factors:
            roots = _roots_mod_prime_power(q, p, e)
            if roots is None:
                continue  # content alone covers p^e
            if not roots:
                solvable = False
                break
            options.append([(r, p**e) for r in roots])
        if not solvable:
            raise ClassificationMismatch(
                f"missing root for a divisor of {q} despite its m_q value"
            )
        best: tuple[int, int, int] | None = None
        for combo in islice(product(*options), combo_cap):
            n_star, period = crt_solve(combo)
            n = n_star if n_star >= 1 else period
            while q(n) <= 0:
                n += period
            value = q(n)
            multiplier, rem = divmod(value, divisor)
            if rem:
                raise FalsificationSignal(f"CRT solution lost divisibility for {q}")
            if best is None or multiplier < best[0]:
                best = (multiplier, n, value)
        if (
            best is not None
            and mod_verdict.practical
            and best[0] <= mod_verdict.sigma + 1
        ):
            multiplier, n, value = best
            return QuadWitness(
                n=n,
                value=value,
                verdict=certify_product(mod_verdict, multiplier),
                modulus=divisor,
                modulus_verdict=mod_verdict,
                multiplier=multiplier,
                k=k,
                t_primes=tuple(t_list),
            )
        if round_no % 2 == 0:
            k += 1
        else:
            nxt = next(t_iter, None)
            if nxt is None:
                k += 1
            else:
                t_list.append(nxt)
    raise IterationCap(
        f"witness construction for {q} did not converge in {max_rounds} rounds"
    )
