"""Quadratic polynomials and practical numbers.

For q(n) = a n^2 + b n + c (a > 0) and a prime p, m_q(p) is the supremum
of the k for which q has a root modulo p^k; it is infinite exactly when q
has a p-adic integer root.  The classifier walks primes in order, collects
the finite exponents, stops at the first infinite prime p_r, and the
number p_1^m1 ... p_{r-1}^m{r-1} p_r is practical iff q represents
infinitely many practical numbers.  Each answer walks once: the witness
takes its extra primes t from the same stream, past p_r.

The walk has no cap of its own, because p_r exists: for p prime to 2a (and
to disc != 0) the roots mod p are simple and lift, so m_q(p) is infinite if
disc is a square, 0 included, or (disc/p) = 1, which a non-square disc meets
infinitely often, first at O(log^2 |disc|) under GRH (Bach, Math. Comp. 55,
1990).  prime_stream charges each prime to the work limit in force instead.
The walk decides each p prime to 2a*disc (of the content-free part) by that
one symbol.  Only p = 2 and the few odd p dividing a*disc, or every p when
disc = 0, take the class split below.  mq runs the split at every p, so
its answer keeps its witness.

If that number fails Stewart's test at P, every practical value v = q(n)
divides its practical prefix A, so a finite stream stops past A:
  - each p < P has v_p(v) <= m_q(p), so v's part below P divides A;
  - v's least prime factor Q >= P, if any, would need Q <= sigma(A) + 1 < P;
  - so v has no prime factor >= P, and v divides A.

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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, product

from .arith import Factorization, _is_prime, _jacobi, crt_solve, prime_stream, valuation
from .errors import BudgetExceeded, FalsificationSignal, InvalidInput
from .practical import (
    DEFAULT_SCAN_BOUND,
    Evidence,
    PracticalityVerdict,
    certify_product,
    is_practical,  # noqa: F401  (unused here; bench/test_bench.py wraps it by this name)
    is_practical_quick,
    practical_from_factorization,
)

INFINITELY_MANY = "infinitely_many"
FINITELY_MANY = "finitely_many"

# Caps on the witness construction.  Running out of rounds raises
# BudgetExceeded, a failure rather than an outcome.  They are read at call
# time, so a test can lower one.
_ROOT_CAP = 8            # smallest roots kept per prime power dividing D
_WITNESS_ROUNDS = 60     # escalation rounds of quad_constructive_witness
_COMBO_CAP = 128         # root combinations tried per round


@dataclass(frozen=True)
class QuadraticPoly:
    a: int
    b: int
    c: int

    def __post_init__(self):
        for coeff in (self.a, self.b, self.c):
            if not isinstance(coeff, int):
                raise InvalidInput(f"coefficients must be integers, got {coeff!r}")
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
    verdict is the multiplier-lemma certificate modulus * multiplier, and
    its base_evidence is the structure-test verdict on modulus."""

    n: int
    value: int
    verdict: Evidence
    modulus: int                # practical divisor of value, built by CRT
    multiplier: int             # value // modulus, <= sigma(modulus) + 1
    k: int
    t_primes: tuple[int, ...]


def mq(q: QuadraticPoly, p: int) -> MqResult:
    """m_q(p) with its justifying witness, for a prime p."""
    if not _is_prime(p):
        raise InvalidInput(f"p must be prime, got {p}")
    return _mq(q, p)


def _mq(q: QuadraticPoly, p: int) -> MqResult:
    """mq for a p already known to be prime.

    Content splits off exactly: m_q(p) = v_p(gcd(a,b,c)) + m for the
    primitive part's m, and infinity is unaffected, so the lifting and the
    witness are the primitive part's.
    """
    g = q.content
    v = valuation(g, p) if g > 1 else 0
    m, fields = _mq_primitive(q.a // g, q.b // g, q.c // g, p)
    if m is None:
        return MqResult(p, None, v, InfiniteWitness(*fields))
    return MqResult(p, v + m, v, FiniteWitness(*fields))


def _mq_primitive(a: int, b: int, c: int, p: int) -> tuple[int | None, tuple]:
    """m for the primitive q = a n^2 + b n + c at a prime p, with the fields
    of its witness in order: (None, InfiniteWitness fields) when m is
    infinite, else (m, FiniteWitness fields)."""
    disc = b * b - 4 * a * c
    if disc != 0:
        bound = valuation(disc, p) + valuation(4 * a, p) + 2
    else:
        v_lead = valuation(2 * a, p)
        v_lin = valuation(b, p) if b else None
        if v_lin is None or v_lead <= v_lin:
            # -b/2a is a p-adic integer; approximate it to a comfortable level
            prec = v_lead + 4
            mod = p**prec
            scale = p**v_lead
            r = (-(b // scale) * pow(2 * a // scale, -1, mod // scale)) % (mod // scale)
            fv = (a * r + b) * r + c
            level = valuation(fv, p) if fv else prec
            return None, ("double_root", r, level, None, None, v_lead, v_lin)
        bound = 2 * v_lin + valuation(4 * a, p) + 2
    # Two roots of a class mod p are simple and lift to p-adic roots, so a
    # finite m_q splits along one chain of classes; the deepest class's rho
    # is the least root mod p^m.
    m, root = 0, None
    for rho, _, level in _class_split(a, b, c, p, bound):
        if not level:
            continue
        fv = (a * rho + b) * rho + c
        dv = 2 * a * rho + b
        if fv == 0 or (dv and valuation(fv, p) >= 2 * valuation(dv, p) + 1):
            top, lvl = p, 1  # the least lvl >= 1 with rho < p^lvl
            while top <= rho:
                top, lvl = top * p, lvl + 1
            return None, ("hensel", rho, lvl,
                          valuation(fv, p) if fv else None, valuation(dv, p) if dv else None)
        if level == bound:  # mathematically unreachable; see module docstring
            raise FalsificationSignal(
                f"root lifting for {QuadraticPoly(a, b, c)} mod {p} ran past its termination bound"
            )
        if level > m:
            m, root = level, rho
    return m, (root, m + 1)


def _classify(q: QuadraticPoly, primes) -> QuadClassification:
    """classify_quadratic on the caller's stream of 2, 3, 5, ...: m_q up to
    p_r, the least prime with infinite m_q (it exists: module docstring),
    leaving the stream just past p_r.  Each prime costs a unit of work.

    m_q(p) is v_p(g) plus the primitive part's m, as in _mq.  A p prime to
    2a*disc is odd with simple roots mod p, so there m is infinite if
    (disc/p) = 1 and 0 otherwise; every other p takes the class split.
    """
    g = q.content
    a, b, c = q.a // g, q.b // g, q.c // g
    disc = b * b - 4 * a * c
    two_a_disc = 2 * a * disc
    exponents: list[int] = []
    factors: list[tuple[int, int]] = []
    for p in primes:  # prime_stream proves each prime and never runs out
        if two_a_disc % p:
            m = None if _jacobi(disc, p) == 1 else 0
        else:
            m = _mq_primitive(a, b, c, p)[0]
        if m is None:
            break
        m += valuation(g, p) if g % p == 0 else 0
        exponents.append(m)
        if m:
            factors.append((p, m))
    verdict = practical_from_factorization(Factorization((*factors, (p, 1))))
    case = INFINITELY_MANY if verdict.practical else FINITELY_MANY
    return QuadClassification(
        poly=q,
        case=case,
        r=len(exponents) + 1,
        p_r=p,
        exponents=tuple(exponents),
        witness_n=verdict.n,
        verdict_n=verdict,
    )


def classify_quadratic(q: QuadraticPoly) -> QuadClassification:
    """Infinitely many practical values of q, or finitely many, decided by
    the practicality of p_1^m1 ... p_{r-1}^m{r-1} p_r."""
    return _classify(q, prime_stream())


def quad_practical_stream(
    q: QuadraticPoly, count: int, n_limit: int = DEFAULT_SCAN_BOUND
) -> list[int]:
    """The `count` smallest practical values among q(1), q(2), ...

    Scans until the values are provably the smallest: past the vertex and
    beyond the count-th hit, or beyond A for a finite q (module docstring).
    A shortfall within n_limit returns the hits found when the
    classification is finite, and raises BudgetExceeded when it is infinite.
    """
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
    cls = classify_quadratic(q)
    values: list[int] = []  # the count smallest distinct hits so far, ascending
    turn = max(1, (-q.b) // (2 * q.a) + 1)  # q strictly increasing from here
    top = cls.verdict_n.prefix if cls.case == FINITELY_MANY else None
    for n in range(1, n_limit + 1):
        v = q(n)
        if v >= 1 and is_practical_quick(v):
            i = bisect_left(values, v)
            if i < count and values[i:i + 1] != [v]:
                values.insert(i, v)
                del values[count:]
                top = values[-1] if len(values) == count else top
        if top is not None and n >= turn and v > top:
            break
    if len(values) < count and cls.case == INFINITELY_MANY:
        raise BudgetExceeded(
            f"only {len(values)} practical values of {q} within n <= {n_limit}: "
            "raise --scan-bound (n_limit)",
            knob="--scan-bound", limit=n_limit, used=n_limit,
        )
    return values


def _sqrt_mod_prime(a: int, p: int) -> int:
    """Square root mod odd prime p; a must be a quadratic residue prime to p."""
    a %= p
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


def _roots_mod_prime(a: int, b: int, c: int, p: int) -> list[int]:
    """All roots of a n^2 + b n + c mod prime p, ascending.

    At an odd p they come from the linear formula when p divides a, else
    from the quadratic formula with a Tonelli-Shanks square root.  That
    formula divides by 2a, which is never invertible mod 2, so at p = 2
    alone both residues are tried.
    """
    a, b, c = a % p, b % p, c % p
    if p == 2:
        return [n for n in (0, 1) if ((a * n + b) * n + c) % 2 == 0]
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


def _roots_mod_prime_power(q: QuadraticPoly, p: int, k: int) -> list[int] | None:
    """The _ROOT_CAP smallest roots of q mod p^k, ascending; [] if none.

    The roots are the classes of `_class_split` that reach level k, however
    many roots each holds.  Returns None when the congruence is vacuous: the
    first (root) class already sits at level k, so the content alone covers
    p^k and divisibility holds for every n.
    """
    classes = _class_split(q.a, q.b, q.c, p, k)
    if next(classes)[2] == k:
        return None
    top = p**k
    return sorted(
        n
        for rho, step, level in classes
        if level == k
        for n in islice(range(rho, top, step), _ROOT_CAP)
    )[:_ROOT_CAP]


def _class_split(a: int, b: int, c: int, p: int, k: int):
    """Breadth-first split of the roots of q = a n^2 + b n + c modulo p^k
    into residue classes.

    Yields (rho, step, level) for each class n = rho (mod step), 0 <= rho <
    step, once its content is stripped: p^level divides q(n) on the whole
    class and g(y) = q(rho + step y) / p^level has content prime to p, or
    level = k.  A class below level k splits on the roots r of g mod p:
    g(r + p y) = a p^2 y^2 + (2 a r + b) p y + g(r) has every coefficient
    divisible by p, so each child's level is higher and the split ends.  The
    first class yielded is the root class (0, 1, min(v_p(content), k)).
    """
    todo = [(a, b, c, 0, 1, 0)]
    for a, b, c, rho, step, level in todo:  # the loop reaches the appended classes
        while level < k and a % p == 0 and b % p == 0 and c % p == 0:
            a, b, c, level = a // p, b // p, c // p, level + 1
        yield rho, step, level
        if level == k:
            continue
        for r in _roots_mod_prime(a, b, c, p):
            todo.append((a * p * p, (2 * a * r + b) * p, (a * r + b) * r + c,
                         rho + r * step, step * p, level))


def quad_constructive_witness(q: QuadraticPoly, threshold: int) -> QuadWitness:
    """A practical value q(n) >= threshold, built rather than scanned.

    Assembles a divisor D from the finite prime powers, p_r^k with
    p_r^k > threshold, and (when needed) the next primes with roots; a CRT
    solution n makes q(n) divisible by D, and q(n) is certified practical
    once q(n)/D <= sigma(D) + 1.  Root choices steer where n lands inside
    [1, D], so up to _COMBO_CAP root combinations are tried per round,
    keeping the multiplier as small as possible; escalation then alternates
    between raising k and adding root primes t, which monotonically raises
    sigma(D)/D.
    """
    if threshold < 1:
        raise InvalidInput(f"threshold must be >= 1, got {threshold}")
    primes = prime_stream()
    cls = _classify(q, primes)
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

    t_list: list[int] = []
    for round_no in range(_WITNESS_ROUNDS):
        factors = sorted(prefix + [(p_r, k)] + [(t, 1) for t in t_list])
        mod_verdict = practical_from_factorization(Factorization(tuple(factors)))
        divisor = mod_verdict.n
        options: list[list[tuple[int, int]]] = []
        for p, e in factors:
            roots = _roots_mod_prime_power(q, p, e)
            if roots is None:
                continue  # content alone covers p^e
            if not roots:
                raise FalsificationSignal(
                    f"missing root for a divisor of {q} despite its m_q value"
                )
            options.append([(r, p**e) for r in roots])
        # each root list is non-empty, so product() yields a combination
        best: tuple[int, int, int] | None = None
        for combo in islice(product(*options), _COMBO_CAP):
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
        multiplier, n, value = best
        if mod_verdict.practical and multiplier <= mod_verdict.sigma + 1:
            return QuadWitness(
                n=n,
                value=value,
                verdict=certify_product(mod_verdict, multiplier),
                modulus=divisor,
                multiplier=multiplier,
                k=k,
                t_primes=tuple(t_list),
            )
        if round_no % 2 == 0:
            k += 1
        else:
            t_list.append(next(t for t in primes if _roots_mod_prime(q.a, q.b, q.c, t)))
    raise BudgetExceeded(
        f"witness construction for {q} did not converge in {_WITNESS_ROUNDS} rounds"
        " (_WITNESS_ROUNDS)",
        knob="quadratics._WITNESS_ROUNDS", limit=_WITNESS_ROUNDS, used=_WITNESS_ROUNDS,
    )
