"""Practicality tests with checkable evidence.

A positive integer n is practical when every integer in [1, n] is a sum of
distinct divisors of n.  The structure theorem (Stewart) makes this
decidable from the factorization alone: writing n = p1^a1 ... pk^ak with
p1 < ... < pk, n is practical iff n = 1 or p1 = 2 and every pi satisfies
pi <= sigma(p1^a1 ... p_{i-1}^a_{i-1}) + 1.  One walk makes these comparisons:
over a full factorization for a verdict, whose positive chain or negative
prefix plus first failing comparison replays with plain arithmetic, and
over arith's lazy trial stage for the boolean test that scans run.

The subset-sum oracle implements the definition directly and exists to
check the structure test, never to replace it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

from .arith import Factorization, _prime_powers, _sigma_pp, factorize
from .errors import BudgetExceeded, InvalidInput, _int_arg

DEFAULT_ORACLE_BOUND = 10**6
# Largest n scanned by the bounded scans (ap_practical_stream,
# quad_practical_stream, nonpractical_witness) and the CLI's --scan-bound.
DEFAULT_SCAN_BOUND = 10**5


@dataclass(frozen=True)
class StewartWitness:
    """Evidence of non-practicality: the index-th prime factor exceeds
    sigma(product of the earlier prime powers) + 1."""

    index: int
    prime: int
    bound: int


@dataclass(frozen=True)
class PracticalityVerdict:
    """Outcome of the structure test for n.

    chain steps are (prime, exponent, running_sigma) with running_sigma the
    divisor sum of the product up to and including that prime power.  On a
    practical verdict the chain covers all of n (empty chain means n = 1);
    on a negative one it is the practical prefix before the failing prime,
    and witness records the first failing comparison.
    """

    n: int
    practical: bool
    chain: tuple[tuple[int, int, int], ...] = ()
    witness: StewartWitness | None = None

    @property
    def prefix(self) -> int:
        """Product of the chain's prime powers: n on practical verdicts, the
        largest practical divisor of n on negative ones."""
        return math.prod(p**e for p, e, _ in self.chain)

    @property
    def sigma(self) -> int:
        """sigma(prefix): sigma(n) on practical verdicts, the divisor sum of
        the practical prefix on negative ones."""
        return self.chain[-1][2] if self.chain else 1

    def replay(self) -> bool:
        """Re-check the verdict with arithmetic only (no factorization).

        The chain's prime powers must be pairwise coprime, so running_sigma
        never exceeds the divisor sum of the product so far.  A negative
        verdict must also show the failing prime dividing n / prefix and
        exceeding sigma(prefix) + 1; that the cofactor has no smaller prime
        factor is not checked.  Every number must be an int: 8.0 == 8, but
        a verdict on 8.0 proves nothing.
        """
        if type(self.n) is not int:
            return False
        value = 1
        running = 1
        for p, e, s in self.chain:
            if not type(p) is type(e) is type(s) is int:
                return False
            if p < 2 or e < 1 or math.gcd(p, value) != 1 or p > running + 1:
                return False
            if s != running * _sigma_pp(p, e):
                return False
            value *= p**e
            running = s
        if self.practical:
            return value == self.n
        w = self.witness
        return (
            w is not None
            and type(w.index) is type(w.prime) is type(w.bound) is int
            and w.index == len(self.chain) + 1
            and w.bound == running + 1
            and w.prime > w.bound
            and self.n % value == 0
            and (self.n // value) % w.prime == 0
        )


def _walk(powers: Iterator[tuple[int, int]], chain: list | None = None) -> tuple[int, int] | None:
    """Stewart's comparisons over prime powers in increasing order.  Sends each bound
    sigma(prefix) + 1 back, so a lazy source can stop once no untried prime passes;
    extends chain if given one; returns the first failing pair's base (the prime,
    or under a cap the cofactor) with its bound, else None."""
    running = 1
    try:
        p, e = next(powers)
        while p <= running + 1:
            running *= _sigma_pp(p, e)
            if chain is not None:
                chain.append((p, e, running))
            p, e = powers.send(running + 1)
    except StopIteration:
        return None
    return p, running + 1


def practical_from_factorization(f: Factorization, n: int | None = None) -> PracticalityVerdict:
    """Run the structure test on a known factorization; the verdict's n is
    f's value unless n >= 1 is given."""
    n = f.value if n is None else _int_arg("n", n, 1)
    chain: list[tuple[int, int, int]] = []
    failure = _walk((pe for pe in f), chain)  # a generator accepts the walk's send()
    witness = failure and StewartWitness(len(chain) + 1, *failure)
    return PracticalityVerdict(n, not failure, tuple(chain), witness)


def is_practical(n: int) -> PracticalityVerdict:
    """Decide practicality of n >= 1; the verdict carries replayable evidence.

    n is factored under the budget in force (see arith.factor_budget), and
    BudgetExceeded from factorize propagates when its work limit runs out.
    """
    return practical_from_factorization(factorize(n), n)


def is_practical_quick(n: int) -> bool:
    """is_practical(n).practical by the same walk under the same budget, with
    n's prime powers drawn lazily from factorize's trial stage, which stops
    at the first prime above sigma(prefix) + 1: rho runs only once that
    bound passes the trial bound.  This is what the scan-heavy paths use."""
    if _int_arg("n", n, 1) & 1:  # an odd n > 1 fails at its least prime, >= 3 > sigma(1) + 1
        return n == 1
    return _walk(_prime_powers(n, 2)) is None


def is_practical_oracle(n: int, bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """Definition-level test: can every m in [1, n] be written as a sum of
    distinct divisors of n?

    Subset-sum over the divisor list as a bit mask, clamped at n (sums above
    n are irrelevant).  Independent of the structure test by construction.
    """
    if _int_arg("n", n, 1) > _int_arg("bound", bound, 1):
        raise BudgetExceeded(f"oracle bound {bound} exceeded by n = {n}", knob="--oracle-bound",
                             limit=bound, used=n, param="bound")
    divisors = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            divisors.append(d)
            if d != n // d:
                divisors.append(n // d)
    divisors.sort()
    full = (1 << (n + 1)) - 1
    reach = 1
    for d in divisors:
        reach |= reach << d
        reach &= full
        if reach == full:
            return True
    return reach == full


Evidence = Union[PracticalityVerdict, "MultiplierCertificate"]


@dataclass(frozen=True)
class MultiplierCertificate:
    """Proof that base * multiplier is practical, checkable by arithmetic.

    If base is practical then base * m is practical for every
    m <= sigma(base) + 1; when sigma(base) is unavailable the weaker but
    factorization-free bound 2*base - 1 <= sigma(base) (valid for practical
    base) is recorded instead.  base_evidence is either a replayable verdict
    or another certificate, so chains bottom out in a structure test.
    """

    base: int
    multiplier: int
    bound: int
    bound_kind: str  # "sigma": bound == sigma(base)+1; "doubling": bound == 2*base-1
    base_evidence: Evidence

    @cached_property
    def value(self) -> int:
        return self.base * self.multiplier

    @cached_property
    def practical(self) -> bool:
        """verify(), computed once per instance: the fields are frozen, so
        the answer cannot change, and a certificate derived from this one
        (dataclasses.replace, a new link) starts with no answer."""
        return self._check() is None

    def verify(self) -> bool:
        """The base evidence proves the base practical, down to the structure
        test at the bottom of the chain, the bound is the one its kind names,
        and the multiplier is within it."""
        return self.practical

    def _check(self) -> str | None:
        """The first claim that fails, or None when every claim holds."""
        if not type(self.base) is type(self.multiplier) is type(self.bound) is int:
            return "base, multiplier and bound are not all integers"
        ev = self.base_evidence
        if isinstance(ev, MultiplierCertificate):
            if ev.value != self.base or not ev.verify():
                return "base evidence certificate does not verify"
        elif ev.n != self.base or not ev.practical or not ev.replay():
            return f"base evidence verdict does not prove {self.base} practical"
        if self.bound_kind == "doubling":
            expected = 2 * self.base - 1
        elif self.bound_kind == "sigma" and isinstance(ev, PracticalityVerdict):
            expected = ev.sigma + 1
        else:
            return f"bound kind {self.bound_kind!r} does not apply to its base evidence"
        if self.bound != expected:
            return f"bound {self.bound} is not the {self.bound_kind} bound {expected}"
        if not 1 <= self.multiplier <= self.bound:
            return (f"multiplier {self.multiplier} exceeds provable bound {self.bound}"
                    f" for base {self.base}")
        return None


def certify_product(
    base_evidence: Evidence, multiplier: int, doubling: bool = False
) -> MultiplierCertificate:
    """Certificate that (base of the evidence) * multiplier is practical.

    A verdict records sigma(base), so its certificate takes the exact bound
    sigma(base) + 1; a certificate chain records no sigma and takes the
    factorization-free bound 2*base - 1, which doubling=True forces for a
    verdict too.  The certificate is returned only if it verifies; else
    InvalidInput names the first claim that fails.
    """
    _int_arg("multiplier", multiplier, 1)
    chained = isinstance(base_evidence, MultiplierCertificate)
    base = base_evidence.value if chained else base_evidence.n
    if chained or doubling:
        kind, bound = "doubling", 2 * base - 1
    else:
        kind, bound = "sigma", base_evidence.sigma + 1
    cert = MultiplierCertificate(base, multiplier, bound, kind, base_evidence)
    if not cert.verify():
        raise InvalidInput(cert._check())
    return cert
