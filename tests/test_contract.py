"""The argument contract: every int argument of every public callable goes
through errors._int_arg, so a value that is not a plain int, or an int
outside the argument's domain, raises a PracticumError at once.

ROWS holds, for each public name that takes ints, a call and each int
argument's label (the name its messages use), a valid value and its domain.
Each bad value outside a domain replaces its argument in turn, the others
keeping their valid values.  The cases run in one child process under an
address-space limit and a per-case alarm, so that a lost guard fails the
test instead of exhausting the machine or hanging it.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import practicum
from practicum import (
    Factorization,
    PracticumError,
    QuadraticPoly,
    ap_constructive_witness,
    ap_practical_stream,
    arith,
    certify_product,
    classify_ap,
    count_practicals,
    crt_solve,
    decompose_square_plus_practical,
    density_report,
    factor_budget,
    factorize,
    family_spec,
    family_stream,
    goldbach_pair,
    is_practical,
    is_practical_oracle,
    is_practical_quick,
    mq,
    nonpractical_witness,
    palindromic_practicals,
    power2_practical,
    practical_from_factorization,
    practical_triples,
    primes_upto,
    quad_constructive_witness,
    quad_practical_stream,
    sieve_practicals,
    sigma_prime_power,
    sqrt_mod_power_of_two,
    valuation,
    verify_not_representable,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# The fuzz values, and those of the per-function rejection tests that
# preceded this table (12.5, 1.5, 7.0, "1", ...), so each of their cases is
# a case here too.
BAD = (0, -1, -10**30, 10**400, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 12.0, 12.5,
       "1", "2", "5", "12", None, True)
# A size or exponent past this needs more than sieve.DEFAULT_MEMORY_BUDGET
BUDGET = 1 << 40
CASE_SECONDS = 1.0
ADDRESS_SPACE = 2 << 30


# A domain is a predicate on any value: the ints it names, and None where
# None is the argument's default.
def where(ok):
    return lambda v: type(v) is int and ok(v)


def at_least(lo: int):
    return where(lambda v: v >= lo)


def between(lo: int, hi: int):
    return where(lambda v: lo <= v <= hi)


def or_none(domain):
    return lambda v: v is None or domain(v)


any_int = where(lambda v: True)
one_mod_8 = where(lambda v: v % 8 == 1)


@functools.cache
def _bitmap():
    return sieve_practicals(100)


def _enter_factor_budget(work_limit):
    with factor_budget(work_limit):
        pass


Q_INFINITE = QuadraticPoly(1, 1, 2)

# public name (or Class.method) -> (call, [(label, valid value, domain), ...]);
# the call takes the int arguments in the order listed
ROWS = {
    "Factorization": (lambda p, e: Factorization(((p, e),)),
                      [("p", 2, at_least(2)), ("e", 3, at_least(1))]),
    "crt_solve": (lambda residue, modulus: crt_solve([(2, 5), (residue, modulus)]),
                  [("residue", 1, between(0, 2)), ("modulus", 3, at_least(2))]),
    "factor_budget": (_enter_factor_budget, [("work_limit", 10, at_least(0))]),
    "factorize": (factorize, [("n", 12, at_least(1))]),
    "primes_upto": (primes_upto, [("limit", 100, between(0, BUDGET))]),
    "sigma_prime_power": (sigma_prime_power,
                          [("p", 2, at_least(2)), ("e", 3, between(0, BUDGET))]),
    "valuation": (valuation, [("n", 12, where(lambda v: v != 0)), ("p", 2, at_least(2))]),
    "certify_product": (lambda multiplier: certify_product(is_practical(88), multiplier),
                        [("multiplier", 2, between(1, 181))]),
    "is_practical": (is_practical, [("n", 12, at_least(1))]),
    "is_practical_oracle": (is_practical_oracle,
                            [("n", 12, at_least(1)), ("bound", 100, at_least(1))]),
    "is_practical_quick": (is_practical_quick, [("n", 12, at_least(1))]),
    "practical_from_factorization": (
        lambda n: practical_from_factorization(Factorization(((2, 3),)), n),
        [("n", 8, or_none(at_least(1)))]),
    "ap_constructive_witness": (ap_constructive_witness, [
        ("a", 3, at_least(1)), ("b", 5, at_least(1)), ("threshold", 10, at_least(1))]),
    "ap_practical_stream": (ap_practical_stream, [
        ("a", 3, at_least(1)), ("b", 5, at_least(1)), ("count", 2, at_least(1)),
        ("n_limit", 100, at_least(1))]),
    "classify_ap": (classify_ap, [("a", 3, at_least(1)), ("b", 5, at_least(1))]),
    "nonpractical_witness": (lambda c, n_limit: nonpractical_witness([c, 1], n_limit), [
        ("coefficient", 1, any_int), ("n_limit", 100, between(1, 10**5))]),
    "QuadraticPoly": (QuadraticPoly,
                      [("a", 1, at_least(1)), ("b", 0, any_int), ("c", 1, any_int)]),
    "mq": (lambda p: mq(QuadraticPoly(1, 0, 3), p),
           [("p", 2, where(lambda v: v >= 2 and arith._is_prime(v)))]),
    "quad_constructive_witness": (
        lambda threshold: quad_constructive_witness(Q_INFINITE, threshold),
        [("threshold", 10, at_least(1))]),
    "quad_practical_stream": (
        lambda count, n_limit: quad_practical_stream(Q_INFINITE, count, n_limit),
        [("count", 2, at_least(1)), ("n_limit", 100, at_least(1))]),
    "decompose_square_plus_practical": (decompose_square_plus_practical,
                                        [("n", 17, where(lambda v: v >= 2 and v % 8 == 1))]),
    "family_spec": (family_spec, [("j", 0, where(lambda v: v in (0, 2, 3, 4, 5, 6, 7)))]),
    "family_stream": (family_stream, [("j", 0, where(lambda v: v in (0, 2, 3, 4, 5, 6, 7))),
                                      ("count", 3, between(1, 10**5))]),
    "goldbach_pair": (goldbach_pair, [("even n", 10, where(lambda v: v >= 2 and v % 2 == 0))]),
    "palindromic_practicals": (palindromic_practicals, [("count", 2, between(1, 20))]),
    "power2_practical": (power2_practical, [("k", 3, between(1, BUDGET)),
                                            ("multiplier", 3, between(1, 16))]),
    "practical_triples": (practical_triples, [("limit", 10, between(1, BUDGET))]),
    "sqrt_mod_power_of_two": (sqrt_mod_power_of_two,
                              [("m", 17, one_mod_8), ("k", 3, between(1, BUDGET))]),
    "verify_not_representable": (verify_not_representable, [("m", 14, at_least(1))]),
    "PracticalBitmap.__contains__": (lambda n: n in _bitmap(), [("n", 5, between(1, 100))]),
    "PracticalBitmap.as_int": (lambda x: _bitmap().as_int(x), [("x", 5, between(0, 100))]),
    "PracticalBitmap.count": (lambda x: _bitmap().count(x), [("x", 5, or_none(between(1, 100)))]),
    "count_practicals": (count_practicals, [("x", 100, between(1, (1 << 59) - 1))]),
    "density_report": (lambda x: density_report([10, x]), [("x", 100, between(1, (1 << 59) - 1))]),
    "sieve_practicals": (sieve_practicals, [("limit", 100, between(1, BUDGET))]),
}

MODULES = {"arith", "errors", "practical", "progressions", "quadratics", "representations", "sieve"}
EXEMPT = {
    "__version__", *MODULES,
    "BudgetExceeded", "FalsificationSignal", "InvalidInput", "PracticumError",
    # result types: built by the library, checked by replay() or verify()
    "MultiplierCertificate", "PracticalityVerdict", "StewartWitness",
    "APClassification", "APWitness", "PolyWitness",
    "FiniteWitness", "InfiniteWitness", "MqResult", "QuadClassification", "QuadWitness",
    "FamilySpec", "PalindromicEntry", "RepresentationTrace", "SquareDecomposition",
    # no int argument: a Factorization, a QuadraticPoly, nothing
    "sigma", "classify_quadratic", "prime_stream",
}


def _cases():
    """(row, argument index, bad value) for every bad value outside each domain."""
    for name, (_, args) in ROWS.items():
        for i, (_, _, domain) in enumerate(args):
            for bad in BAD:
                if not domain(bad):
                    yield name, i, bad


class _Expired(BaseException):
    """A case ran past CASE_SECONDS; not an Exception, so no handler in the
    library turns it into an ordinary error."""


def _expire(signum, frame):
    raise _Expired


def _run_cases() -> None:
    """Run every case and print one JSON line each: row, label, repr of the
    bad value, the exception's class, its message, seconds taken."""
    _bitmap()  # numpy is imported before the address space is limited
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _expire)
    for name, i, bad in _cases():
        call, args = ROWS[name]
        values = [valid for _, valid, _ in args]
        values[i] = bad
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
        try:
            call(*values)
            kind, message = "returned", ""
        except (Exception, _Expired) as exc:  # every outcome is reported, an expired alarm too
            kind, message = type(exc).__name__, str(exc)
            if isinstance(exc, PracticumError):
                kind = "PracticumError:" + kind
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        print(json.dumps([name, args[i][0], repr(bad), kind, message[:300],
                          time.perf_counter() - start]), flush=True)


def test_every_public_name_has_a_row_or_an_exemption():
    rows = {name.split(".")[0] for name in ROWS}
    assert not rows & EXEMPT
    assert rows | EXEMPT == set(practicum.__all__)


def test_every_bad_int_argument_raises_a_practicum_error_at_once():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    expected = list(_cases())
    assert len(results) == len(expected) > 500
    for (name, label, bad, kind, message, seconds), (_, _, value) in zip(results, expected):
        case = f"{name}({label}={bad})"
        assert kind.startswith("PracticumError:"), (case, kind, message)
        assert seconds < CASE_SECONDS, (case, seconds)
        if type(value) is not int:  # the type check comes first, in the one wording
            assert message == f"{label} must be an integer, got {bad}", (case, message)


def test_only_errors_writes_type_and_bound_messages():
    for path in (SRC / "practicum").glob("*.py"):
        if path.name != "errors.py":
            source = path.read_text(encoding="utf-8")
            assert "must be an integer" not in source and "must be >= " not in source, path


if __name__ == "__main__":
    _run_cases()
