"""One error class for each thing a caller can do next, and every budget
error names the setting that raises the budget."""

import inspect
import re

import pytest

from practicum import (
    BudgetExceeded,
    FalsificationSignal,
    InvalidInput,
    PracticumError,
    QuadraticPoly,
    ap_practical_stream,
    arith,
    classify_quadratic,
    count_practicals,
    errors,
    factor_budget,
    factorize,
    is_practical_oracle,
    nonpractical_witness,
    progressions,
    quad_constructive_witness,
    quad_practical_stream,
    quadratics,
    sieve,
    sieve_practicals,
)


def test_one_class_per_remedy():
    classes = {name for name, value in vars(errors).items() if inspect.isclass(value)}
    assert classes == {"PracticumError", "InvalidInput", "BudgetExceeded", "FalsificationSignal"}
    for cls in (InvalidInput, BudgetExceeded, FalsificationSignal):
        assert cls.__bases__[0] is PracticumError
    # bad arguments alone are also a ValueError
    assert issubclass(InvalidInput, ValueError)
    assert not issubclass(BudgetExceeded, ValueError)
    assert not issubclass(FalsificationSignal, ValueError)


def _factor_work(monkeypatch):
    with factor_budget(10):
        factorize(1_000_003 * 1_000_033)


def _rho_work(monkeypatch):
    monkeypatch.setattr(arith, "_TRIAL_BOUND", 100)  # the 25 primes <= 100 take 25 units
    with factor_budget(30):
        factorize(1_000_003 * 1_000_033)


def _poly_cap(monkeypatch):
    monkeypatch.setattr(progressions, "_POLY_BOUND_CAP", 4)
    nonpractical_witness([0, 2], n_limit=4)


def _prime_walk(monkeypatch):
    with factor_budget(2):
        classify_quadratic(QuadraticPoly(1, 0, 1))  # its least infinite prime is 5


def _witness_rounds(monkeypatch):
    monkeypatch.setattr(quadratics, "_WITNESS_ROUNDS", 0)
    quad_constructive_witness(QuadraticPoly(1, 1, 2), 10)


def _sieve_memory(monkeypatch):
    monkeypatch.setattr(sieve, "DEFAULT_MEMORY_BUDGET", 1000)
    sieve_practicals(10**4)


def _walk_memory(monkeypatch):
    monkeypatch.setattr(sieve, "DEFAULT_MEMORY_BUDGET", 1000)
    count_practicals(10**4)


# every site that raises BudgetExceeded, and the knob its message names
SITES = {
    "factor work": (_factor_work, "raise --factor-work"),
    "rho work": (_rho_work, "raise --factor-work"),
    "oracle bound": (lambda mp: is_practical_oracle(11, bound=10), "raise --oracle-bound"),
    "ap scan": (lambda mp: ap_practical_stream(3, 5, 50, n_limit=10), "raise --scan-bound"),
    "quad scan": (lambda mp: quad_practical_stream(QuadraticPoly(1, 1, 2), 500, n_limit=30),
                  "raise --scan-bound"),
    "poly scan": (lambda mp: nonpractical_witness([0, 2], n_limit=4), "raise --scan-bound"),
    "poly cap": (_poly_cap, "raise progressions._POLY_BOUND_CAP"),
    "sieve memory": (_sieve_memory, "sieve.DEFAULT_MEMORY_BUDGET"),
    "walk memory": (_walk_memory, "sieve.DEFAULT_MEMORY_BUDGET"),
    "m_q primes": (_prime_walk, "raise --factor-work"),
    "witness rounds": (_witness_rounds, "raise quadratics._WITNESS_ROUNDS"),
}


@pytest.mark.parametrize("site", SITES)
def test_every_budget_error_names_its_knob(site, monkeypatch):
    trip, knob = SITES[site]
    with pytest.raises(BudgetExceeded) as exc:
        trip(monkeypatch)
    assert knob in str(exc.value)


# the knob, limit and use each site's error carries; a use of None stands
# for the bytes that the message says the operation needs
FIELDS = {
    "factor work": ("--factor-work", 10, 11),  # the 11th prime, 31, would take unit 11
    "rho work": ("--factor-work", 30, None),
    "oracle bound": ("--oracle-bound", 10, 11),
    "ap scan": ("--scan-bound", 10, 10),
    "quad scan": ("--scan-bound", 30, 30),
    "poly scan": ("--scan-bound", 4, 4),
    "poly cap": ("progressions._POLY_BOUND_CAP", 4, 4),
    "sieve memory": ("sieve.DEFAULT_MEMORY_BUDGET", 1000, None),
    "walk memory": ("sieve.DEFAULT_MEMORY_BUDGET", 1000, None),
    "m_q primes": ("--factor-work", 2, 3),  # the third prime, 5, would take unit 3
    "witness rounds": ("quadratics._WITNESS_ROUNDS", 0, 0),
}


def test_every_site_has_its_fields():
    assert set(FIELDS) == set(SITES)


@pytest.mark.parametrize("site", SITES)
def test_every_budget_error_carries_knob_limit_and_use(site, monkeypatch):
    trip, _ = SITES[site]
    knob, limit, used = FIELDS[site]
    with pytest.raises(BudgetExceeded) as exc:
        trip(monkeypatch)
    err = exc.value
    assert (err.knob, err.limit) == (knob, limit)
    assert knob.rsplit(".", 1)[-1] in str(err)  # a constant's message may omit its module
    assert re.search(rf"raise {re.escape(err.knob)}( \(.+\))?$", str(err)), str(err)
    if used is not None:
        assert err.used == used
    elif knob == "--factor-work":  # rho charges its steps in rounds of up to 128
        assert limit < err.used <= limit + 128
    else:
        assert f"needs {err.used} bytes" in str(err) and err.used > limit
