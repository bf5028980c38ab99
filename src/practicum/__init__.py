"""practicum: practical numbers as a library.

Certified practicality tests, enumeration and counting by a walk of the
practical-number tree (with persistent bitmaps), classification of linear
and quadratic polynomials by whether they hit infinitely many practical
numbers (with constructive witnesses), and additive representation checks
(square + practical, practical pairs and triples, palindromic chains).
"""

__version__ = "0.1.0"

# Every public name, by the module that defines it.  Importing the package
# loads none of these modules: a name's module is imported on first access
# (PEP 562) and the name is then bound here, so later lookups are plain
# attribute reads.  A short CLI process thus loads only what its command
# runs, and numpy only when a bitmap is built or an array asked for.
_EXPORTS = {
    "arith": (
        "Factorization", "crt_solve", "factor_budget", "factorize", "prime_stream",
        "primes_upto", "sigma", "sigma_prime_power", "valuation",
    ),
    "errors": ("BudgetExceeded", "FalsificationSignal", "InvalidInput", "PracticumError"),
    "practical": (
        "MultiplierCertificate", "PracticalityVerdict", "StewartWitness", "certify_product",
        "is_practical", "is_practical_oracle", "is_practical_quick",
        "practical_from_factorization",
    ),
    "progressions": (
        "APClassification", "APWitness", "PolyWitness", "ap_constructive_witness",
        "ap_practical_stream", "classify_ap", "nonpractical_witness",
    ),
    "quadratics": (
        "FiniteWitness", "InfiniteWitness", "MqResult", "QuadClassification", "QuadraticPoly",
        "QuadWitness", "classify_quadratic", "mq", "quad_constructive_witness",
        "quad_practical_stream",
    ),
    "representations": (
        "FamilySpec", "PalindromicEntry", "RepresentationTrace", "SquareDecomposition",
        "decompose_square_plus_practical", "family_spec", "family_stream", "goldbach_pair",
        "palindromic_practicals", "power2_practical", "practical_triples",
        "sqrt_mod_power_of_two", "verify_not_representable",
    ),
    "sieve": ("PracticalBitmap", "count_practicals", "density_report", "sieve_practicals"),
}
# name -> defining module; each module is listed as its own name
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
