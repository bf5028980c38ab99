"""practicum: practical numbers as a library.

Certified practicality tests, enumeration and counting by a walk of the
practical-number tree (with persistent bitmaps), classification of linear
and quadratic polynomials by whether they hit infinitely many practical
numbers (with constructive witnesses), and additive representation checks
(square + practical, practical pairs and triples, palindromic chains).
"""

from .arith import (
    DEFAULT_BUDGET,
    FactorBudget,
    Factorization,
    crt_solve,
    factor_budget,
    factorize,
    prime_stream,
    primes_upto,
    sigma,
    sigma_prime_power,
    valuation,
)
from .errors import (
    BoundViolated,
    BudgetExceeded,
    ClassificationMismatch,
    FalsificationSignal,
    InconsistentSystem,
    InvalidInput,
    InvalidJ,
    InvalidResidue,
    IterationCap,
    MemoryBudgetExceeded,
    NotFound,
    OracleBoundExceeded,
    PracticumError,
    ScanBudgetExceeded,
    SearchExhausted,
)
from .practical import (
    MultiplierCertificate,
    PracticalityVerdict,
    StewartWitness,
    certify_product,
    is_practical,
    is_practical_oracle,
    is_practical_quick,
    practical_from_factorization,
)
from .progressions import (
    APClassification,
    APWitness,
    PolyWitness,
    ap_constructive_witness,
    ap_practical_stream,
    classify_ap,
    largest_practical_divisor,
    nonpractical_witness,
)
from .quadratics import (
    FiniteWitness,
    InfiniteWitness,
    MqResult,
    QuadClassification,
    QuadraticPoly,
    QuadWitness,
    classify_quadratic,
    least_infinite_prime,
    mq,
    quad_constructive_witness,
    quad_practical_stream,
)
from .representations import (
    FamilySpec,
    PalindromicEntry,
    RepresentationTrace,
    SquareDecomposition,
    decompose_square_plus_practical,
    family_member,
    family_spec,
    family_stream,
    goldbach_pair,
    palindromic_practicals,
    power2_practical,
    practical_triples,
    sqrt_mod_power_of_two,
    verify_not_representable,
)

__version__ = "0.1.0"

# The bitmap API needs numpy, which takes longer to import than the rest of
# the package; it is loaded from `sieve` on first use (PEP 562).
_SIEVE_EXPORTS = ("PracticalBitmap", "count_practicals", "density_report", "sieve_practicals")


def __getattr__(name: str):
    if name == "sieve" or name in _SIEVE_EXPORTS:
        from importlib import import_module

        sieve = import_module(".sieve", __name__)
        return sieve if name == "sieve" else getattr(sieve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "sieve", *_SIEVE_EXPORTS})
