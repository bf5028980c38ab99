"""Short processes load only what they run, and the package's names stay put.

Importing `practicum` loads none of its modules: each public name's module
is imported on first access.  numpy is imported only to build a bitmap or
to hand out an array, so a process that runs a bitmap-free command, or
reads a cached bitmap, never pays for it.  Each check runs in a fresh
interpreter, where nothing has imported numpy yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Every public name of `practicum`: those it had when it still imported its
# modules eagerly (its bitmap API already lazy), and factor_budget, less
# FactorBudget and DEFAULT_BUDGET (the factor budget is now one int), less
# four names that repeated a value another name gives: SearchExhausted
# (BudgetExceeded), largest_practical_divisor (is_practical(g).prefix),
# least_infinite_prime (classify_quadratic's r, p_r and exponents) and
# family_member (family_stream(j, i + 1)[-1]), less ten error classes that
# named a cause where a caller acts only on the remedy: the memory, oracle,
# scan and iteration limits raise BudgetExceeded (MemoryBudgetExceeded,
# OracleBoundExceeded, ScanBudgetExceeded, IterationCap), bad arguments
# InvalidInput (InvalidResidue, InvalidJ, InconsistentSystem, BoundViolated)
# and failed re-checks FalsificationSignal (ClassificationMismatch, NotFound).
EXPORTS = (
    "APClassification", "APWitness", "BudgetExceeded", "Factorization",
    "FalsificationSignal", "FamilySpec", "FiniteWitness", "InfiniteWitness",
    "InvalidInput", "MqResult", "MultiplierCertificate", "PalindromicEntry",
    "PolyWitness", "PracticalBitmap", "PracticalityVerdict", "PracticumError",
    "QuadClassification", "QuadWitness", "QuadraticPoly", "RepresentationTrace",
    "SquareDecomposition", "StewartWitness", "ap_constructive_witness",
    "ap_practical_stream", "arith", "certify_product", "classify_ap",
    "classify_quadratic", "count_practicals", "crt_solve",
    "decompose_square_plus_practical", "density_report", "errors", "factor_budget",
    "factorize", "family_spec", "family_stream", "goldbach_pair",
    "is_practical", "is_practical_oracle", "is_practical_quick",
    "mq", "nonpractical_witness",
    "palindromic_practicals", "power2_practical", "practical",
    "practical_from_factorization", "practical_triples", "prime_stream", "primes_upto",
    "progressions", "quad_constructive_witness", "quad_practical_stream", "quadratics",
    "representations", "sieve", "sieve_practicals", "sigma", "sigma_prime_power",
    "sqrt_mod_power_of_two", "valuation", "verify_not_representable", "__version__",
)


def run_child(code: str) -> str:
    """stdout of a fresh interpreter running code with ./src on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_and_the_cli_loads_no_numpy():
    for module in ("practicum", "practicum.cli"):
        out = run_child(f"import sys, {module}; print('numpy' in sys.modules)")
        assert out == "False\n", module


def test_every_export_resolves_and_is_listed():
    out = run_child(
        "import json, sys, practicum\n"
        "listed = dir(practicum)\n"
        "before = 'numpy' in sys.modules\n"
        f"for name in {EXPORTS!r}:\n"
        "    getattr(practicum, name)\n"
        "from practicum import sieve_practicals\n"
        "import practicum.sieve as sieve\n"
        "try:\n"
        "    practicum.no_such_name\n"
        "    missing = False\n"
        "except AttributeError:\n"
        "    missing = True\n"
        "print(json.dumps({\n"
        "    'listed': listed,\n"
        "    'numpy_before': before,\n"
        "    'same_module': practicum.sieve is sieve is sys.modules['practicum.sieve'],\n"
        "    'same_function': sieve_practicals is sieve.sieve_practicals,\n"
        "    'same_class': practicum.PracticalBitmap is sieve.PracticalBitmap,\n"
        "    'missing_raises': missing,\n"
        "}))\n"
    )
    got = json.loads(out)
    assert set(EXPORTS) <= set(got["listed"])
    assert got["numpy_before"] is False
    assert got["same_module"] and got["same_function"] and got["same_class"]
    assert got["missing_raises"]


def test_star_import_binds_every_export():
    out = run_child(
        "import json\n"
        "from practicum import *\n"
        f"print(json.dumps([n for n in {EXPORTS!r} if n not in globals()]))\n"
    )
    assert json.loads(out) == []


@pytest.mark.parametrize("argv, used, unused", [
    (["test", "88"], ("arith", "practical"),
     ("progressions", "quadratics", "representations", "sieve")),
    # the prime walk sieves its primes in pure Python
    (["quad", "classify", "1", "0", "-7"], ("arith", "practical", "quadratics"),
     ("progressions", "representations", "sieve")),
], ids=["test", "quad-classify"])
def test_test_command_loads_only_its_own_modules(argv, used, unused):
    out = run_child(
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import practicum.cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    code = practicum.cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    code, loaded = json.loads(out)
    assert code == 0
    assert {"numpy", *(f"practicum.{m}" for m in unused)}.isdisjoint(loaded)
    assert {f"practicum.{m}" for m in used} <= set(loaded)


@pytest.mark.parametrize("argv", [
    ["quad", "classify", "1", "0", "-7"],
    ["quad", "mq", "1", "0", "3", "2"],
], ids=["quad-classify", "quad-mq"])
def test_quad_commands_build_no_trial_table(argv):
    # the m_q walk takes its primes from prime_stream, not from the trial
    # division table, whose first build costs a process milliseconds
    out = run_child(
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import practicum.cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    code = practicum.cli.main({argv!r})\n"
        "from practicum import arith\n"
        "print(json.dumps([code, arith._trial_table.cache_info().currsize,\n"
        "                  'numpy' in sys.modules]))\n"
    )
    assert json.loads(out) == [0, 0, False]
