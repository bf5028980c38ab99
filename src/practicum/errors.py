"""Exception hierarchy.

Two families matter to callers: budget/usage errors (the computation was
refused or ran out of its configured work allowance) and falsification
signals (the computation finished and produced something that contradicts a
theorem it implements -- these should never fire and are treated as fatal
by the CLI, exit code 1).
"""


class PracticumError(Exception):
    """Base class for all library errors."""


class BudgetExceeded(PracticumError):
    """Factorization work limit exhausted before a full factorization."""


class MemoryBudgetExceeded(PracticumError):
    """A sieve or table would exceed the configured memory budget."""


class OracleBoundExceeded(PracticumError):
    """Subset-sum oracle asked about an n above its configured bound."""


class ScanBudgetExceeded(PracticumError):
    """A bounded scan ended before it found what it looks for (the bound was too small)."""


class IterationCap(PracticumError):
    """An iteration limit was hit (prime enumeration, witness escalation)."""


class InvalidInput(PracticumError, ValueError):
    """Arguments outside an operation's documented domain."""


class InvalidResidue(InvalidInput):
    """Input not in the required residue class."""


class InvalidJ(InvalidInput):
    """No non-representable family exists for this residue class mod 8."""


class InconsistentSystem(PracticumError, ValueError):
    """Simultaneous congruences conflict on a shared modulus divisor."""


class BoundViolated(PracticumError, ValueError):
    """Multiplier exceeds the provable bound of a product certificate."""


class FalsificationSignal(PracticumError):
    """A verified-impossible outcome occurred; indicates an implementation bug."""


class ClassificationMismatch(FalsificationSignal):
    """A constructive witness failed the practicality test its classification guarantees."""


class NotFound(FalsificationSignal):
    """No decomposition found where one is guaranteed to exist (e.g. practical pair for an even number)."""
