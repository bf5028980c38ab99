"""Exception hierarchy: one class for each thing a caller can do next.

- InvalidInput: the arguments are outside an operation's domain (a bad
  residue or j, conflicting congruences, a multiplier past its provable
  bound); fix the arguments.  It is also a ValueError.
- BudgetExceeded: a work, memory, oracle, scan or iteration limit ran out
  before the answer; raise the budget that the message names.
- FalsificationSignal: the computation finished and produced something
  that contradicts a theorem it implements; report a bug.  The CLI exits 1
  on it and 2 on the other two.
"""


class PracticumError(Exception):
    """Base class for all library errors."""


class InvalidInput(PracticumError, ValueError):
    """Arguments outside an operation's documented domain."""


class BudgetExceeded(PracticumError):
    """A configured limit ran out before the answer; the message names the
    flag or constant that raises it.

    knob is that flag or constant, limit its value, and used what the
    operation had taken or asked for when it stopped: work units, values
    scanned, rounds or bytes, in the limit's own unit.
    """

    def __init__(self, message: str, *, knob: str | None = None,
                 limit: int | None = None, used: int | None = None):
        super().__init__(message)
        self.knob, self.limit, self.used = knob, limit, used


class FalsificationSignal(PracticumError):
    """A verified-impossible outcome occurred; indicates an implementation bug."""
