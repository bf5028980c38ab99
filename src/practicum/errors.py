"""Exception hierarchy: one class for each thing a caller can do next.

- InvalidInput: the arguments are outside an operation's domain (a bad
  residue or j, conflicting congruences, a multiplier past its provable
  bound); fix the arguments.  It is also a ValueError.
- BudgetExceeded: a work, memory, oracle, scan or iteration limit ran out
  before the answer; raise the budget that the message names.  Every such
  message has one form, "<what ran out>: raise <knob>", followed by
  " (<parameter>)" when a library parameter sets the same limit.
- FalsificationSignal: the computation finished and produced something
  that contradicts a theorem it implements; report a bug.  The CLI exits 1
  on it and 2 on the other two.

Beside BudgetExceeded's one message format, _int_arg is the one argument
check: every int argument of the public API passes through it, and its
three messages are the only type and bound messages in the package.
"""


class PracticumError(Exception):
    """Base class for all library errors."""


class InvalidInput(PracticumError, ValueError):
    """Arguments outside an operation's documented domain."""


class BudgetExceeded(PracticumError):
    """A configured limit ran out before the answer.

    knob is the flag or constant that raises the limit, limit its value,
    and used what the operation had taken or asked for when it stopped:
    work units, values scanned, rounds or bytes, in the limit's own unit.
    param names the library parameter that sets the same limit, if any.
    The message is written from these alone, as "{what}: raise {knob}",
    followed by " ({param})" when param is given.
    """

    def __init__(self, what: str, *, knob: str, limit: int, used: int, param: str | None = None):
        super().__init__(f"{what}: raise {knob}" + (f" ({param})" if param else ""))
        self.knob, self.limit, self.used = knob, limit, used


class FalsificationSignal(PracticumError):
    """A verified-impossible outcome occurred; indicates an implementation bug."""


def _int_arg(name: str, value, lo: int | None = None, hi: int | None = None, cap: str = "") -> int:
    """value, when it is a plain int in [lo, hi] (a bound given as None is open).

    Otherwise InvalidInput names the argument, in one of three forms:
    "{name} must be an integer, got {value!r}" for anything that is not
    exactly an int (a bool too, though it subclasses int, and a float such
    as 2.0); "{name} must be >= {lo}, got {value}"; and
    "{name} must be <= {hi} ({cap}), got {value}", where cap names what
    sets hi.
    """
    if type(value) is not int:
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise InvalidInput(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise InvalidInput(f"{name} must be <= {hi} ({cap}), got {value}")
    return value
