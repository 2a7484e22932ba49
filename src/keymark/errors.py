"""Exception types shared across the package."""

__all__ = [
    "KeymarkError",
    "ParameterError",
    "CapacityError",
    "ValidationError",
    "SolverError",
    "InvariantError",
]


class KeymarkError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(KeymarkError, ValueError):
    """An argument is outside its documented domain."""


class CapacityError(KeymarkError, RuntimeError):
    """An operation would list more keys or LP variables than its fixed cap.

    Only the operations that list items one by one check one: the
    structural keys of construction A's part 1 (T! per decomposition term)
    and the key entries of a CSV row (ENUMERATION_CAP), and an LP's table
    variables (VARIABLE_CAP).  A's anchored windows and B's T cyclic keys
    per term are linear and have no cap, and key sets no size limit.
    """


class ValidationError(KeymarkError, ValueError):
    """A document or object violates a structural invariant."""


class SolverError(KeymarkError, RuntimeError):
    """The LP solver failed: it exceeded its iteration cap, was given a
    number that is not an exact rational, or gave an optimum whose dual
    certificate failed the exact check."""


class InvariantError(KeymarkError, AssertionError):
    """An internal identity that the theory guarantees failed to hold.

    Reaching this indicates a bug in this package, not bad user input.
    """
