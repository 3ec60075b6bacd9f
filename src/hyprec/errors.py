"""Exception types shared across the package."""


class HyprecError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HyprecError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ParameterError(DomainError):
    """A parameter fails the domain rule checked when it is constructed or passed in.

    The single source of parameter validation: the CLI maps it to exit code 2.
    """


class NonConvergence(HyprecError, ArithmeticError):
    """An iterative computation exhausted its budget before reaching tolerance."""
