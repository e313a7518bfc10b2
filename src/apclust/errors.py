"""Exception types shared across the package.

The CLI maps these onto exit codes: every InputError, an underivable meso
bound included, exits 2, resource refusals 3, convergence failures 4.
"""


class ApclustError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ApclustError):
    """Invalid input data or parameter value."""


class FormatError(InputError):
    """Input file does not match the expected delimited-text schema."""


class ResourceLimitError(ApclustError):
    """Estimated resource usage exceeds the configured hard cap."""


class ConvergenceError(ApclustError):
    """Strict convergence was requested and no run converged."""
