"""Exception types shared across the package.

Validation failures (bad arguments, out-of-domain points, out-of-regime
parameters) derive from ValueError; resource and precision failures derive
from RuntimeError.  The CLI maps the first group to exit code 2 and the
second to exit code 3.  `float_result` turns a result that float64 cannot
hold into PrecisionUnreachableError, so no inf reaches a caller or the
CLI's output.
"""

import math


class OutOfDomainError(ValueError):
    """Evaluation point lies outside the domain a table or method covers."""


class OutOfRegimeError(ValueError):
    """Parameters fall below the regime where the derived formulas are defined."""


class PrincipalCharacterError(ValueError):
    """The principal character was passed where a non-principal one is required."""


class TailNotCertifiedError(RuntimeError):
    """The available table domain cannot certify the truncation tail below tol."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration / memory / grid budget would be exceeded."""


class PrecisionUnreachableError(RuntimeError):
    """The requested tolerance cannot be met by the configured precision."""


def float_result(quantity: str, compute) -> float:
    """compute(), or PrecisionUnreachableError naming `quantity` when the
    value is not finite or a float power inside it overflows."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise PrecisionUnreachableError(f"{quantity} is beyond float64 range")
    return value
