"""Moment constants of the Dickman function and the theorem-level bound
constants built from them.

The ell-th moment  Y_ell = int_0^infty u^ell rho(u) du  is computed two
independent ways:

  * exactly, as e^gamma times a rational number obtained from the complete
    exponential Bell polynomial recurrence applied to (-1, 1/2, ..,
    (-1)^ell/ell) -- the ell-th derivative of the Laplace transform of rho
    at 0, unwound by Faa di Bruno;
  * numerically, as DickmanTable.integrate of u^ell rho(u) over the whole
    table plus a certified superfactorial tail bound.

Bell coefficients grow factorially, so the recurrence runs in exact rational
arithmetic (floats lose every digit near ell ~ 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .constants import BOUND_KINDS, EXP_GAMMA
from .dickman import DickmanTable, rho
from .errors import TailNotCertifiedError

_MAX_ELL = 200


@dataclass(frozen=True)
class MomentValue:
    ell: int
    rational_part: Fraction | None
    float_value: float
    method: str  # "bell-exact" | "quadrature"


def complete_bell(ell: int, x: list) -> object:
    """Complete exponential Bell polynomial B_ell(x_1, .., x_ell).

    Recurrence: B_0 = 1, B_{n+1} = sum_{k=0}^{n} C(n, k) B_{n-k} x_{k+1}.
    Its caller, y_exact, passes Fractions, and exact inputs stay exact; the
    recurrence alternates in sign there, so it is not meant for floats.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell > _MAX_ELL:
        raise ValueError(f"ell > {_MAX_ELL}: coefficient growth guard")
    if len(x) != ell:
        raise ValueError(f"need exactly ell={ell} arguments, got {len(x)}")
    b = [Fraction(1)]
    for n in range(ell):
        nxt = sum(math.comb(n, k) * b[n - k] * x[k] for k in range(n + 1))
        b.append(nxt)
    return b[ell]


def y_exact(ell: int) -> MomentValue:
    """Y_ell as an exact rational multiple of e^gamma.

    rational_part = (-1)^ell B_ell(-1, 1/2, .., (-1)^ell/ell); Y_0 = e^gamma
    (transform at 0) so rational_part(0) = 1 by convention.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell > _MAX_ELL:
        raise ValueError(f"ell > {_MAX_ELL}: coefficient growth guard")
    args = [Fraction((-1) ** m, m) for m in range(1, ell + 1)]
    rational = (-1) ** ell * complete_bell(ell, args)
    try:
        fval = float(rational) * EXP_GAMMA
    except OverflowError:
        fval = math.inf
    return MomentValue(ell=ell, rational_part=Fraction(rational), float_value=fval, method="bell-exact")


def y_quadrature(ell: int, table: DickmanTable, tol: float = 1e-10) -> MomentValue:
    """Y_ell as table.integrate of u^ell rho(u) over [0, table.max_u].

    The tail beyond U = table.max_u is bounded by the superfactorial decay
    rho(u) <= rho(u-1)/u; raises TailNotCertifiedError when that bound does
    not reach tol (ell too large for the table domain).
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    u_end = table.max_u
    if u_end < 4.0 or ell > u_end / 2.0:
        raise TailNotCertifiedError(
            f"table domain [0, {u_end}] too short for moment ell={ell}"
        )
    top = rho(u_end, table) + table.end_error_bound()
    # terms (U+j+1)^ell * rho(U+j) are dominated by a geometric series
    ratio = math.exp(ell / (u_end + 1.0)) / (u_end + 1.0)
    tail = (u_end + 1.0) ** ell * top / (1.0 - ratio)
    if not (tail < tol / 2):
        raise TailNotCertifiedError(
            f"tail bound {tail:.3e} for ell={ell} at U={u_end} exceeds tol/2"
        )

    value = table.integrate(lambda us: us**ell, 0.0, u_end)
    return MomentValue(ell=ell, rational_part=None, float_value=value, method="quadrature")


def bound_prediction(kind: str, ell: int, scale: float) -> float:
    """Statement-level constant times (log log scale)^(ell+1).

    kind selects the constant: "lower" -> Y_ell (unconditional lower bound),
    "rh-upper" -> 2^(ell+1) Y_ell (conditional upper bound),
    "conjectural-asymptotic" -> Y_ell (sharp constant under the conjectured
    smooth-sum approximation).
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"kind must be one of {BOUND_KINDS}, got {kind!r}")
    if not math.e < scale < math.inf:
        raise ValueError(f"scale must be finite and exceed e so log log scale > 0, got {scale}")
    loglog = math.log(math.log(scale))
    y_ell = y_exact(ell).float_value
    c = 2.0 ** (ell + 1) * y_ell if kind == "rh-upper" else y_ell
    return c * loglog ** (ell + 1)
