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

Bell coefficients grow factorially, so the recurrence runs in exact integer
arithmetic on ell! times the Bell value (floats lose every digit near
ell ~ 20); complete_bell is the same recurrence over Fractions, kept as a
second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .constants import BOUND_KINDS, EXP_GAMMA
from .errors import TailNotCertifiedError, float_result

if TYPE_CHECKING:
    from .dickman import DickmanTable

_MAX_ELL = 200


def __getattr__(name: str):
    # `moments.rho` is `dickman.rho`, read on every access, for perfbench's
    # rebinding pin only; ROADMAP item 1, step A, deletes it
    if name == "rho":
        from . import dickman
        return dickman.rho
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class MomentValue:
    ell: int
    rational_part: Fraction | None
    float_value: float
    method: str  # "bell-exact" | "quadrature"


def complete_bell(ell: int, x: list) -> object:
    """Complete exponential Bell polynomial B_ell(x_1, .., x_ell).

    Recurrence: B_0 = 1, B_{n+1} = sum_{k=0}^{n} C(n, k) B_{n-k} x_{k+1}.
    Exact inputs such as Fractions stay exact; at y_exact's arguments the
    recurrence alternates in sign, so it is not meant for floats.
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
    (transform at 0) so rational_part(0) = 1 by convention.  Rejects ell < 0
    and ell > 200.

    The Bell recurrence runs on the integers A_n = n! B_n: with x_m =
    (-1)^m/m it reads A_{n+1} = sum_k (-1)^(k+1) C(n,k) k! C(n+1,k+1)
    A_{n-k}, where C(n,k) k! = perm(n, k), and one Fraction(A_ell, ell!) is
    made at the end.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell > _MAX_ELL:
        raise ValueError(f"ell > {_MAX_ELL}: coefficient growth guard")
    a = [1]
    for n in range(ell):
        a.append(sum((-1) ** (k + 1) * math.perm(n, k) * math.comb(n + 1, k + 1) * a[n - k]
                     for k in range(n + 1)))
    rational = Fraction((-1) ** ell * a[ell], math.factorial(ell))
    fval = float(rational) * EXP_GAMMA  # finite: Y_200 = 1.69e249 is the largest
    return MomentValue(ell=ell, rational_part=rational, float_value=fval, method="bell-exact")


def y_quadrature(ell: int, table: DickmanTable, tol: float = 1e-10) -> MomentValue:
    """Y_ell as table.integrate of u^ell rho(u) over [0, table.max_u].

    The tail beyond U = table.max_u is bounded by table.tail_bound(U, ell),
    from the superfactorial decay rho(u) <= rho(u-1)/u; raises
    TailNotCertifiedError when that bound does not reach tol (ell too large
    for the table domain).  tol bounds that tail only: the error of the
    table's pieces, weighted by u^ell, is not certified, and u^ell magnifies
    it.
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
    tail = table.tail_bound(u_end, ell)
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
    smooth-sum approximation).  A value beyond float64 raises
    PrecisionUnreachableError.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"kind must be one of {BOUND_KINDS}, got {kind!r}")
    if not math.e < scale < math.inf:
        raise ValueError(f"scale must be finite and exceed e so log log scale > 0, got {scale}")
    loglog = math.log(math.log(scale))
    y_ell = y_exact(ell).float_value
    c = 2.0 ** (ell + 1) * y_ell if kind == "rh-upper" else y_ell
    return float_result(f"the {kind} bound at ell={ell}", lambda: c * loglog ** (ell + 1))
