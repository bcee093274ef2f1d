"""Divisor-set resonator and its resonance ratio.

The resonator support is the divisor set M of P(y, b) = prod_{p <= y}
p^(b-1).  With r the characteristic function of M, the resonance ratio

    (1/|M|) sum_{n in M, k|n} (log k)^ell / k
        = sum_{k in M} (log k)^ell / k * prod_i (b - alpha_i)/b,

where k = prod p_i^alpha_i.  Two evaluators are provided: direct divisor
enumeration (the oracle, feasible while b^w is small) and a factorized
moment method that reaches the regime where |M| = b^w is astronomical.
The ratio equals (-1)^ell G^(ell)(1) for G(s) = prod_p g_p(s),
g_p(s) = sum_{alpha < b} (1 - alpha/b) p^(-alpha s), and that is
G(1) E[(sum_p X_p)^ell] for independent X_p with
P(X_p = alpha log p) = (1 - alpha/b) p^(-alpha) / g_p(1).  The factorized
method forms each prime's moments and folds them into those of the sum by
binomial convolution; every term is non-negative, so nothing cancels and
its error bound is known before it runs.

Parameters derived from a scale T use y = log T / (3 (log log T)^3) and
b = floor((log log T)^3); such T exceed floating-point range long before
y >= 2, so the scale enters as log T only and all bookkeeping works on the
(log T, log_2 T, log_3 T) scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .constants import EXP_GAMMA
from .errors import OutOfRegimeError, ResourceLimitError, float_result
from .moments import y_exact
from .primes import sieve_primes
from .sums import em_tail, log_weights

if TYPE_CHECKING:
    from .dickman import DickmanTable

_DIRECT_BUDGET = 10**7
_FACTORIZED_BUDGET = 10**7  # sum_p (A_p + 1)(ell + 1) alpha terms
_MAX_ELL_FACTORIZED = 60
_MAX_SPEC_Y = 10**8
PRECISION_BITS = 256  # working precision of ratio_factorized


def __getattr__(name: str):
    # `resonator.rho` is `dickman.rho`, read on every access, for
    # perfbench's rebinding pin only; ROADMAP item 1, step A, deletes it
    if name == "rho":
        from . import dickman
        return dickman.rho
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ResonatorSpec:
    """Primes p <= y with multiplicity cap b; the divisor set M of
    prod p^(b-1) is implicit."""

    y: float
    b: int
    primes: tuple
    w: int


def make_spec(y: float, b: int) -> ResonatorSpec:
    """Spec of the primes p <= y.  y above 1e8 raises ResourceLimitError
    before the sieve (y + 1 bytes): such a spec has more than
    pi(1e8) = 5761455 primes, beyond every evaluator's budget
    (ratio_factorized takes w <= 5e6, ratio_direct w <= 23, and
    resonance_quotient y < q <= 1e5)."""
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y}")
    if y < 2:
        raise ValueError(f"y must be >= 2, got {y}")
    if b < 2:
        raise ValueError(f"b must be >= 2, got {b}")
    if y > _MAX_SPEC_Y:
        raise ResourceLimitError(f"y={y} exceeds the prime sieve budget {_MAX_SPEC_Y}")
    primes = tuple(sieve_primes(int(y)))
    return ResonatorSpec(y=float(y), b=int(b), primes=primes, w=len(primes))


def _log_scale(log_T: float) -> float:
    """log T as a float.  An integer beyond float range, inf or nan raises
    OutOfRegimeError: the derived y and b would be inf or nan."""
    try:
        log_T = float(log_T)
    except OverflowError:
        raise OutOfRegimeError("log T is too large for a float") from None
    if not math.isfinite(log_T):
        raise OutOfRegimeError(f"log T = {log_T} is not finite")
    return log_T


def _scale_map(log_T: float) -> tuple[float, float, int]:
    """(log_2 T, y, b) with y = log T/(3 (log_2 T)^3) and b = [(log_2 T)^3].

    Each caller keeps its own regime rule: `spec_from_T` needs y >= 2 and
    b >= 2 (at least one prime, each to the power b - 1 >= 1), while
    `proof_bookkeeping` needs only y > 1 (log y > 0), so it also accepts
    1 < y < 2.  Which of the two the paper's range means is not settled.
    """
    l2 = math.log(log_T)
    return l2, log_T / (3.0 * l2**3), math.floor(l2**3)


def spec_from_T(*, log_T: float) -> ResonatorSpec:
    """Spec with y = log T/(3 (log_2 T)^3), b = [(log_2 T)^3].

    The scale enters as log T only: the derivation enters its regime
    (y >= 2, b >= 2) around log T ~ 3.4e3, i.e. for no float T.  The
    invariant P(y, b) <= sqrt(T), i.e. (b-1) * sum_{p<=y} log p <= (log T)/2,
    is checked on every returned spec.
    """
    log_T = _log_scale(log_T)
    if log_T <= math.e:
        raise OutOfRegimeError(f"log T = {log_T}: iterated logs undefined")
    _, y, b = _scale_map(log_T)
    if y < 2 or b < 2:
        raise OutOfRegimeError(
            f"derived y={y:.6g}, b={b}: below the y >= 2, b >= 2 regime "
            f"(needs log T >~ 3.4e3)"
        )
    spec = make_spec(y, b)
    theta = math.fsum(math.log(p) for p in spec.primes)
    if (b - 1) * theta > log_T / 2.0:
        raise OutOfRegimeError(
            f"P(y,b) > sqrt(T): (b-1)*theta(y) = {(b - 1) * theta:.6g} > log T/2"
        )
    return spec


# ---------------------------------------------------------------------------
# direct enumeration (oracle)

def _divisors(spec: ResonatorSpec, bound: float = math.inf) -> Iterator[tuple]:
    """(k, log k, weight) for every divisor k <= bound of P(y, b), in no
    particular order; weight = prod (b - alpha_i)/b = the exact mean
    multiplicity (1/|M|) #{n in M: k|n}.

    Depth first on an explicit stack, so memory is O(w b) whatever |M|.  A
    node k = ... p_i^alpha_i extends by the primes after p_i; they ascend,
    so the first that takes k past bound ends its extensions.  log k adds
    log p once per factor p, and the weight takes one factor per prime.
    """
    primes, b = spec.primes, spec.b
    logs = [math.log(p) for p in primes]
    stack = [(0, 1, 0.0, 1.0)]
    while stack:
        i, k, lk, wt = stack.pop()
        yield k, lk, wt
        for j in range(i, spec.w):
            p = primes[j]
            if k * p > bound:
                break
            kk, lkk = k, lk
            for alpha in range(1, b):
                kk *= p
                if kk > bound:
                    break
                lkk += logs[j]
                stack.append((j + 1, kk, lkk, wt * (b - alpha) / b))


def ratio_direct(spec: ResonatorSpec, ell: int) -> float:
    """Resonance ratio by full enumeration of the divisor set, summed as it
    is enumerated.  Each term wt (log k)^ell / k is formed as wt (log k
    e^(-log k / ell))^ell, whose power is the term over wt: no power
    overflows unless a term does, and a ratio beyond float64 range raises
    PrecisionUnreachableError."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if spec.w * math.log(spec.b) > math.log(_DIRECT_BUDGET):
        raise ResourceLimitError(
            f"b^w = {spec.b}^{spec.w} exceeds direct enumeration budget {_DIRECT_BUDGET}"
        )
    return float_result(f"the direct resonance ratio at ell={ell}", lambda: math.fsum(
        wt * (lk * math.exp(-lk / ell)) ** ell if ell else wt * math.exp(-lk)
        for _, lk, wt in _divisors(spec)))


def divisors_up_to(spec: ResonatorSpec, bound: float) -> list[int]:
    """Sorted divisors of P(y, b) that are <= bound."""
    out = [k for k, _, _ in itertools.islice(_divisors(spec, bound), _DIRECT_BUDGET + 1)]
    if len(out) > _DIRECT_BUDGET:
        raise ResourceLimitError("divisor enumeration budget exceeded")
    return sorted(out)


# ---------------------------------------------------------------------------
# factorized moment method

def _alpha_cutoffs(spec: ResonatorSpec, ell: int) -> list[int]:
    """A_p for every prime: the last alpha that ratio_factorized keeps.

    A_p is the least alpha > ell with p^-(alpha+1) (b log p)^ell below
    2^-(PRECISION_BITS+20), that is (alpha+1) log p > ell log(b log p) +
    (PRECISION_BITS+20) log 2, capped at b - 1.
    """
    level = (PRECISION_BITS + 20) * math.log(2.0)
    cutoffs = []
    for p in spec.primes:
        lp = math.log(p)
        alpha = math.floor((level + ell * math.log(spec.b * lp)) / lp)
        cutoffs.append(min(spec.b - 1, max(ell + 1, alpha)))
    return cutoffs


def ratio_factorized(spec: ResonatorSpec, ell: int) -> float:
    """Resonance ratio as the moment sum G(1) E[(sum_p X_p)^ell]; the same
    value as ratio_direct, but feasible for astronomically large divisor sets.

    Prime by prime, t_j = sum_{alpha <= A_p} (1 - alpha/b) p^-alpha
    (alpha log p)^j is formed for j <= ell (the alpha sums exactly in
    integers, then one scaling by (log p)^j at PRECISION_BITS), and folded
    into the running sums by m_n <- sum_k C(n, k) m_k t_(n-k).  t_0 = g_p(1)
    and t_j / t_0 = E[X_p^j], so the fold carries G(1) along and m_ell is
    the ratio.  The cutoffs A_p (_alpha_cutoffs) are fixed before any work,
    and sum_p (A_p + 1)(ell + 1) above the budget raises ResourceLimitError.

    Every term is non-negative, so the relative error is bounded a priori:
      * truncation lowers the result, by at most the sum over p of
        4 p (log p)^-ell 2^-(PRECISION_BITS+20);
      * rounding adds at most w (2 ell + 10) 2^-PRECISION_BITS.
    For every spec within the budget both stay below 2^-220, so the float
    returned is the exact ratio rounded to nearest unless the ratio lies
    that close to a rounding boundary.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell > _MAX_ELL_FACTORIZED:
        raise ValueError(f"ell > {_MAX_ELL_FACTORIZED} not supported")
    cutoffs = _alpha_cutoffs(spec, ell)
    units = (sum(cutoffs) + spec.w) * (ell + 1)
    if units > _FACTORIZED_BUDGET:
        raise ResourceLimitError(
            f"sum_p (A_p + 1)(ell + 1) = {units} alpha terms exceeds budget "
            f"{_FACTORIZED_BUDGET}"
        )
    import mpmath

    b = spec.b
    with mpmath.workprec(PRECISION_BITS):
        m = [mpmath.mpf(1)] + [mpmath.mpf(0)] * ell
        for p, top in zip(spec.primes, cutoffs):
            # sums[j] = sum_alpha (b - alpha) alpha^j p^(top - alpha), exactly
            terms = [(b - a) * p ** (top - a) for a in range(1, top + 1)]
            sums = [b * p**top + sum(terms)]
            for j in range(1, ell + 1):
                terms = [t * a for a, t in enumerate(terms, 1)]
                sums.append(sum(terms))
            lp = mpmath.log(p)
            scale = 1 / mpmath.mpf(b * p**top)
            t = [mpmath.mpf(s) * scale * lp**j for j, s in enumerate(sums)]
            m = [mpmath.fsum(math.comb(n, k) * m[k] * t[n - k] for k in range(n + 1))
                 for n in range(ell + 1)]
        return float(m[ell])


# ---------------------------------------------------------------------------
# sums of (log k)^ell / k

_EM_START = 30  # log_power_sum sums k < 30 directly


def log_power_sum(ell: int, y: float) -> float:
    """sum_{k <= y} (log k)^ell / k.

    Below y = 30 a direct sum.  Beyond, the direct sum over k < 30 plus
    Euler-Maclaurin for f(u) = (log u)^ell / u over 30 <= k <= n = floor(y):
    the integral ((log n)^(ell+1) - (log 30)^(ell+1))/(ell+1), and
    `sums.em_tail`'s half-terms and Bernoulli corrections at both ends, all
    formed from log 30 and log n.  The work is O(ell) whatever y, and the
    result agrees with an fsum of the terms to 1e-14 relative for ell <= 200
    and y <= 2e6 (tests/test_resonator.py).  At giant y the absolute error
    is the rounding of (log n)^(ell+1)/(ell+1), about 1e-16 of it, which can
    exceed the constant term (the Stieltjes constant gamma_ell).

    A non-finite y raises ValueError, and a sum beyond float64 range raises
    PrecisionUnreachableError.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y}")
    what = f"sum of (log k)^{ell}/k to y"
    n = math.floor(y)
    if n < _EM_START:
        return float_result(what, lambda: math.fsum(log_weights(np.arange(1, n + 1), ell)))
    log_n, log_start = np.log(np.longdouble(n)), np.log(np.longdouble(_EM_START))
    with np.errstate(over="ignore", invalid="ignore"):  # a sum beyond float64 is caught below
        _, half_start, corr_start, _ = em_tail(ell, 1.0, log_start)
        _, half_n, corr_n, _ = em_tail(ell, 1.0, log_n)
        integral = (log_n ** (ell + 1) - log_start ** (ell + 1)) / (ell + 1)

    def total() -> float:
        parts = [*log_weights(np.arange(1, _EM_START), ell), float(integral),
                 half_start.real, half_n.real,
                 *(-c.real for c in corr_start), *(c.real for c in corr_n)]
        return math.fsum(parts) if all(map(math.isfinite, parts)) else math.inf

    return float_result(what, total)


# ---------------------------------------------------------------------------
# proof bookkeeping on the log scale

@dataclass(frozen=True)
class BookkeepingResult:
    ell: int
    log_T: float
    log2_T: float
    log3_T: float
    y: float
    b: int
    u_R: float
    S1: float
    S2: float
    K2_bound: float
    predicted: float
    # bookkeeping of the low-multiplicity restriction: divisors whose total
    # exponent stays below the cap keep mean multiplicity >= the floor
    k1_exponent_cap: float
    k1_inner_floor: float


def proof_bookkeeping(ell: int, table: DickmanTable, *, log_T: float) -> BookkeepingResult:
    """The S1/S2/K2 decomposition of the resonance-ratio lower bound,
    evaluated on the logarithmic scale: the scale enters as log T only.

    S1 = sum_{k <= y} (log k)^ell / k.  S2 is the partial-summation integral
    with the smooth-count replaced by its Dickman model x*rho(log x/log y):

        S2 = (log R)^ell rho(u_R) - (log y)^ell
             - ell (log y)^ell     int_1^{u_R} u^(ell-1) rho du
             + (log y)^(ell+1)     int_1^{u_R} u^ell     rho du,

    with R = exp(log_2 T * log_3 T), u_R = log R / log y; both integrals
    are table.integrate calls, so u_R beyond table.max_u raises
    OutOfDomainError rather than truncating them.  K2_bound is the
    Rankin-trick estimate for the discarded high-multiplicity divisors with
    the Mertens constant made explicit:

        K2_bound = e^(2 gamma) (log_2 T)^(ell-1) (log_3 T)^(ell+1),

    and predicted = Y_ell (log_2 T)^(ell+1) is the target the two sums chase.
    Any of S1, S2, K2_bound and predicted beyond float64 raises
    PrecisionUnreachableError.
    """
    from . import dickman

    y_ell = y_exact(ell).float_value  # rejects ell < 0 and ell > 200 before any sum
    log_T = _log_scale(log_T)
    if log_T < math.exp(math.e):
        raise OutOfRegimeError(f"need log T >= e^e, got {log_T}")
    l2, y, b = _scale_map(log_T)
    l3 = math.log(l2)
    if y <= 1.0:
        raise OutOfRegimeError(
            f"derived y = {y:.6g} <= 1 (log T = {log_T:.6g}; the formulas need "
            f"log T >~ 1e3)"
        )
    log_y = math.log(y)
    log_R = l2 * l3
    u_R = log_R / log_y

    at = f" at ell={ell}, log T={log_T:.6g}"
    s1 = log_power_sum(ell, y)
    i_ell = table.integrate(lambda us: us**ell, 1.0, u_R)
    i_low = table.integrate(lambda us: us ** (ell - 1), 1.0, u_R) if ell > 0 else 0.0
    s2 = float_result("S2" + at, lambda: log_R**ell * dickman.rho(u_R, table) - log_y**ell
                      + log_y ** (ell + 1) * i_ell - ell * log_y**ell * i_low)
    k2 = float_result("K2_bound" + at, lambda: EXP_GAMMA**2 * l2 ** (ell - 1) * l3 ** (ell + 1))
    predicted = float_result("predicted" + at,
                             lambda: y_ell * l2 ** (ell + 1))
    return BookkeepingResult(
        ell=ell, log_T=log_T, log2_T=l2, log3_T=l3, y=y, b=b, u_R=u_R,
        S1=s1, S2=s2, K2_bound=k2, predicted=predicted,
        k1_exponent_cap=l2**3 / l3, k1_inner_floor=1.0 - 2.0 / l3,
    )
