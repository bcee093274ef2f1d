"""The Dickman function rho(u), its Laplace transform, and the de Bruijn
main-term asymptotic.

rho is the continuous solution of  u*rho'(u) + rho(u-1) = 0  with rho = 1 on
[0, 1].  The builder does not step that delay ODE directly (step error is
amplified multiplicatively); it uses the equivalent self-stabilizing integral
form

    u * rho(u) = integral_{u-1}^{u} rho(t) dt,

solved interval by interval on [k, k+1] over a Chebyshev interpolant.  The
equation is linear in the interpolant's node values, and its operator (the
nodes, the Vandermonde matrix and the integration matrix its inverse sets
up) is the same on every interval, so it is formed once per degree.  Each
interval is then one linear solve for its node values, and a second solve
against the Vandermonde matrix turns them into coefficients.
Because rho has a derivative kink at u = 1 (and progressively weaker kinks
at the larger integers), intervals are aligned to integer breakpoints so no
interpolant spans a kink.

DickmanTable.integrate evaluates every Gauss-Legendre panel of a range in one
Clenshaw pass over the zero-padded coefficient stack, with one weight call,
and combines the per-panel row sums by one fsum.

Error certification: if e_k is the absolute error of interpolant k and r_k
the residual of the integral identity on interval k, the identity
u e(u) = int_{u-1}^k e_{k-1} + int_k^u e_k + r_k(u), read at the u* in
[k, k+1] where |e_k| peaks, gives u* ||e_k|| <= (k+1-u*) ||e_{k-1}|| +
(u*-k) ||e_k|| + ||r_k||, so ||e_k|| <= (||e_{k-1}|| + ||r_k||)/k for every
k >= 1 (e_0 is the first piece's distance from rho = 1, 0 for the exact
piece): errors are contracted rather than amplified.  A DickmanTable
derives that chain from its own pieces when it is made, built or loaded:
sup |r_k| is bounded by the absolute Chebyshev coefficients of r_k, formed
exactly from the stored floats (each an integer over a power of two), and
every link is rounded up to a float.
DickmanTable.tail_bound uses the rigorous consequence rho(u) <= rho(u-1)/u of
the integral form: the table value at U certifies all of int_U^infty u^ell rho
by a geometric series.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import legendre as L

from .constants import EULER_GAMMA
from .errors import OutOfDomainError, PrecisionUnreachableError, TailNotCertifiedError

DEFAULT_DEGREE = 16
_MAX_DEGREE = 40
_GL_NODES, _GL_WEIGHTS = L.leggauss(32)


@dataclass(frozen=True)
class DickmanTable:
    """Piecewise-Chebyshev representation of rho on [0, max_u].

    intervals[k] holds the Chebyshev coefficients of rho on [k, k+1] in the
    local variable x = 2*(u - k) - 1.  The table certifies itself from those
    pieces: interval_tols[k] bounds the absolute error on interval k alone
    (superfactorially decaying; tail certification at the domain end relies
    on it), from the exact residual of each piece and the chain in the
    module docstring, every link rounded up; tol, their maximum (at least
    1e-16), bounds the whole representation.  A built and a loaded table
    get them the same way, and neither a caller nor a file can set them.
    coeff_stack[:, k] is intervals[k] zero-padded at the high end to the
    longest piece; the padding leaves Clenshaw's recurrence unchanged.
    Immutable (coeff_stack is a read-only array); evaluations are pure and
    safe to share across workers.
    """

    max_u: float
    degree: int
    intervals: tuple
    tol: float = field(init=False)
    interval_tols: tuple = field(init=False)
    coeff_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stack = np.zeros((max(map(len, self.intervals)), len(self.intervals)))
        for k, coeffs in enumerate(self.intervals):
            stack[:len(coeffs), k] = coeffs
        stack.flags.writeable = False
        object.__setattr__(self, "coeff_stack", stack)
        (first,), den = _as_integers([self.intervals[0]], len(self.intervals[0]))
        tols = [_round_up(abs(first[0] - den) + sum(map(abs, first[1:])), den)]  # rho = 1
        for k in range(1, len(self.intervals)):
            (p, q), (r, s) = (tols[-1].as_integer_ratio(),
                              _residual_bound(k, *self.intervals[k - 1:k + 1]).as_integer_ratio())
            tols.append(_round_up(p * s + r * q, q * s * k))
        object.__setattr__(self, "interval_tols", tuple(tols))
        object.__setattr__(self, "tol", max(*tols, 1e-16))

    def tail_bound(self, from_u: float, ell: int = 0) -> float:
        """Certified bound on int_U^infty u^ell rho(u) du, U = from_u.

        rho(u) <= rho(u-1)/u gives rho(U+j) <= rho(U)/(U+1)^j, and
        (U+j+1)^ell <= (U+1)^ell e^(ell j/(U+1)), so the unit pieces from U
        on are dominated by a geometric series of ratio e^(ell/(U+1))/(U+1)
        whose first term is (U+1)^ell times rho(U) plus its interval's
        certified error.  inf for U < 2 or a ratio that is not below 1.
        """
        ratio = math.exp(ell / (from_u + 1.0)) / (from_u + 1.0) if from_u >= 2.0 else math.inf
        if not ratio < 1.0:
            return math.inf
        k = min(int(math.floor(from_u)), len(self.intervals) - 1)
        top = rho(from_u, self) + self.interval_tols[k]
        return (from_u + 1.0) ** ell * top / (1.0 - ratio)

    def integrate(self, weight, a: float, b: float, panels: int = 1) -> float:
        """int_a^b weight(u) rho(u) du for 0 <= a <= b <= max_u.

        weight maps an array of u to an array of the same shape.  Each unit
        interval [k, k+1] that [a, b] meets is cut into `panels` equal panels,
        an int >= 1, each integrated by 32-node Gauss-Legendre against the
        interval's Chebyshev piece.  b may exceed max_u by the same 1e-12
        slack rho allows.

        Every panel's nodes form one row of a 2-D array: one Clenshaw pass
        over the zero-padded coefficient stack evaluates all the pieces at
        once, and weight is called once.  Each row's weighted sum is that
        panel's integral, and one math.fsum combines the per-panel row sums.
        """
        if not (isinstance(panels, int) and panels >= 1):
            raise ValueError(f"panels must be an int >= 1, got {panels!r}")
        if not 0.0 <= a <= b <= self.max_u * (1 + 1e-12) + 1e-12:
            raise OutOfDomainError(
                f"integration range [{a}, {b}] outside table domain [0, {self.max_u}]"
            )
        b = min(b, self.max_u)
        ks = np.arange(math.floor(a), math.ceil(b))
        lo, hi = np.maximum(a, ks), np.minimum(b, ks + 1)
        ks, lo, hi = ks[hi > lo], lo[hi > lo], hi[hi > lo]
        edges = np.empty((len(ks), panels + 1))
        edges[:, :-1] = lo[:, None] + (hi - lo)[:, None] * np.arange(panels) / panels
        edges[:, -1] = hi
        pa, pb = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        mid, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
        us = mid[:, None] + half[:, None] * _GL_NODES  # one row per (interval, panel)
        k = np.repeat(ks, panels)[:, None]
        vals = C.chebval(2.0 * (us - k) - 1.0, self.coeff_stack[:, k], tensor=False) * weight(us)
        vals *= _GL_WEIGHTS
        return math.fsum(half * vals.sum(axis=1))


def _as_integers(pieces, n: int, factor: int = 1) -> tuple[list, int]:
    """The pieces' coefficients times one scale, as ints zero-padded to n
    terms, and that scale: factor times the largest of their denominators,
    which are all powers of two."""
    ratios = [[float(c).as_integer_ratio() for c in piece] for piece in pieces]
    scale = factor * max(q for piece in ratios for _, q in piece)
    return [[p * (scale // q) for p, q in piece] + [0] * (n - len(piece))
            for piece in ratios], scale


def _round_up(num: int, den: int) -> float:
    """The least float >= num/den, for num >= 0 and den > 0."""
    x = num / den  # int / int is correctly rounded
    p, q = x.as_integer_ratio()
    return x if p * den >= num * q else math.nextafter(x, math.inf)


def _residual_bound(k: int, prev, cur) -> float:
    """Upper bound on sup |r_k| over interval k, where r_k(x) = u p_k(x) -
    [P_{k-1}(1) - P_{k-1}(x)] - [P_k(x) - P_k(-1)] for the pieces p and
    their antiderivatives P in u.

    The bound is the sum of |coefficients| of r_k's Chebyshev series,
    formed exactly: scaled by 4 lcm(1..n) times the largest denominator,
    every coefficient is an int, and so is every step of x T_j = (T_{j+1} +
    T_{j-1})/2 and of chebint's recurrence.  The sum is rounded up once.
    """
    n = max(len(prev), len(cur))
    (a, b), scale = _as_integers([prev, cur], n + 1, 4 * math.lcm(*range(1, n + 1)))

    def antiderivative(c):  # in u, up to a constant: half of chebint's recurrence
        out = [0, c[0] // 2] + [c[j - 1] // (4 * j) for j in range(2, n + 1)]
        for j in range(2, n):
            out[j - 1] -= c[j] // (4 * (j - 1))
        return out

    pa, pb = antiderivative(a), antiderivative(b)
    # (k + 1/2) p_k + (1/2) x p_k + P_{k-1} - P_k - P_{k-1}(1) + P_k(-1)
    r = [(2 * k + 1) * bj // 2 + x - y for bj, x, y in zip(b, pa, pb)]
    r[0] += sum(pb[::2]) - sum(pb[1::2]) - sum(pa)
    r[1] += b[0] // 2  # x T_0 = T_1
    for j in range(1, n):
        r[j - 1] += b[j] // 4
        r[j + 1] += b[j] // 4
    return _round_up(sum(map(abs, r)), scale)


def build_rho_table(max_u: float, tol: float) -> DickmanTable:
    """Build a certified table of rho on [0, max_u].

    max_u in [1, 1e3]; tol in [1e-14, inf).  Construction is sequential
    (interval k depends on k-1); the returned table is immutable.  The
    pieces are built at degree 16, then 24, 32 and 40, until the table's
    own certificate reaches tol.
    """
    if not (max_u >= 1.0) or max_u > 1e3:
        raise ValueError(f"max_u must lie in [1, 1e3], got {max_u}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if tol < 1e-14:
        raise ValueError(f"tol below the certifiable floor 1e-14: {tol}")

    for degree in range(DEFAULT_DEGREE, _MAX_DEGREE + 1, 8):
        m = degree + 1
        xs = np.sort(np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m)))  # first-kind nodes
        vander = C.chebvander(xs, degree)
        # K maps node values to int_k^{u_i} of their interpolant; scl = 1/2
        # turns d/dx into d/du on a unit interval
        K = C.chebvander(xs, m) - C.chebvander(-1.0, m)
        K = K @ C.chebint(np.linalg.inv(vander), scl=0.5)
        intervals = [np.array([1.0])]  # rho = 1 on [0, 1]
        for k in range(1, math.ceil(max_u)):
            # u rho(u) = A(u) + int_k^u rho at the nodes u = k + 1/2 + x/2, with
            # A(u) = int_{u-1}^k rho_{k-1}: u - 1 has the same local coordinate
            # in interval k - 1 as u has in interval k, so A evaluates from the
            # previous antiderivative at the node coordinates directly
            prev = C.chebint(intervals[-1], scl=0.5)
            a_vals = C.chebval(1.0, prev) - C.chebval(xs, prev)
            node_vals = np.linalg.solve(np.diag(k + 0.5 + 0.5 * xs) - K, a_vals)
            intervals.append(np.linalg.solve(vander, node_vals))
        table = DickmanTable(float(max_u), degree, tuple(intervals))
        if table.tol <= tol:
            return table
    raise PrecisionUnreachableError(f"cannot certify tol={tol} at degree <= {_MAX_DEGREE}")


def rho(u: float, table: DickmanTable) -> float:
    """Table value of rho(u); exact 1.0 on [0, 1], in (0, 1] elsewhere."""
    if not u >= 0:  # NaN too
        raise ValueError(f"u must be >= 0, got {u}")
    if u > table.max_u * (1 + 1e-12) + 1e-12:
        raise OutOfDomainError(f"u={u} beyond table domain [0, {table.max_u}]")
    if u <= 1.0:
        return 1.0
    k = min(int(math.floor(u)), len(table.intervals) - 1)
    x = 2.0 * (u - k) - 1.0
    x = min(1.0, max(-1.0, x))
    return float(C.chebval(x, table.intervals[k]))


def log_rho_asymptotic_main(u: float) -> float:
    """Main term of the de Bruijn asymptotic: -u*(log u + log log(u+2) - 1)."""
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    return -u * (math.log(u) + math.log(math.log(u + 2.0)) - 1.0)


def laplace_lhs(s: float, table: DickmanTable, tol: float) -> float:
    """int_0^infty rho(u) e^{-u s} du by table.integrate plus a certified
    truncation bound.

    The integral stops at the first integer k >= 3 where the bound on
    int_k^infty rho(u) e^{-us} du falls below tol/4 (at max_u if none
    does), with ceil(s/4) panels per unit interval.  Raises TailNotCertifiedError when
    the table domain cannot push the tail below tol.
    """
    if not 0 <= s < math.inf:
        raise ValueError(f"s must be finite and >= 0, got {s}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    u_end = table.max_u
    tail = table.tail_bound(u_end) * math.exp(-s * u_end)
    if not (tail < tol / 2):
        raise TailNotCertifiedError(
            f"tail bound {tail:.3e} at U={u_end} exceeds tol/2={tol / 2:.3e}"
        )

    stop = next(
        (k for k in range(3, math.floor(u_end) + 1)
         if table.tail_bound(float(k)) * math.exp(-s * k) < tol / 4),
        u_end,
    )
    panels = max(1, math.ceil(s / 4.0))
    return table.integrate(lambda us: np.exp(-s * us), 0.0, stop, panels)


def _ein_series_float(s: float) -> float:
    # Ein(s) = sum_{m>=1} (-1)^{m-1} s^m / (m * m!), fine in float64 for small s.
    total = []
    term = 1.0
    for m in range(1, 200):
        term *= s / m  # s^m / m!
        contrib = term / m
        total.append(contrib if m % 2 == 1 else -contrib)
        if m > s and contrib < 1e-20:
            break
    return math.fsum(total)


def _e1_continued_fraction(s: float) -> float:
    # E1(s) = e^-s / (s+1 - 1/(s+3 - 4/(s+5 - 9/(s+7 - ...)))) by the
    # modified Lentz method, c starting at infinity for its 1/tiny.  For
    # s > 8 every denominator stays above 1 and delta reaches exactly 1.0
    # within 19 steps.
    b = s + 1.0
    c = math.inf
    d = 1.0 / b
    h = d
    for i in range(1, 100):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 1e-17:
            break
    return h * math.exp(-s)


def laplace_rhs(s: float, tol: float = 1e-12) -> float:
    """Closed form exp(gamma + int_0^s (e^{-z}-1)/z dz) = exp(gamma - Ein(s)).

    For s <= 8, the everywhere-convergent series Ein(s) = sum_{m>=1}
    (-1)^{m-1} s^m/(m*m!) in float64.  Its terms alternate and grow to
    ~e^s/s^{3/2}, so cancellation outgrows float64 beyond; there
    Ein(s) = gamma + log s + E1(s) gives exp(-E1(s))/s with no cancellation,
    and E1 comes from its continued fraction.

    The value is that float64 closed form whatever `tol` is: `tol` is
    validated but read by no branch, and a caller's quadrature tolerance
    applies to the left side (`laplace_lhs`) only.
    """
    if not 0 <= s <= 100:
        raise ValueError(f"s must lie in [0, 100], got {s}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if s == 0.0:
        return math.exp(EULER_GAMMA)
    if s <= 8.0:
        return math.exp(EULER_GAMMA - _ein_series_float(s))
    return math.exp(-_e1_continued_fraction(s)) / s


def save_table(table: DickmanTable, path: str) -> None:
    """Versioned textual dump; round-trips exactly (floats via repr)."""
    doc = {
        "format": "dickman-rho-table",
        "schema_version": 1,
        "max_u": table.max_u,
        "degree": table.degree,
        "intervals": [
            {"k": k, "coeffs": [float(c) for c in coeffs]}
            for k, coeffs in enumerate(table.intervals)
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def load_table(path: str) -> DickmanTable:
    """Table written by save_table.  A file with a missing, mistyped or
    inconsistent entry, or a degree above the builder's 40, raises
    ValueError.  The table certifies itself from
    its pieces, so a "tol" or "interval_tols" entry, as files written before
    they were derived carry, is ignored."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    try:
        if doc.get("format") != "dickman-rho-table" or doc.get("schema_version") != 1:
            raise ValueError(f"unrecognized table file {path!r}")
        max_u = float(doc["max_u"])
        if not 1.0 <= max_u <= 1e3:
            raise ValueError(f"table file max_u must lie in [1, 1e3], got {max_u}")
        n = math.ceil(max_u)
        if len(doc["intervals"]) != n:
            raise ValueError(f"table file needs {n} intervals for max_u={max_u}")
        degree = int(doc["degree"])
        if not 0 <= degree <= _MAX_DEGREE:  # the certificate's cost grows as degree^2
            raise ValueError(f"table file degree must lie in 0..{_MAX_DEGREE}, got {degree}")
        intervals = [None] * n
        for item in doc["intervals"]:
            k = item["k"]
            if not (isinstance(k, int) and 0 <= k < n) or intervals[k] is not None:
                raise ValueError(f"table file interval k={k!r} is out of range or repeated")
            coeffs = np.array(item["coeffs"], dtype=float)
            if not (coeffs.ndim == 1 and 0 < len(coeffs) <= degree + 1
                    and np.isfinite(coeffs).all()):
                raise ValueError(f"table file interval k={k} needs a flat list of 1 to "
                                 f"degree + 1 = {degree + 1} finite coefficients")
            intervals[k] = coeffs
        return DickmanTable(max_u, degree, tuple(intervals))
    except (AttributeError, KeyError, OverflowError, TypeError) as e:
        raise ValueError(f"malformed table file {path!r}: {type(e).__name__}: {e}") from None
