"""Truncated Dirichlet-series evaluation of zeta derivatives on and right of
the 1-line, an independent Euler-Maclaurin reference, and window scans.

The pointwise evaluator and the scan share the coefficients (log n)^ell
n^(-sigma) and the phase kernel `sums.phases`; the scan keeps the modulus at
every grid point, and its CSV stream is written from that same array.

Sign convention: both evaluators return the signed quantity

    value  =  (-1)^ell zeta^(ell)(sigma + i t)  ~  sum_{n<=N} (log n)^ell n^(-sigma-it),

i.e. the plain truncated sum is the value itself; `zeta_derivative` unwraps
to zeta^(ell).  The truncation error envelope mirrors the unconditional
approximation (ell!/eps^ell) N^(-sigma+eps); it is a statement about the
window t in [N, 6.28 N] and eps is pinned to 1/log log N, which balances
ell!/eps^ell against N^eps for ell <= 6 at reachable sizes.

The reference evaluator applies Euler-Maclaurin to the sum itself, to
f(u) = (log u)^ell u^(-s): the integral beyond the cutoff M is
M^(1-s) sum_i ell!/(ell-i)! (log M)^(ell-i) / (s-1)^(i+1), and f(M)/2 and
the Bernoulli corrections B_2j/(2j)! f^(2j-1)(M) come from `sums.em_tail`,
which forms the derivatives of f by a recursion on polynomials in log M,
and M^(-s) with its phase reduced mod 2 pi in longdouble.  The main term is
summed in longdouble over `sums.chunks` blocks, the two halves of a block
at once (`sums.split_map`, the upper on the shared block pool), and
combined in block order by `sums.compensated_sum`, so memory is O(CHUNK)
whatever the cutoff.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .constants import LEMMA_WINDOW_FACTOR
from .errors import PrecisionUnreachableError, ResourceLimitError
from .sums import (EM_BERNOULLI_TERMS, TWO_PI_LD, chunks, compensated_sum, em_tail, ordered_map,
                   split_map, unit_powers)

_SCAN_BUDGET = 2 * 10**9  # grid_size * N term evaluations
# scan_max keeps one float64 modulus per grid point (80 MB at this size)
_MAX_SCAN_GRID = 10**7
# ns, the coefficients and each of the two row blocks in flight are O(N)
# arrays: a scan at this N and t = 1e7 (longdouble phases) peaks at 930 MB RSS
_MAX_SCAN_N = 10**7

_MIN_SIGMA = 0.6

# Terms per scan_max row block; not sums.CHUNK, as 2^16 slows a fresh-process scan ~20%.
_SCAN_BLOCK_TERMS = 1 << 20
_CSV_BLOCK = 1 << 16  # rows per write of scan_result_to_csv


@dataclass(frozen=True)
class EvalResult:
    value: complex      # (-1)^ell zeta^(ell)(sigma + i t), see module docstring
    sigma: float
    t: float
    ell: int
    truncation: int     # N (truncated) or the Euler-Maclaurin cutoff M
    error_estimate: float


@dataclass(frozen=True)
class ScanResult:
    t_star: float
    value_modulus: float
    grid_size: int
    ell: int
    N: int
    t_lo: float
    t_hi: float
    step: float
    in_paper_regime: bool
    moduli: np.ndarray  # modulus at t_lo + step * i, i = 0 .. grid_size-1


def zeta_derivative(result: EvalResult) -> complex:
    """Unwrap the sign convention: zeta^(ell) = (-1)^ell * value."""
    return (-1) ** result.ell * result.value


def in_lemma_window(t: float, N: int) -> bool:
    return N <= abs(t) <= LEMMA_WINDOW_FACTOR * N


def _epsilon_for(N: int) -> float:
    return 1.0 / math.log(math.log(max(N, 16)))


def truncation_error_estimate(ell: int, sigma: float, N: int) -> float:
    eps = _epsilon_for(N)
    return math.factorial(ell) / eps**ell * N ** (-sigma + eps)


def _coefficients(ns: np.ndarray, ell: int, sigma: float) -> np.ndarray:
    """(log n)^ell n^(-sigma), shared by the pointwise evaluator and the scan."""
    # in place, in the order of logs**ell * exp(-sigma logs)
    logs = ns.astype(np.float64)
    np.log(logs, out=logs)
    coeff = -sigma * logs
    np.exp(coeff, out=coeff)
    logs **= ell
    coeff *= logs
    return coeff


def check_truncated_args(ell: int, sigma: float, t: float, N: int) -> None:
    """ValueError unless `zeta_derivative_truncated` accepts (ell, sigma, t, N);
    no work, so a caller can check before starting other work."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if not _MIN_SIGMA <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= {_MIN_SIGMA}, got {sigma}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")
    if sigma == 1.0 and t == 0.0:
        raise ValueError("(sigma, t) = (1, 0) is the pole")


def zeta_derivative_truncated(ell: int, sigma: float, t: float, N: int) -> EvalResult:
    """sum_{n <= N} (log n)^ell / n^(sigma + i t), compensated and chunked.

    The attached error_estimate (ell!/eps^ell) N^(-sigma+eps) is meaningful
    inside the window t in [N, 6.28 N]; outside it the sum is exploratory.
    """
    check_truncated_args(ell, sigma, t, N)

    def block_sum(ns):
        coeff = _coefficients(ns, ell, sigma)
        if t == 0.0:
            return np.sum(coeff)
        vals = unit_powers(ns, t)
        vals *= coeff
        return np.sum(vals)

    n1_term = 1.0 if ell == 0 else 0.0
    value = compensated_sum(ordered_map(block_sum, chunks(2, N)), n1_term)
    return EvalResult(
        value=value, sigma=float(sigma), t=float(t), ell=int(ell),
        truncation=int(N), error_estimate=truncation_error_estimate(ell, sigma, N),
    )


# ---------------------------------------------------------------------------
# Euler-Maclaurin reference

def _rounding_floor(t: float, M: int, mag: float) -> float:
    """Rounding floor of the reference at cutoff M and magnitude sum mag:
    float64 block sums plus longdouble phases (~1e-19 relative argument
    error).  Non-decreasing in M and in mag."""
    return 4e-16 * mag + abs(t) * math.log(M) * 2e-19 * mag


def _main_term(ell: int, s: complex, M: int, tol: float) -> tuple[complex, float]:
    """(sum_{2<=n<M} (log n)^ell n^(-s), sum_{2<=n<M} (log n)^ell n^(-sigma)):
    the main term without the sign (-1)^ell and the n = 1 term, and its
    magnitude sum.

    Summed over `chunks` blocks in longdouble, one block at a time with the
    two halves of its terms computed at once (`sums.split_map`): from the
    second full block on, the upper half runs on the shared block pool,
    which is made when that block is drawn.  Memory stays at a few
    block-length arrays whatever M.  The block magnitudes are added in
    block order, and after each it raises PrecisionUnreachableError
    once the rounding floor of cutoff M on the magnitude so far exceeds tol:
    the final error estimate is at least that floor, and every later block
    only raises it.
    """
    sigma, t = s.real, s.imag

    def block(ns: np.ndarray, run) -> tuple:
        """(sum of the block's terms, sum of their magnitudes)."""
        mags = np.empty(ns.size)  # float64, coeff > 0
        terms = None if t == 0.0 else np.empty(ns.size, dtype=np.clongdouble)

        def fill(lo: int, hi: int) -> None:
            # a range holds its logs and coeff; its phases w = t log n mod
            # 2 pi go into the imaginary part of its terms as -w, with real
            # part +0: the bits of (-1) 1j w
            logs = ns[lo:hi].astype(np.longdouble)
            np.log(logs, out=logs)
            z = None if terms is None else terms[lo:hi]
            if z is not None:
                w = z.imag
                np.multiply(np.longdouble(t), logs, out=w)
                np.remainder(w, TWO_PI_LD, out=w)
                np.negative(w, out=w)
                z.real = 0.0
                np.exp(z, out=z)
            coeff = -sigma * logs
            np.exp(coeff, out=coeff)
            if ell:
                logs **= ell
                coeff *= logs
            del logs
            mags[lo:hi] = coeff
            if z is not None:
                # z * coeff part by part: the complex product's bits (coeff
                # is real; at most a zero part could differ in sign),
                # without its cast of coeff to a complex buffer
                np.multiply(z.real, coeff, out=z.real)
                np.multiply(z.imag, coeff, out=z.imag)

        run(fill, ns.size)
        mag = np.sum(mags)
        return (mag if terms is None else np.sum(terms)), float(mag)

    mag = 0.0

    def block_sums():
        nonlocal mag
        for value, block_mag in split_map(block, chunks(2, M - 1)):
            mag += block_mag
            floor = _rounding_floor(t, M, mag + 1.0)
            if floor > tol:
                raise PrecisionUnreachableError(
                    f"Euler-Maclaurin cannot reach tol={tol} at (ell={ell}, "
                    f"sigma={sigma}, t={t}): rounding floor {floor:.3g} at cutoff M={M}"
                )
            yield value

    value = compensated_sum(block_sums())
    return value, mag


def _remainder_band(s: complex, nxt: complex) -> float:
    """Bound on the Euler-Maclaurin remainder after EM_BERNOULLI_TERMS
    corrections, from the next correction nxt (`sums.em_tail`'s last)."""
    return 2.0 * abs(nxt) * (abs(s) + 2 * EM_BERNOULLI_TERMS + 3) / (
        s.real + 2 * EM_BERNOULLI_TERMS + 1
    )


def _em_cutoff(s: complex) -> int:
    """The Euler-Maclaurin cutoff M = max(ceil(2|s|), 50)."""
    return max(int(math.ceil(2 * abs(s))), 50)


def _em_zeta_derivative(ell: int, s: complex, M: int,
                        tol: float = math.inf) -> tuple[complex, float, float]:
    """((-1)^ell zeta^(ell)(s), the module's sign, by Euler-Maclaurin at
    cutoff M; remainder band; magnitude sum for the rounding floor).  The
    main term fails fast on tol."""
    main, mag = _main_term(ell, s, M, tol)
    m_pow, half, corrections, nxt = em_tail(ell, s, np.log(np.longdouble(M)))
    L = math.log(M)
    # int_M^inf (log u)^ell u^(-s) du = M^(1-s) sum_i ell!/(ell-i)! L^(ell-i) / (s-1)^(i+1)
    m1_pow = M * m_pow
    tail = [math.perm(ell, i) * L ** (ell - i) / (s - 1) ** (i + 1) * m1_pow
            for i in range(ell + 1)]
    tail += [half, *(-c for c in corrections)]
    value = compensated_sum(tail, main + (1.0 if ell == 0 else 0.0))  # n = 1
    # every tail term's modulus, so that the floor counts the terms'
    # rounding, which exceeds their sum's near the pole
    mag += 1.0 + sum(map(abs, tail))
    return value, _remainder_band(s, nxt), mag


def zeta_derivative_reference(ell: int, sigma: float, t: float, tol: float = 1e-10) -> EvalResult:
    """Independent Euler-Maclaurin oracle for (-1)^ell zeta^(ell)(sigma+it).

    One pass at cutoff M = max(2|s|, 50), at most 2e8 + 2 over the argument
    range.  There the remainder band is below 1e-6 of the rounding floor
    (4e-16 + |t| log M 2e-19) * magnitude sum (tests/test_zeta.py sweeps the
    range), so a larger M cannot lower the error estimate by shrinking the
    band.  The magnitude sum adds the modulus of every main-term and tail
    term, each term of the integral beyond M apart.  The main term streams
    over `sums.chunks` blocks.

    Raises PrecisionUnreachableError when band plus floor exceeds tol, and
    as soon as the floor on the magnitude summed so far does, mid-pass if
    need be: that floor only grows.
    """
    if not 0.6 <= sigma <= 4.0:
        raise ValueError(f"sigma must lie in [0.6, 4], got {sigma}")
    if not abs(t) <= 1e8:
        raise ValueError(f"|t| must be <= 1e8, got {t}")
    if not 0 <= ell <= 6:
        raise ValueError(f"ell must lie in 0..6, got {ell}")
    if sigma == 1.0 and t == 0.0:
        raise ValueError("(sigma, t) = (1, 0) is the pole")
    if not tol > 0:
        raise ValueError("tol must be positive")

    s = complex(sigma, t)
    M = _em_cutoff(s)
    value, band, mag = _em_zeta_derivative(ell, s, M, tol)
    err = band + _rounding_floor(t, M, mag)
    if err > tol:
        raise PrecisionUnreachableError(
            f"Euler-Maclaurin cannot reach tol={tol} at (ell={ell}, sigma={sigma}, t={t}): "
            f"error estimate {err:.3g} at cutoff M={M}"
        )
    return EvalResult(value=value, sigma=sigma, t=t, ell=ell,
                      truncation=M, error_estimate=err)


# ---------------------------------------------------------------------------
# window scans

def scan_max(
    ell: int,
    t_lo: float,
    t_hi: float,
    step: float,
    N: int,
) -> ScanResult:
    """Grid argmax of |truncated value| over t = t_lo, t_lo+step, ..;
    deterministic tie-break toward the smallest t.  `moduli` holds the
    modulus at every grid point, in grid order.

    Work is grid_size * N term evaluations; more than 2e9 of them, a grid of
    more than 1e7 points, or N above 1e7 raises ResourceLimitError before
    any work is done or memory allocated.
    """
    if not all(map(math.isfinite, (t_lo, t_hi, step))):
        raise ValueError(f"t_lo, t_hi and step must be finite, got {t_lo}, {t_hi}, {step}")
    if not 0 < t_lo <= t_hi:
        raise ValueError(f"need 0 < t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    if not step > 0:
        raise ValueError("step must be positive")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if N < 2:
        raise ValueError("N must be >= 2")

    span = (t_hi - t_lo) / step  # inf when it overflows, hence the min
    grid_size = int(math.floor(min(span, _MAX_SCAN_GRID) + 1e-9)) + 1
    if grid_size > _MAX_SCAN_GRID:
        raise ResourceLimitError(f"grid of {span:.6g} steps exceeds {_MAX_SCAN_GRID} points")
    if N > _MAX_SCAN_N:
        raise ResourceLimitError(f"N = {N} exceeds {_MAX_SCAN_N} terms")
    if grid_size * N > _SCAN_BUDGET:
        raise ResourceLimitError(
            f"grid_size*N = {grid_size}*{N} exceeds budget {_SCAN_BUDGET}"
        )

    ns = np.arange(2, N + 1, dtype=np.int64)
    coeff = _coefficients(ns, ell, 1.0)
    base = 1.0 if ell == 0 else 0.0  # n = 1 term
    t_block = max(1, min(grid_size, _SCAN_BLOCK_TERMS // len(ns) + 1))
    starts = range(0, grid_size, t_block)

    def row_moduli(ts):
        # in place, so each of the two row blocks in flight holds at most the
        # phases and one complex array
        vals = unit_powers(ns, ts[:, None])
        vals *= coeff
        return np.abs(vals.sum(axis=1) + base)

    row_blocks = (t_lo + step * np.arange(lo, min(lo + t_block, grid_size)) for lo in starts)
    moduli = np.empty(grid_size)
    for lo, block in zip(starts, ordered_map(row_moduli, row_blocks,
                                             lambda ts: ts.size * ns.size)):
        moduli[lo : lo + block.size] = block
    i = int(np.argmax(moduli))  # first occurrence = smallest t
    return ScanResult(
        t_star=float(t_lo + step * i), value_modulus=float(moduli[i]), grid_size=grid_size,
        ell=ell, N=int(N), t_lo=float(t_lo), t_hi=float(t_hi), step=float(step),
        in_paper_regime=in_lemma_window(t_lo, N) and in_lemma_window(t_hi, N),
        moduli=moduli,
    )


def scan_result_to_csv(result: ScanResult, out) -> None:
    """Write the CSV `t,modulus` over the scan grid, from the scan's moduli,
    to the text stream `out`, one block of rows at a time, so no string of
    the whole grid is ever built."""
    out.write("t,modulus\n")
    t_lo, step = result.t_lo, result.step
    for lo in range(0, result.grid_size, _CSV_BLOCK):
        rows = result.moduli[lo : lo + _CSV_BLOCK].tolist()
        out.write("".join(f"{t_lo + step * i!r},{m!r}\n" for i, m in enumerate(rows, lo)))


def scan_to_csv(ell: int, t_lo: float, t_hi: float, step: float, N: int) -> str:
    """CSV stream `t,modulus` of scan_max over the same grid, as one string."""
    out = io.StringIO()
    scan_result_to_csv(scan_max(ell, t_lo, t_hi, step, N), out)
    return out.getvalue()
