"""Truncated Dirichlet-series evaluation of zeta derivatives on and right of
the 1-line, an independent Euler-Maclaurin reference, and window scans.

The pointwise evaluator and the scan sum through one kernel,
`_truncated_rows`: tiles of about CHUNK terms (a block of n against a block
of rows of t) on the shared block pool, each block of n's coefficients
(log n)^ell / n^sigma formed once for its tiles by `sums.log_weights`, the
kernel the L^(ell) sums share, and each row's block sums added in block order
by `sums.compensated_sum`.  So a grid modulus is the modulus of the
pointwise value at that t, bit for bit, and memory is a few tiles and the
block sums of CHUNK rows (about 1 MB) whatever N.  The
scan keeps the modulus at every grid point, and its CSV stream is written
from that same array.

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
and M^(-s) with its phase reduced mod 2 pi in longdouble.  The main term
forms its own coefficients in longdouble, apart from `sums.log_weights`,
since it is the independent route.  It is summed over `sums.chunks` blocks
of half the usual length, two at a time (`sums.ordered_map`, on the shared
block pool), and combined in block order by `sums.compensated_sum`, so
memory is O(CHUNK) whatever the cutoff.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .constants import LEMMA_WINDOW_FACTOR
from .errors import PrecisionUnreachableError, ResourceLimitError, float_result
from . import sums
from .sums import (EM_BERNOULLI_TERMS, TWO_PI_LD, check_terms, chunks, compensated_sum, em_tail,
                   log_weights, ordered_map, spans, unit_powers)

_SCAN_BUDGET = 2 * 10**9  # grid_size * N term evaluations
# scan_max keeps one float64 modulus per grid point (80 MB at this size)
_MAX_SCAN_GRID = 10**7

_MIN_SIGMA = 0.6


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
    """(ell!/eps^ell) N^(-sigma+eps), formed through its logarithm, so a
    large ell costs no exact factorial."""
    eps = _epsilon_for(N)
    return float_result(f"the truncation error estimate at ell={ell}", lambda: math.exp(
        math.lgamma(ell + 1) - ell * math.log(eps) + (eps - sigma) * math.log(N)))


def check_truncated_args(ell: int, sigma: float, t: float, N: int) -> None:
    """ValueError unless `zeta_derivative_truncated` accepts (ell, sigma, t, N),
    and ResourceLimitError for N above 1e8 terms; no work, so a caller can
    check before starting other work."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if not _MIN_SIGMA <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= {_MIN_SIGMA}, got {sigma}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if sigma == 1.0 and t == 0.0:
        raise ValueError("(sigma, t) = (1, 0) is the pole")
    check_terms(N)


def _truncated_rows(ell: int, sigma: float, ts: np.ndarray, N: int):
    """(first_row, values) for consecutive blocks of CHUNK rows of ts:
    values[i] is sum_{n <= N} (log n)^ell / n^(sigma + i t) at t = ts[first_row + i].

    A tile is one `spans(2, N)` block of terms against ceil(CHUNK / min(N -
    1, CHUNK)) rows, so it holds about CHUNK terms.  Each block of rows
    walks the blocks of terms in order and forms a block's coefficients
    once for all its tiles; the tiles run on one `ordered_map` stream.  A
    row adds its block sums in block order to the n = 1 term by
    `sums.compensated_sum` on arrays, so a t gets the same bits alone or on
    a grid.  A tile copies its rows when drawn, and a block of rows is
    yielded after all its tiles are drawn, so the caller may overwrite
    those rows of ts.  A block with a row that float64 cannot hold raises
    PrecisionUnreachableError.
    """
    height = -(-sums.CHUNK // min(N - 1, sums.CHUNK))

    def tile_sums(tile):
        rows, ns, coeff = tile
        vals = unit_powers(ns, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            vals *= log_weights(ns, ell, sigma) if coeff is None else coeff
            return vals.sum(axis=1)

    def tiles():
        for lo, hi in spans(0, ts.size - 1):
            for ns in chunks(2, N):
                # formed once for the block's tiles; the one tile of a
                # pointwise sum forms its own, on the pool
                coeff = log_weights(ns, ell, sigma) if hi - lo > height else None
                for a, b in spans(lo, hi - 1, height):
                    yield ts[a:b, None].copy(), ns, coeff

    results = ordered_map(tile_sums, tiles(), lambda tile: tile[0].size * tile[1].size)
    for lo, hi in spans(0, ts.size - 1):
        block_sums = np.empty((-(-(N - 1) // sums.CHUNK), hi - lo), dtype=complex)
        for block in block_sums:
            for a, b in spans(0, hi - lo - 1, height):
                block[a:b] = next(results)
        start = np.full(hi - lo, 1.0 if ell == 0 else 0.0, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            values = compensated_sum(block_sums, start)
        if not np.isfinite(values).all():
            raise PrecisionUnreachableError(f"the sum at ell={ell}, N={N} exceeds float64 range")
        yield lo, values


def zeta_derivative_truncated(ell: int, sigma: float, t: float, N: int) -> EvalResult:
    """sum_{n <= N} (log n)^ell / n^(sigma + i t), compensated and chunked:
    `_truncated_rows` on the one row t, as `scan_max` sums each grid point.
    N above 1e8 raises ResourceLimitError before any work, and a sum or
    error estimate beyond float64 range PrecisionUnreachableError.

    The attached error_estimate (ell!/eps^ell) N^(-sigma+eps) is meaningful
    inside the window t in [N, 6.28 N]; outside it the sum is exploratory.
    """
    check_truncated_args(ell, sigma, t, N)
    (_, values), = _truncated_rows(ell, sigma, np.array([float(t)]), N)
    return EvalResult(
        value=complex(values[0]), sigma=float(sigma), t=float(t), ell=int(ell),
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

    Summed in longdouble over `chunks` blocks of ceil(CHUNK / 2) terms, two
    at a time (`sums.ordered_map`): a clongdouble term takes the bytes of
    two complex128 ones, so a block counts its terms twice and the shared
    block pool takes over from the second block.  Memory stays at a few
    block-length arrays whatever M.  The block magnitudes are added in
    block order, and after each it raises PrecisionUnreachableError
    once the rounding floor of cutoff M on the magnitude so far exceeds tol:
    the final error estimate is at least that floor, and every later block
    only raises it.
    """
    sigma, t = s.real, s.imag

    def block(ns: np.ndarray) -> tuple:
        """(sum of the block's terms, float sum of their magnitudes)."""
        logs = ns.astype(np.longdouble)
        np.log(logs, out=logs)
        if t != 0.0:
            # the phases w = t log n mod 2 pi go into the imaginary part of
            # the terms as -w, with real part +0: the bits of (-1) 1j w
            z = np.empty(ns.size, dtype=np.clongdouble)
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
        mag = np.sum(coeff.astype(np.float64))  # coeff > 0
        if t == 0.0:
            return mag, float(mag)
        # z * coeff part by part: the complex product's bits (coeff is real;
        # at most a zero part could differ in sign), without its cast of
        # coeff to a complex buffer
        np.multiply(z.real, coeff, out=z.real)
        np.multiply(z.imag, coeff, out=z.imag)
        return np.sum(z), float(mag)

    mag = 0.0
    length = -(-sums.CHUNK // 2)  # ceil, so at least 1 term

    def block_sums():
        nonlocal mag
        for value, block_mag in ordered_map(block, chunks(2, M - 1, length),
                                            lambda ns: 2 * ns.size):
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
    """Grid argmax of |truncated value| at sigma = 1 over t = t_lo,
    t_lo+step, ..; deterministic tie-break toward the smallest t.  `moduli`
    holds the modulus at every grid point, in grid order: np.abs of
    `zeta_derivative_truncated` at that t, bit for bit, since both sum
    through `_truncated_rows`.

    Work is grid_size * N term evaluations; more than 2e9 of them, a grid of
    more than 1e7 points, or N above 1e8 raises ResourceLimitError before
    any work is done or memory allocated; a grid point whose sum float64
    cannot hold raises PrecisionUnreachableError.  Memory is `moduli`
    (which holds the grid's t until its rows are summed), a few tiles of
    about CHUNK terms and the block sums of CHUNK rows, whatever N: at most
    about 1 MB, since blocks of terms times rows is at most 2e9 / CHUNK +
    2e9 / N when N - 1 > CHUNK.
    """
    if not all(map(math.isfinite, (t_lo, t_hi, step))):
        raise ValueError(f"t_lo, t_hi and step must be finite, got {t_lo}, {t_hi}, {step}")
    if not 0 < t_lo <= t_hi:
        raise ValueError(f"need 0 < t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    if not step > 0:
        raise ValueError("step must be positive")
    check_truncated_args(ell, 1.0, t_lo, N)

    span = (t_hi - t_lo) / step  # inf when it overflows, hence the min
    grid_size = int(math.floor(min(span, _MAX_SCAN_GRID) + 1e-9)) + 1
    if grid_size > _MAX_SCAN_GRID:
        raise ResourceLimitError(f"grid of {span:.6g} steps exceeds {_MAX_SCAN_GRID} points")
    if grid_size * N > _SCAN_BUDGET:
        raise ResourceLimitError(
            f"grid_size*N = {grid_size}*{N} exceeds budget {_SCAN_BUDGET}"
        )

    # the grid's t, with the bits of t_lo + step * np.arange(grid_size); each
    # block of rows takes its moduli once summed
    moduli = np.arange(grid_size, dtype=np.float64)
    moduli *= step
    moduli += t_lo
    for lo, values in _truncated_rows(ell, 1.0, moduli, N):
        moduli[lo : lo + values.size] = np.abs(values)
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
    for lo, hi in spans(0, result.grid_size - 1):
        rows = result.moduli[lo:hi].tolist()
        out.write("".join(f"{t_lo + step * i!r},{m!r}\n" for i, m in enumerate(rows, lo)))


def scan_to_csv(ell: int, t_lo: float, t_hi: float, step: float, N: int) -> str:
    """CSV stream `t,modulus` of scan_max over the same grid, as one string."""
    out = io.StringIO()
    scan_result_to_csv(scan_max(ell, t_lo, t_hi, step, N), out)
    return out.getvalue()
