"""Phase reduction, unit phases and compensated chunked summation, the
kernels of every Dirichlet-type sum in the package (zeta^(ell),
L^(ell)(1, chi), Psi(x, y; f)).

`spans` cuts a range into the bounds of blocks of CHUNK = 2^16 integers,
and every block walk of the package goes through it: the sums, the sieve
segments, the scan's row blocks and the CSV writers.  `chunks` hands its
blocks over as int64 arrays; the caller turns each block into an array of
terms and sums it, and `compensated_sum` combines the block sums (numbers,
or arrays of them with one entry per row of a scan).  At that
size a complex128 temporary of a block takes 1 MB, and so does a
clongdouble one of the Euler-Maclaurin main term, whose blocks hold
CHUNK / 2 integers, so a sum holds a few MB however long it is; at 2^20
each took 16-32 MB.  Long sums of unit-modulus complex terms (up to
MAX_TERMS = 1e8 of them, the package's budget, which `check_terms`
enforces) lose digits under naive accumulation; the Neumaier variant of
the two-sum error-free transformation keeps the running error O(1) ulp.

`ordered_map` evaluates the blocks of a long sum two at a time on a shared
two-worker thread pool (numpy releases the GIL inside its loops) and hands
the results back in block order, so the combination, and with it every
bit of every result, is the same as in a serial pass.  The half-length
blocks of the Euler-Maclaurin main term, whose clongdouble terms take
twice the bytes of complex128 ones, count as full, so its two blocks in
flight hold what one block of CHUNK of its terms would.  A sum of fewer
than two full blocks, or any sum in a process allowed one CPU, runs
inline; the pool is made when a sum draws its second full block, so only
a process that draws one imports concurrent.futures.

`log_weights` forms the coefficients (log n)^ell / n^sigma of one block,
the one float64 coefficient kernel of the zeta^(ell) and L^(ell) sums;
their callers apply the sign (-1)^ell, if at all, to the finished sum.

`em_tail` gives the Euler-Maclaurin terms at a cutoff for the sums of
(log n)^ell n^(-s): the zeta reference and `resonator.log_power_sum` take
their Bernoulli corrections from it.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections import deque
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError

CHUNK = 1 << 16

# terms of one sum: the budget of the truncated zeta^(ell) and L^(ell) sums
# and of the full twisted sum
MAX_TERMS = 10**8

# 2*pi to longdouble precision; reducing phases mod the float64 constant
# would leak (wrap count) * 2.4e-16 of phase error.
TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900576839433879875")

# Bernoulli corrections that em_tail's callers add; em_tail also gives the next one
EM_BERNOULLI_TERMS = 12

# Absolute phase above which t*log(n) is reduced mod 2*pi in extended
# precision (float64 argument-reduction error would dominate otherwise).
PHASE_EXTENDED_THRESHOLD = 1e8


def two_sum(a, b):
    """Error-free transformation: a + b = s + e exactly, for floats, and
    part by part for complex numbers and numpy arrays."""
    s = a + b
    bp = s - a
    e = (a - (s - bp)) + (b - bp)
    return s, e


class NeumaierSum:
    """Running compensated sum of floats, complex numbers or numpy arrays of
    them, part by part and entry by entry."""

    __slots__ = ("_s", "_c")

    def __init__(self, value=0.0):
        self._s = value
        self._c = 0.0

    def add(self, x) -> None:
        s, e = two_sum(self._s, x)
        self._s = s
        self._c += e

    @property
    def value(self) -> float:
        return self._s + self._c


def check_terms(N) -> None:
    """ValueError unless N is an integer >= 2, and ResourceLimitError for N
    beyond MAX_TERMS: the term count of a truncated sum over n <= N."""
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")
    if N > MAX_TERMS:
        raise ResourceLimitError(f"N = {N} exceeds {MAX_TERMS} terms")


def spans(first: int, last: int, length: int | None = None) -> Iterator[tuple[int, int]]:
    """The half-open bounds (lo, hi) that cut first..last into ascending
    blocks of `length` integers, CHUNK as it reads when the blocks are
    drawn by default (the last may be shorter)."""
    step = CHUNK if length is None else length
    for lo in range(first, last + 1, step):
        yield lo, min(lo + step, last + 1)


def chunks(first: int, last: int, length: int | None = None) -> Iterator[np.ndarray]:
    """The blocks of `spans` as int64 arrays."""
    for lo, hi in spans(first, last, length):
        yield np.arange(lo, hi, dtype=np.int64)


def compensated_sum(block_sums: Iterable, start=0j):
    """start + every value in `block_sums`, combined in order with
    compensation.  The values are numbers (each the numpy sum of one block,
    taken as a complex) or complex128 arrays (an entry per row, with
    `start` an array too): the steps are the same part by part, so an entry
    of an array gets the bits it would get alone."""
    total = NeumaierSum(start)
    for z in block_sums:
        total.add(z if isinstance(z, np.ndarray) else complex(z))
    return total.value


_pool: list = [None]  # the shared two-worker executor, made when a sum first needs it
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor():
    """The shared two-worker thread pool, or None when this process may run
    on one CPU only.  concurrent.futures is imported on first use."""
    if _cpu_count() < 2:
        return None
    with _pool_lock:  # callers that arrive together make one pool
        if _pool[0] is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool[0] = ThreadPoolExecutor(max_workers=2, thread_name_prefix="zetamax-sums")
    return _pool[0]


def ordered_map(fn: Callable, blocks: Iterable, size: Callable = len) -> Iterator:
    """fn(block) for every block, yielded in block order.

    Blocks run inline until a second full block (`size` counts a block's
    terms, a clongdouble term as two, full meaning at least CHUNK) is
    drawn, when the pool is made; that block and the rest run on the
    shared pool with at most two in flight: block k + 1 is drawn and
    submitted before the result of block k is handed back.  A sum with
    fewer full blocks (every sum over sieve-thinned blocks among them), or
    any sum in a process on one CPU, is a plain map(fn, blocks).  The blocks
    are drawn in the calling thread; fn must only run numpy code, read
    arrays that nothing writes while it runs, and not call ordered_map (a
    worker would wait on its own pool).
    """
    pending, full, pool = deque(), 0, None
    try:
        for block in blocks:
            if full < 2 and size(block) >= CHUNK:
                full += 1
                if full == 2:
                    pool = _executor()
            if pool is None:  # nothing is pending before the pool is used
                yield fn(block)
                continue
            pending.append(pool.submit(fn, block))
            if len(pending) == 2:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # a caller that stops early leaves blocks behind: cancel those not
        # started and wait for the others, so no block outlives the sum
        for future in pending:
            if not future.cancel():
                future.exception()


def cis(theta: np.ndarray) -> np.ndarray:
    """e^(i theta) through real cos and sin: no complex temporary, and about
    twice as fast as a complex exp."""
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def unit_powers(ns: np.ndarray, t) -> np.ndarray:
    """n^(-i t) = cis(-phases(ns, t)), with the phases negated in place (one
    temporary fewer per block)."""
    theta = phases(ns, t)
    np.negative(theta, out=theta)
    return cis(theta)


def log_weights(ns: np.ndarray, ell: int, sigma: float = 1.0) -> np.ndarray:
    """(log n)^ell / n^sigma for one block of positive integers ns, in float64.

    1 / n^sigma at ell = 0, with no log taken; otherwise (log n)^ell is
    formed in place in one array and divided by n (by np.power(ns, sigma)
    when sigma != 1).  A coefficient beyond float64 range reads inf or nan,
    which its sum then carries."""
    with np.errstate(over="ignore", invalid="ignore"):
        denominator = ns if sigma == 1.0 else np.power(ns, float(sigma))
        if ell == 0:
            return 1.0 / denominator
        w = ns.astype(np.float64)
        np.log(w, out=w)
        w **= ell
        w /= denominator
        return w


def phases(ns: np.ndarray, t) -> np.ndarray:
    """t * log n for an ascending array of positive integers ns.

    `t` is a scalar or a column of values (shape (k, 1)), giving one row of
    phases per value.  A row with |t| log(max ns) above
    PHASE_EXTENDED_THRESHOLD is computed in longdouble and reduced mod 2*pi;
    the decision is made per row, so a row's phases do not depend on which
    other values of t share the call.
    """
    logs = np.log(ns.astype(np.float64))
    extended = np.abs(t) * logs.max(initial=0.0) > PHASE_EXTENDED_THRESHOLD
    if not np.any(extended):
        return t * logs
    t_ld = np.asarray(t, dtype=np.longdouble)
    reduced = ((t_ld * np.log(ns.astype(np.longdouble))) % TWO_PI_LD).astype(np.float64)
    return np.where(extended, reduced, t * logs)


@functools.cache
def _bernoulli_coefficients() -> list[float]:
    """B_2j/(2j)! for j = 1 .. EM_BERNOULLI_TERMS + 1, each an exact
    fraction (B_2j by Akiyama-Tanigawa) rounded once.  Made on first use,
    so a process that sums no Euler-Maclaurin tail imports no fractions."""
    from fractions import Fraction

    top = 2 * EM_BERNOULLI_TERMS + 2
    a = [Fraction(0)] * (top + 1)
    out = []
    for m in range(top + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        if m >= 2 and m % 2 == 0:
            out.append(float(a[0] / math.factorial(m)))
    return out


def em_tail(ell: int, s: complex, log_m) -> tuple[complex, complex, list[complex], complex]:
    """(M^(-s), f(M)/2, corrections, next) for f(u) = (log u)^ell u^(-s) at
    the cutoff M = e^log_m > 1: corrections[j - 1] = B_2j/(2j)! f^(2j-1)(M)
    for j = 1 .. EM_BERNOULLI_TERMS, and next the same for the first j left
    out.

    log_m is a float or a longdouble, so M need not be a float.  M^(-s) is
    formed in longdouble with its phase t log M reduced mod 2 pi, as the
    reference's main term forms n^(-s), and M^(1-2j) in longdouble too;
    each is rounded once.  The derivatives are f^(k)(u) = u^(-s-k)
    P_k(log u), with P_0 = L^ell and P_(k+1) = -(s+k) P_k + P_k'.  Each P_k
    is carried as [P_k(L), P_k'(L), .., P_k^(m)(L)] / L^ell at L = log M,
    so a step is one pass over m + 1 numbers and no polynomial is
    evaluated; L^ell M^(-s) (longdouble) multiplies the terms at the end,
    so no intermediate leaves float range before the terms do.  A step
    moves each entry's error down one entry, so with m = min(ell, 2
    EM_BERNOULLI_TERMS + 1) the dropped P_k^(m+1) never reaches P_k(L) in
    the 2 EM_BERNOULLI_TERMS + 1 steps taken, and the work is O(1) in ell.
    """
    L = np.longdouble(log_m)
    phase = np.longdouble(s.imag) * L % TWO_PI_LD
    m_pow = np.exp(-(np.longdouble(s.real) * L + 1j * phase))
    scale = complex(L ** ell * m_pow)  # L^ell M^(-s)
    # M^(1-2j) for j = 1 .. EM_BERNOULLI_TERMS + 1
    m_odd = np.exp(-np.arange(1, 2 * EM_BERNOULLI_TERMS + 2, 2) * L).astype(np.float64)
    lf = float(L)
    d = [math.perm(ell, i) / lf ** i for i in range(min(ell, 2 * EM_BERNOULLI_TERMS + 1) + 1)]
    derivs = []  # M^k f^(k)(M) / (L^ell M^(-s)) for k = 1 .. 2 EM_BERNOULLI_TERMS + 1
    for k in range(2 * EM_BERNOULLI_TERMS + 1):
        c = -(s + k)
        d = [c * a + b for a, b in zip(d, d[1:])] + [c * d[-1]]
        derivs.append(d[0])
    terms = [b * r * p * scale for b, r, p in zip(_bernoulli_coefficients(), m_odd, derivs[::2])]
    return complex(m_pow), scale / 2, terms[:-1], terms[-1]
