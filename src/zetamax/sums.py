"""Phase reduction, unit phases and compensated chunked summation, the
kernels of every Dirichlet-type sum in the package (zeta^(ell),
L^(ell)(1, chi), Psi(x, y; f)).

`chunks` cuts a summation range into blocks of CHUNK = 2^16 integers, the
caller turns each block into an array of terms and sums it, and
`compensated_sum` combines the block sums.  At that size a complex128
temporary of a block takes 1 MB and a clongdouble one (the Euler-Maclaurin
main term) 2 MB, so a sum holds a few MB however long it is; at 2^20 each
took 16-32 MB.  Long sums of unit-modulus complex terms (up to 1e8 of them)
lose digits under naive accumulation; the Neumaier variant of the two-sum
error-free transformation keeps the running error O(1) ulp.

`ordered_map` evaluates the blocks of a long sum two at a time on a shared
two-worker thread pool (numpy releases the GIL inside its loops) and hands
the results back in block order, so the combination, and with it every
bit of every result, is the same as in a serial pass.  `split_map` keeps
one block in flight and runs the two halves of its elementwise work at
once, the upper on the same pool, for sums whose blocks are too large to
hold two of (the Euler-Maclaurin main term, longdouble).  A sum of fewer
than two full blocks, or any sum in a process allowed one CPU, runs
inline; the pool is made when a sum draws its second full block, so only
a process that draws one imports concurrent.futures.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from typing import Callable, Iterable, Iterator

import numpy as np

CHUNK = 1 << 16

# 2*pi to longdouble precision; reducing phases mod the float64 constant
# would leak (wrap count) * 2.4e-16 of phase error.
TWO_PI_LD = np.longdouble("6.28318530717958647692528676655900576839433879875")

# Absolute phase above which t*log(n) is reduced mod 2*pi in extended
# precision (float64 argument-reduction error would dominate otherwise).
PHASE_EXTENDED_THRESHOLD = 1e8


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Error-free transformation: a + b = s + e exactly."""
    s = a + b
    bp = s - a
    e = (a - (s - bp)) + (b - bp)
    return s, e


class NeumaierSum:
    """Running compensated sum of floats."""

    __slots__ = ("_s", "_c")

    def __init__(self, value: float = 0.0):
        self._s = float(value)
        self._c = 0.0

    def add(self, x: float) -> None:
        s, e = two_sum(self._s, x)
        self._s = s
        self._c += e

    @property
    def value(self) -> float:
        return self._s + self._c


def chunks(first: int, last: int) -> Iterator[np.ndarray]:
    """first..last as ascending int64 blocks of CHUNK integers (the last may
    be shorter)."""
    for lo in range(first, last + 1, CHUNK):
        yield np.arange(lo, min(lo + CHUNK, last + 1), dtype=np.int64)


def compensated_sum(block_sums: Iterable, start: complex = 0j) -> complex:
    """start + every value in `block_sums` (each the numpy sum of one block),
    combined in order with compensation."""
    re, im = NeumaierSum(), NeumaierSum()
    for z in itertools.chain([start], map(complex, block_sums)):
        re.add(z.real)
        im.add(z.imag)
    return complex(re.value, im.value)


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


def _after_second_full(blocks: Iterable, size: Callable) -> Iterator:
    """(block, pool) for every block: pool is None until the second full
    block (`size` at least CHUNK) is drawn, and _executor() from that block
    on.  The pool is made when that block is drawn, so a sum of fewer full
    blocks never imports concurrent.futures."""
    full, pool = 0, None
    for block in blocks:
        if full < 2 and size(block) >= CHUNK:
            full += 1
            if full == 2:
                pool = _executor()
        yield block, pool


def ordered_map(fn: Callable, blocks: Iterable, size: Callable = len) -> Iterator:
    """fn(block) for every block, yielded in block order.

    Blocks run inline until a second full block (`size` counts a block's
    terms, full meaning at least CHUNK) is drawn; that block and the rest
    run on the shared pool with at most two in flight: block k + 1 is drawn
    and submitted before the result of block k is handed back.  A sum with
    fewer full blocks (every sum over sieve-thinned blocks among them), or
    any sum in a process on one CPU, is a plain map(fn, blocks).  The blocks
    are drawn in the calling thread; fn must only run numpy code, read
    arrays that nothing writes while it runs, and not call ordered_map (a
    worker would wait on its own pool).
    """
    pending = deque()
    try:
        for block, pool in _after_second_full(blocks, size):
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


def split_map(fn: Callable, blocks: Iterable) -> Iterator:
    """fn(block, run) for every block, yielded in block order, one block at
    a time.

    fn makes its block's output arrays and calls run(fill, n), where
    fill(lo, hi) computes entries lo..hi-1 of them by elementwise numpy
    operations; fn then reduces the arrays.  The bits do not depend on the
    split only if fill's operations give the same bits on any range, which
    holds for the longdouble fills of the Euler-Maclaurin main term but not
    for every numpy operation: numpy multiplies a one-element complex array
    in place by a scalar path that can differ from its vector loop in the
    last bit.  run calls fill(0, n) wherever `ordered_map` would run the
    block inline; from the second full block on, where the pool is made, it
    submits the upper half to the shared pool and runs the lower half in the
    calling thread.  A block therefore holds the memory
    of a serial pass, where `ordered_map` holds two blocks'.  fill has the
    same limits as ordered_map's fn.
    """
    for block, pool in _after_second_full(blocks, len):
        def run(fill: Callable, n: int) -> None:
            if pool is None:
                return fill(0, n)
            upper = pool.submit(fill, n // 2, n)
            try:
                fill(0, n // 2)
            finally:
                upper.exception()  # wait for the upper half whatever the lower did
            upper.result()

        yield fn(block, run)


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
