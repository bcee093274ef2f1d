"""Phase reduction, unit phases and compensated chunked summation, the
kernels of every Dirichlet-type sum in the package (zeta^(ell),
L^(ell)(1, chi), Psi(x, y; f)).

`chunks` cuts a summation range into blocks of CHUNK = 2^16 integers, the
caller turns each block into an array of terms, and `compensated_sum`
combines the block sums.  At that size a complex128 temporary of a block
takes 1 MB and a clongdouble one (the Euler-Maclaurin main term) 2 MB, so a
sum holds a few MB however long it is; at 2^20 each took 16-32 MB.  Long
sums of unit-modulus complex terms (up to 1e8 of them) lose digits under
naive accumulation; the Neumaier variant of the two-sum error-free
transformation keeps the running error O(1) ulp, and the fixed block order
makes results bit-reproducible.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

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


def compensated_sum(parts: Iterable[np.ndarray], start: complex = 0j) -> complex:
    """start + the sum of every array in `parts`: each array is summed by
    numpy, and the array sums are combined in order with compensation."""
    re, im = NeumaierSum(), NeumaierSum()
    for z in itertools.chain([start], (complex(np.sum(p)) for p in parts)):
        re.add(z.real)
        im.add(z.imag)
    return complex(re.value, im.value)


def cis(theta: np.ndarray) -> np.ndarray:
    """e^(i theta) through real cos and sin: no complex temporary, and about
    twice as fast as a complex exp."""
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


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
