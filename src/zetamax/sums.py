"""Compensated accumulation helpers.

Long sums of unit-modulus complex terms (up to 1e8 of them) lose digits under
naive accumulation; the accumulators here use the Neumaier variant of the
two-sum error-free transformation so the running error stays O(1) ulp.
"""

from __future__ import annotations


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


class ComplexNeumaierSum:
    """Compensated sum of complex terms (real/imag parts tracked separately)."""

    __slots__ = ("_re", "_im")

    def __init__(self):
        self._re = NeumaierSum()
        self._im = NeumaierSum()

    def add(self, z: complex) -> None:
        self._re.add(z.real)
        self._im.add(z.imag)

    @property
    def value(self) -> complex:
        return complex(self._re.value, self._im.value)

