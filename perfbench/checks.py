"""Comparison of program outputs against checked-in expected values.

Integers, strings, booleans and nulls must match exactly.  A float matches
when |got - expected| <= atol + rtol * |expected|, with FLOAT_RTOL = 1e-9 and
FLOAT_ATOL = 1e-12 unless FIELD_TOL names the field.

Why these tolerances: the expected values come from the same code path, so
a correct program differs from them only by floating-point reassociation
(numpy's SIMD pairwise sums, libm last-ulp differences) between machines,
about 1e-15 relative per operation.  The largest amplification in the
checked requests is a cancelling compensated sum of <= 1e7 unit terms,
which keeps the error near 1e-12 of the result, and the library's own
certified tolerances (rho tables 1e-12, Laplace quadrature 1e-10,
Euler-Maclaurin 1e-8) and the test suite's cross-route tolerances (1e-8 to
1e-12) are all at or above 1e-9.  So 1e-9 relative leaves three orders of
margin for platform noise while any algorithmic change that moves a value
by a part per billion is caught.  The 1e-12 absolute floor covers values
that are zero up to rounding, such as the imaginary part of a real
character sum (observed ~1e-16).
"""

from __future__ import annotations

import math

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12

# field -> (rtol, atol)
FIELD_TOL = {
    # |lhs - rhs| of the Laplace identity is a cancellation at ~1e-13; both
    # sides are certified to 1e-10 (criterion 3 accepts 1e-9)
    "abs_diff": (0.0, 1e-9),
}


def float_close(got: float, want: float, rtol: float = FLOAT_RTOL,
                atol: float = FLOAT_ATOL) -> bool:
    if math.isinf(want) or math.isnan(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= atol + rtol * abs(want)


def compare(want, got, path: str = "") -> list[str]:
    """Mismatches between an expected and an actual JSON value."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if (type(got) is type(want) and got == want) else [
            f"{path}: expected {want!r}, got {got!r}"]
    if isinstance(want, int):
        return [] if (isinstance(got, int) and not isinstance(got, bool) and got == want) \
            else [f"{path}: expected integer {want}, got {got!r}"]
    if isinstance(want, float):
        field = path.rsplit(".", 1)[-1]
        rtol, atol = FIELD_TOL.get(field, (FLOAT_RTOL, FLOAT_ATOL))
        if isinstance(got, (int, float)) and not isinstance(got, bool) \
                and float_close(float(got), want, rtol, atol):
            return []
        return [f"{path}: expected {want!r}, got {got!r}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of {len(want)}, got {got!r}"]
        out = []
        for i, (w, g) in enumerate(zip(want, got)):
            out += compare(w, g, f"{path}[{i}]")
        return out
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: expected keys {sorted(want)}, got {got!r}"]
        out = []
        for key in want:
            out += compare(want[key], got[key], f"{path}.{key}")
        return out
    raise TypeError(f"unexpected expected value at {path}: {want!r}")
