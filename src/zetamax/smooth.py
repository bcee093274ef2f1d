"""Smooth-number counting and twisted sums.

Psi(x, y) counts integers n <= x whose largest prime factor P+(n) is at most
y; Psi(x, y; f) is the f-weighted version.  One helper, `_enumerated`,
chooses the route for both: when pi(y) <= 20 and the smooth numbers fit the
node budget it returns them, built level by level in numpy, one prime
<= y at a time (any x); otherwise the caller scans the largest-prime-factor
sieve, which covers x <= 1e8.  The route test sieves the primes only up to
73, the 21st prime, so a large y costs nothing before the sieve's own
budget check.

Every twisted sum is a compensated sum of f over blocks of integers
(`sums.compensated_sum`), so 1e8-term unit-modulus sums keep ~1 ulp
accumulation error and results are bit-reproducible.  Within the sieve
range the enumeration route sorts its numbers and cuts them at the sieve
route's block boundaries, so both routes sum identical arrays and agree
bit for bit.

The module-level sieve cache is built single-owner and read-only
afterwards; all sum operations are pure given their inputs.  Long sums
evaluate two blocks at a time (`sums.ordered_map`): the blocks are drawn,
and the sieve read, in the calling thread, and the block sums are combined
in block order, so the bits do not depend on the threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .dickman import DickmanTable, build_rho_table, log_rho_asymptotic_main, rho
from .dirichlet import CharacterTable
from .errors import ResourceLimitError
from .primes import sieve_primes
from .sums import CHUNK, chunks, compensated_sum, ordered_map, unit_powers

_SIEVE_LIMIT = 10**8
_FULL_SUM_LIMIT = 10**8
_ENUM_PRIME_BOUND = 20  # the enumeration engages when pi(y) <= 20
_ENUM_Y_CAP = 73  # the 21st prime: pi(min(y, 73)) <= 20 exactly when pi(y) <= 20
_ENUM_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class Trivial:
    """f(n) = 1."""


@dataclass(frozen=True)
class Character:
    """f(n) = chi_j(n) for row j of a character table (j = 0 allowed:
    the principal character acts as the coprime-to-q filter)."""

    table: CharacterTable
    j: int

    def __post_init__(self):
        if not 0 <= self.j <= self.table.order - 1:
            raise ValueError(f"character index {self.j} out of range for q={self.table.q}")


@dataclass(frozen=True)
class Unimodular:
    """f(n) = n^{-it}."""

    t: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")


TwistSpec = Union[Trivial, Character, Unimodular]


@dataclass(frozen=True)
class SmoothCountResult:
    x: float
    y: float
    exact_count: int
    dickman_approx: float
    u: float
    relative_error: float


@dataclass(frozen=True)
class ProfileRecord:
    y: float
    discrepancy: float
    psi_xy: int
    ratio: float


# ---------------------------------------------------------------------------
# largest-prime-factor sieve

_spf_cache: dict = {"limit": 0, "table": None}


def spf_sieve(limit: int) -> np.ndarray:
    """Array a with a[n] = P+(n) for 2 <= n <= limit; a[1] = 1, a[0] = 0.

    Two phases.  First, ascending slice passes for the primes p <= r =
    isqrt(limit) overwrite the multiples of p, so the last write at each n
    is its largest prime factor up to r.  Every n still zero is then a prime
    P > r.  An n <= limit has at most one prime factor above r, and it is
    the largest, so the second phase stores P at P*m for every such P and
    every m <= limit // P, one multiplier m at a time, as the last write.
    """
    limit = int(limit)
    if limit < 2 or limit > _SIEVE_LIMIT:
        raise ResourceLimitError(f"sieve limit {limit} outside [2, {_SIEVE_LIMIT}]")
    table = np.zeros(limit + 1, dtype=np.int32)
    table[1] = 1
    r = math.isqrt(limit)
    for p in sieve_primes(r):
        table[p::p] = p
    large = np.flatnonzero(table[r + 1:] == 0) + (r + 1)
    for m in range(1, limit // (r + 1) + 1):
        ps = large[: np.searchsorted(large, limit // m, side="right")]
        table[ps * m] = ps
    return table


def _shared_spf(limit: int) -> np.ndarray:
    if _spf_cache["limit"] < limit:
        # grow geometrically so ascending-x call sequences amortize
        target = max(limit, min(max(2 * _spf_cache["limit"], 4096), _SIEVE_LIMIT))
        _spf_cache["table"] = spf_sieve(target)
        _spf_cache["table"].flags.writeable = False  # shared with the block workers
        _spf_cache["limit"] = target
    return _spf_cache["table"]


# ---------------------------------------------------------------------------
# level-by-level enumeration

def iter_smooth(x: float, y: float) -> Iterator[int]:
    """Yield every y-smooth integer <= x (unordered), one node per number.

    The numbers are built level by level in one numpy array: for each prime
    p <= y, every m * p^(k-1) of the previous power with m * p^k <= x is
    appended times p, for k = 1, 2, ...  Each power's survivors are counted
    before the array grows, so a request beyond _ENUM_NODE_BUDGET numbers
    raises ResourceLimitError on the first next().  The array grows and
    shrinks in place (`ndarray.resize`) and is yielded from its top in
    CHUNK-sized blocks, each cut off once yielded, so it frees memory about
    as fast as the consumer's copy takes it.  Requires pi(y) <= 20.
    """
    primes = sieve_primes(min(int(y), _ENUM_Y_CAP))
    if len(primes) > _ENUM_PRIME_BOUND:
        raise ResourceLimitError(f"pi({y}) > {_ENUM_PRIME_BOUND}")
    xi = math.floor(x)
    if xi < 1:
        return
    # m <= xi // p before each multiply keeps every product <= xi: int64
    # below 2^63, exact Python ints above.  No view of `level` is alive at
    # a resize.
    level = np.ones(1, dtype=np.int64 if xi < 2**63 else object)
    for p in primes:
        bound = xi // p
        lo, hi = 0, level.size  # the numbers with the current power of p
        while True:
            survivors = int(np.count_nonzero(level[lo:hi] <= bound))
            if not survivors:
                break
            if hi + survivors > _ENUM_NODE_BUDGET:
                raise ResourceLimitError(
                    f"smooth enumeration exceeds {_ENUM_NODE_BUDGET} nodes")
            level.resize(hi + survivors, refcheck=False)
            end = hi
            for start in range(lo, hi, CHUNK):
                block = level[start : min(start + CHUNK, hi)]
                block = block[block <= bound]
                level[end : end + block.size] = block * p
                end += block.size
            lo, hi = hi, end
    n = level.size
    while n:
        lo = max(n - CHUNK, 0)
        block = level[lo:n].tolist()
        level.resize(lo, refcheck=False)
        n = lo
        yield from block


def _enumerated(x: float, y: float) -> np.ndarray | None:
    """The y-smooth n <= x, unordered, or None when pi(y) > 20 or they
    exceed the node budget; None sends the caller to the sieve."""
    if len(sieve_primes(min(int(y), _ENUM_Y_CAP))) > _ENUM_PRIME_BOUND:
        return None
    # int64 holds every n <= x below 2^63; beyond it the ints stay Python ints
    dtype = np.int64 if x < 2**63 else object
    try:
        return np.fromiter(iter_smooth(x, y), dtype=dtype)
    except ResourceLimitError:
        return None


# ---------------------------------------------------------------------------
# default Dickman table for the density comparison

_default_table: list = [None]


def _density_table() -> DickmanTable:
    if _default_table[0] is None:
        _default_table[0] = build_rho_table(40.0, 1e-12)
    return _default_table[0]


# ---------------------------------------------------------------------------
# counting

def _floor(x: float) -> int:
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return math.floor(x)


def _check_y(y: float) -> None:
    if not 2 <= y < math.inf:
        raise ValueError(f"y must be finite and >= 2, got {y}")


def psi_count(x: float, y: float) -> SmoothCountResult:
    """Exact Psi(x, y) together with the Dickman approximation x*rho(u).

    y >= x counts every n <= x; otherwise the count is the size of the
    enumerated set when `_enumerated` returns one, and a scan of the
    largest-prime-factor sieve (x <= 1e8, else ResourceLimitError) when not.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    _check_y(y)
    xi = _floor(x)
    if y >= x:
        count = xi
    else:
        ns = _enumerated(x, y)
        if ns is not None:
            count = ns.size
        else:
            count = 1 + int(np.count_nonzero(_shared_spf(xi)[2 : xi + 1] <= y))

    u = math.log(x) / math.log(y)
    t = _density_table()
    rho_u = rho(u, t) if u <= t.max_u else math.exp(log_rho_asymptotic_main(u))
    approx = x * rho_u
    rel = count / approx - 1.0 if approx > 0 else math.inf
    return SmoothCountResult(
        x=float(x), y=float(y), exact_count=int(count),
        dickman_approx=approx, u=u, relative_error=rel,
    )


# ---------------------------------------------------------------------------
# twisted sums

def _twist_values(ns: np.ndarray, twist: TwistSpec) -> np.ndarray:
    if isinstance(twist, Trivial):
        return np.ones(ns.shape, dtype=np.complex128)
    if isinstance(twist, Unimodular):
        if twist.t == 0.0:
            return np.ones(ns.shape, dtype=np.complex128)
        return unit_powers(ns, twist.t)
    if isinstance(twist, Character):
        return twist.table.chi_vector(twist.j, ns)
    raise TypeError(f"not a twist spec: {twist!r}")


def _twisted_block_sum(blocks, twist: TwistSpec) -> complex:
    """Compensated sum of f over the blocks, two blocks at a time."""
    return compensated_sum(ordered_map(lambda ns: np.sum(_twist_values(ns, twist)), blocks))


def _sieved_blocks(xi: int, keep) -> Iterator[np.ndarray]:
    """The n in 2..xi with keep(P+(n)), one array per `chunks` block."""
    spf = _shared_spf(xi)
    for ns in chunks(2, xi):
        # slice, not spf[ns]: a fancy-index gather costs more than the sum
        yield ns[keep(spf[ns[0] : ns[-1] + 1])]


def smooth_twisted_sum(x: float, y: float, twist: TwistSpec) -> complex:
    """Exact Psi(x, y; f) = sum over y-smooth n <= x of f(n), by the route
    psi_count takes for the same (x, y); a finite x < 1 gives the empty sum."""
    xi = _floor(x)
    _check_y(y)
    if xi < 1:
        return 0j
    if y >= x:
        # every n <= x is y-smooth: identical value AND identical float path,
        # so full - smooth is exactly zero here
        return full_twisted_sum(x, twist)

    ns = _enumerated(x, y)
    if ns is None:
        one = np.ones(1, dtype=np.int64)
        blocks = itertools.chain([one], _sieved_blocks(xi, lambda p: p <= y))
    else:
        ns.sort()
        # [1], then the sieve route's blocks; beyond the sieve, CHUNK entries
        # each (value boundaries would mean ~x/CHUNK mostly empty cuts)
        if xi <= _SIEVE_LIMIT:
            cuts = np.searchsorted(ns, np.arange(2, xi + 1, CHUNK))
        else:
            cuts = np.arange(1, ns.size, CHUNK)
        blocks = np.split(ns, cuts)
    return _twisted_block_sum(blocks, twist)


def full_twisted_sum(x: float, twist: TwistSpec) -> complex:
    """Exact sum_{n <= x} f(n).

    Character twists reduce over full periods: by orthogonality a period
    sums to q - 1 for the principal character and to 0 for any other, so
    only the partial period is summed in floats, as a running prefix sum
    over `chunks` blocks, each block's cumsum starting from the carry of the
    one before (the additions of one cumsum over the period, in the same
    order).  Unimodular twists run the compensated chunked sum.  A finite
    x < 1 gives the empty sum.
    """
    xi = _floor(x)
    if xi < 1:
        return 0j
    if isinstance(twist, Trivial):
        return complex(xi)
    if isinstance(twist, Character):
        q = twist.table.q
        full, rem = divmod(xi, q)
        # a non-principal period sums to a rounding residue, not to 0 exactly,
        # so only the principal character needs the whole period
        last = q if twist.j == 0 and full else rem
        carry, partial = 0j, 0j
        for ns in chunks(1, last):
            prefix = twist.table.chi_vector(twist.j, ns)
            prefix[0] += carry
            np.cumsum(prefix, out=prefix)
            if ns[0] <= rem <= ns[-1]:
                partial = complex(prefix[rem - ns[0]])
            carry = prefix[-1]
        total = full * complex(carry) if last == q else 0j
        return total + partial if rem else total
    if xi > _FULL_SUM_LIMIT:
        raise ResourceLimitError(f"x={x} exceeds full-sum budget {_FULL_SUM_LIMIT}")
    return _twisted_block_sum(chunks(1, xi), twist)


def nonsmooth_twisted_sum(x: float, y: float, twist: TwistSpec) -> complex:
    """sum over n <= x with P+(n) > y of f(n) -- the third, independent
    summation used to validate full = smooth + nonsmooth."""
    xi = _floor(x)
    if xi < 2:
        return 0j
    return _twisted_block_sum(_sieved_blocks(xi, lambda p: p > y), twist)


# ---------------------------------------------------------------------------
# approximation error profile

def approximation_error_profile(x: float, twist: TwistSpec, y_grid) -> list[ProfileRecord]:
    """Measured discrepancy |full - smooth| normalized by Psi(x, y) for each
    y in the grid.  Pure measurement; no conditional approximation theorem
    is assumed anywhere.
    """
    ys = list(y_grid)
    for y in ys:
        _check_y(y)
    full = full_twisted_sum(x, twist)
    out = []
    for y in ys:
        smooth_val = smooth_twisted_sum(x, y, twist)
        psi = psi_count(x, y).exact_count
        disc = abs(full - smooth_val)
        out.append(ProfileRecord(y=float(y), discrepancy=disc, psi_xy=psi, ratio=disc / psi))
    return out


def profile_to_csv(records: list[ProfileRecord]) -> str:
    lines = ["y,discrepancy,psi_xy,ratio"]
    for r in records:
        lines.append(f"{r.y!r},{r.discrepancy!r},{r.psi_xy},{r.ratio!r}")
    return "\n".join(lines) + "\n"
