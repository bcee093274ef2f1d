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

The sieve (`spf_sieve`) is built in one ascending pass over L2-sized
segments, with no pass that strides over the whole table: 10^8 entries
take 2.3-2.9 s and a 432 MB traced peak, 400 MB of it the int32 table
(2-vCPU Intel Xeon).  The module-level sieve cache keeps the table
resident, so later sums in a session read it instead of sieving again; it
is built single-owner and read-only afterwards, and all sum operations are
pure given their inputs.  Long sums evaluate two blocks at a time
(`sums.ordered_map`): the blocks are drawn, and the sieve read, in the
calling thread, and the block sums are combined in block order, so the
bits do not depend on the threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .dickman import DickmanTable, build_rho_table, log_rho_asymptotic_main, rho
from .dirichlet import CharacterTable
from .errors import ResourceLimitError, float_result
from .primes import sieve_primes
from . import sums
from .sums import MAX_TERMS, chunks, compensated_sum, ordered_map, spans, unit_powers

_SIEVE_LIMIT = 10**8
_SIEVE_SEGMENT = 1 << 18  # int32 entries: 1 MB, an L2-sized segment
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

    One ascending pass over segments of _SIEVE_SEGMENT entries, each small
    enough to stay in L2 while it is written.  In each segment, first the
    slice passes of the primes p <= r = isqrt(limit), in ascending order,
    overwrite the multiples of p, so the last write at each n is its largest
    prime factor up to r.  Every n > r still zero is then a prime P > r; it
    is appended to the large primes found so far.  Last, P is stored at
    every product m*P in the segment, for every m <= limit // (r + 1) at
    once.  An n <= limit has at most one prime factor above r, and it is
    the largest, so these writes never collide: any order of them gives the
    same table.
    """
    limit = int(limit)
    if limit < 2 or limit > _SIEVE_LIMIT:
        raise ResourceLimitError(f"sieve limit {limit:.6g} outside [2, {_SIEVE_LIMIT}]")
    table = np.zeros(limit + 1, dtype=np.int32)
    table[1] = 1
    r = math.isqrt(limit)
    small = np.array(sieve_primes(r), dtype=np.int64)
    ms = np.arange(1, limit // (r + 1) + 1, dtype=np.int64)
    # pi(x) < 1.25506 x / log x for x > 1 (Rosser-Schoenfeld)
    large = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int32)
    found = 0
    for lo, hi in spans(0, limit, _SIEVE_SEGMENT):
        segment = table[lo:hi]
        starts = np.maximum(small, -(-lo // small) * small) - lo
        for p, start in zip(small.tolist(), starts.tolist()):
            segment[start::p] = p
        first = max(lo, r + 1)
        if first < hi:
            new = np.flatnonzero(segment[first - lo:] == 0) + first
            large[found : found + new.size] = new
            found += new.size
        # for each multiplier m that can reach the segment, the large primes
        # with lo <= m*P < hi are ps[firsts : firsts + counts]; all of them
        # are gathered into one array.  The keys are int32: int64 keys
        # would make searchsorted copy ps to int64 on every call.
        mult = ms[: (hi - 1) // (r + 1)]
        ps = large[:found]
        firsts = np.searchsorted(ps, (-(-lo // mult)).astype(np.int32))
        counts = np.searchsorted(ps, ((hi - 1) // mult).astype(np.int32), side="right") - firsts
        offsets = np.repeat(firsts - (np.cumsum(counts) - counts), counts)
        ps = ps[np.arange(offsets.size) + offsets]
        segment[ps * np.repeat(mult, counts) - lo] = ps
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
    """An iterator over every y-smooth integer <= x (unordered), one node
    per number.

    The numbers are built level by level in one numpy array: for each prime
    p <= y, every m * p^(k-1) of the previous power with m * p^k <= x is
    appended times p, for k = 1, 2, ...  Nothing is built before the first
    next(), and each power's survivors are counted before the array grows,
    so a request beyond _ENUM_NODE_BUDGET numbers raises ResourceLimitError
    on the first next().  The array grows and shrinks in place
    (`ndarray.resize`) and is handed over from its top in lists of
    sums.CHUNK ints, each cut off once handed over, so it frees memory
    about as fast as the consumer's copy takes it; `itertools.chain` walks
    each list, so no Python frame resumes per number.  Requires
    pi(y) <= 20.
    """
    return itertools.chain.from_iterable(_smooth_blocks(x, y))


def _smooth_blocks(x: float, y: float) -> Iterator[list]:
    """The numbers of `iter_smooth`, as lists of at most sums.CHUNK ints."""
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
            for start, stop in spans(lo, hi - 1):
                block = level[start:stop]
                block = block[block <= bound]
                level[end : end + block.size] = block * p
                end += block.size
            lo, hi = hi, end
    n, chunk = level.size, sums.CHUNK
    while n:
        lo = max(n - chunk, 0)
        block = level[lo:n].tolist()
        level.resize(lo, refcheck=False)
        n = lo
        yield block


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

@functools.cache
def _density_table() -> DickmanTable:
    return build_rho_table(40.0, 1e-12)


# ---------------------------------------------------------------------------
# counting

def _floor(x: float) -> int:
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return math.floor(x)


def _check_y(y: float) -> None:
    if not 2 <= y < math.inf:
        raise ValueError(f"y must be finite and >= 2, got {y}")


def _exact_count(x: float, y: float) -> int:
    """Exact Psi(x, y), with no density table.

    y >= x counts every n <= x; otherwise the count is the size of the
    enumerated set when `_enumerated` returns one, and a scan of the
    largest-prime-factor sieve (x <= 1e8, else ResourceLimitError) when not.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    _check_y(y)
    xi = _floor(x)
    if y >= x:
        return xi
    ns = _enumerated(x, y)
    if ns is not None:
        return ns.size
    spf = _shared_spf(xi)  # counted in block slices: no x-byte mask
    return 1 + sum(int(np.count_nonzero(spf[lo:hi] <= y)) for lo, hi in spans(2, xi))


def psi_count(x: float, y: float) -> SmoothCountResult:
    """Exact Psi(x, y) (`_exact_count`) together with the Dickman
    approximation x*rho(u), read from the density table for u <= 40 and
    from the asymptotic main term beyond it.  An x*rho(u) that underflows
    float64 leaves the relative error beyond it, which raises
    PrecisionUnreachableError.
    """
    count = _exact_count(x, y)
    u = math.log(x) / math.log(y)
    t = _density_table()
    approx = x * (rho(u, t) if u <= t.max_u else math.exp(log_rho_asymptotic_main(u)))
    rel = float_result(f"relative_error of x rho(u) at u={u:.6g}",
                       lambda: count / approx - 1.0 if approx > 0 else math.inf)
    return SmoothCountResult(x=float(x), y=float(y), exact_count=count, dickman_approx=approx,
                             u=u, relative_error=rel)


# ---------------------------------------------------------------------------
# twisted sums

def _twist_values(ns: np.ndarray, twist: TwistSpec) -> np.ndarray:
    if isinstance(twist, Unimodular) and twist.t != 0.0:
        return unit_powers(ns, twist.t)
    if isinstance(twist, Character):
        return twist.table.chi_vector(twist.j, ns)
    if isinstance(twist, (Trivial, Unimodular)):  # f = 1, t = 0 included
        return np.ones(ns.shape, dtype=np.complex128)
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
            cuts = np.searchsorted(ns, np.arange(2, xi + 1, sums.CHUNK))
        else:
            cuts = np.arange(1, ns.size, sums.CHUNK)
        blocks = np.split(ns, cuts)
    return _twisted_block_sum(blocks, twist)


def full_twisted_sum(x: float, twist: TwistSpec) -> complex:
    """Exact sum_{n <= x} f(n).

    Character twists reduce over full periods by orthogonality.  For the
    principal character a period sums to q - 1 and every n in the partial
    period 1..r (r < q) is coprime to q, so the sum is the integer
    (x // q)(q - 1) + r, rounded once, and no chi value is evaluated.  For
    any other character a period sums to 0, so only 1..r is summed in
    floats, as a running prefix sum over blocks of sums.CHUNK integers,
    each read through `chi_range` and each block's cumsum starting from the
    carry of the one before (the additions of one cumsum over 1..r, in the
    same order).  Unimodular twists run the compensated chunked sum.  A
    finite x < 1 gives the empty sum.
    """
    xi = _floor(x)
    if xi < 1:
        return 0j
    if isinstance(twist, Trivial):
        return complex(xi)
    if isinstance(twist, Character):
        q = twist.table.q
        full, rem = divmod(xi, q)
        if twist.j == 0:
            return complex(full * (q - 1) + rem)
        carry = 0j
        for lo, hi in spans(1, rem):
            prefix = twist.table.chi_range(twist.j, lo, hi)
            prefix[0] += carry
            np.cumsum(prefix, out=prefix)
            carry = prefix[-1]
        return 0j + complex(carry)  # 0j + makes a -0.0 part +0.0
    if xi > MAX_TERMS:
        raise ResourceLimitError(f"x={x} exceeds full-sum budget {MAX_TERMS}")
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
        psi = _exact_count(x, y)
        disc = abs(full - smooth_val)
        out.append(ProfileRecord(y=float(y), discrepancy=disc, psi_xy=psi, ratio=disc / psi))
    return out


def profile_to_csv(records: list[ProfileRecord]) -> str:
    lines = ["y,discrepancy,psi_xy,ratio"]
    for r in records:
        lines.append(f"{r.y!r},{r.discrepancy!r},{r.psi_xy},{r.ratio!r}")
    return "\n".join(lines) + "\n"
