"""Dirichlet characters mod a prime q, truncated L-derivative sums at s = 1,
maxima over the character family, and the resonance quotient V2/V1.

Characters are represented through a discrete-log table over the smallest
primitive root: chi_j(a) = e^(2 pi i j dlog[a] / (q-1)).  The table is
certified exactly and completely when it is built: dlog[1] = 0 and
dlog[a g] = dlog[a] + 1 mod q-1 for every residue a, which imply that dlog
is a bijection onto [0, q-1) and so a group isomorphism onto Z/(q-1);
orthogonality is a theorem.  All
character arithmetic stays in integer exponents mod q-1 until the final
conversion to a complex value, so no phase drift accumulates.  Only prime
moduli are accepted: for moduli divisible by many small primes the
truncated sums degenerate (chi kills every small-prime multiple) and the
family maxima behave differently, so composites are rejected loudly.

Character values: `chi_vector` splits the exponent e into its high and low
bits and multiplies one entry of each of two root tables, omega^(e_hi 2^k)
and omega^(e_lo), built with the discrete logs; each holds about sqrt(q)
entries (32 KB together at q = 10^6 + 3), so a value costs two gathers from
cache and one complex product, with no cos or sin.  A table of all q - 1
roots would hold 16 MB at that q.  The product is made out of place, so a
value has the same bits whatever the length of its array.  `chi_residues`
gives chi on a run of consecutive residues, reading dlog by slice with no
mod and no gather, and `chi_range` on consecutive integers, one run per
residue period.  `chi_value` evaluates one value through `cmath.exp`, the
independent route the tests compare against.

A single-character sum over n <= N reads chi by residue run.  When N >= 2q
and q <= _PERIOD_TABLE_MAX_Q (2^20: 16 MB of values), it first builds one
read-only period table of chi on the residues of 0..q+CHUNK-1 (fewer when
N < CHUNK), so each block of the sum is one slice of it and chi is
evaluated q + CHUNK times, not N times; otherwise a block reads its runs,
at most two when q >= CHUNK.

The sums take their coefficients (log k)^ell / k from `sums.log_weights`,
the kernel the zeta^(ell) sums share.  The family sums are the plain sums,
as zeta's are: only `l_derivative_truncated` applies the sign (-1)^ell, once,
to its finished value; `max_over_characters` reads moduli, and
`resonance_quotient` weighs the plain sums (-1)^ell L^(ell).

Family-wide evaluation of sum_a chi_j(a) w_a for all j at once goes through
one kernel, `_family_sums(table, by_residue)`, from real weights indexed by
residue: the L sums add their coefficients (log k)^ell / k into one sum per
residue, turning the naive q*N work into N + q log q, and
`resonance_quotient` puts 1 at each residue of its support.  A block of
consecutive k adds its runs of residues as slices and its whole periods as
one axis-0 reduction, so each residue gets its terms one at a time in
ascending k, as `np.add.at` would.  q - 1 = 2h is even, so the kernel
scatters the weights in one store into the packed input of one length-h
complex FFT, seen as float64 in discrete-log class order, and untangles its
output into the characters j = 0..h; the others are their exact
conjugates, which `max_over_characters` mirrors as moduli and
`resonance_quotient` fills in as values.  That FFT takes one Cooley-Tukey
step at the largest prime factor P of h, so a large prime factor of q - 1
costs a Bluestein transform of length P, not of length q - 1.
`moduli_to_csv` streams its rows in blocks.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import PrincipalCharacterError, ResourceLimitError
from .primes import is_prime, prime_factors
from . import sums
from .sums import check_terms, chunks, cis, compensated_sum, log_weights, ordered_map, spans

_MAX_Q = 10**7
_QUOTIENT_MAX_Q = 10**5
_PERIOD_TABLE_MAX_Q = 1 << 20  # largest q given a period table: 16 MB of complex128


@dataclass(frozen=True)
class CharacterTable:
    """Full character group mod prime q via a primitive root.

    dlog[a] is the discrete log of a (base `generator`), so
    chi_j(a) = omega^(j * dlog[a]) with omega = e^(2 pi i/(q-1)).
    roots_lo[i] = omega^i for i < 2^split_bits and roots_hi[i] =
    omega^(i 2^split_bits), with 4^split_bits >= q - 1, so omega^e =
    roots_hi[e >> split_bits] * roots_lo[e mod 2^split_bits] for every
    exponent e; together O(sqrt q) entries.  Immutable after construction:
    dlog and the root tables are read-only arrays, so the block workers of a
    sum can share them.
    """

    q: int
    generator: int
    dlog: np.ndarray
    order: int
    split_bits: int = field(init=False, repr=False)
    roots_lo: np.ndarray = field(init=False, repr=False)
    roots_hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = ((self.order - 1).bit_length() + 1) // 2
        step = 2 * np.pi / self.order
        object.__setattr__(self, "split_bits", k)
        object.__setattr__(self, "roots_lo", cis(step * np.arange(1 << k)))
        object.__setattr__(self, "roots_hi",
                           cis(step * (np.arange(((self.order - 1) >> k) + 1) << k)))
        for shared in (self.dlog, self.roots_lo, self.roots_hi):
            shared.flags.writeable = False

    def chi_exponent(self, j: int, a: int) -> int | None:
        """Exact exponent e with chi_j(a) = omega^e, or None when q | a."""
        r = a % self.q
        if r == 0:
            return None
        return (j * int(self.dlog[r])) % self.order

    def chi_value(self, j: int, a: int) -> complex:
        e = self.chi_exponent(j, a)
        if e is None:
            return 0j
        return cmath.exp(2j * math.pi * e / self.order)

    def chi_vector(self, j: int, ns: np.ndarray) -> np.ndarray:
        """chi_j over an array of positive integers (int64, or Python ints
        beyond 2^63: their residues mod q fit int64).

        The exact exponent e = j dlog[n mod q] mod q-1 picks one entry of
        each root table, so a value costs two gathers and one complex
        product, with no cos or sin."""
        r = _mod(ns, self.q).astype(np.int64, copy=False)
        vals = self._roots(j * self.dlog[r])
        vals[r == 0] = 0.0
        return vals

    def chi_residues(self, j: int, lo: int, hi: int) -> np.ndarray:
        """chi_j on the residues lo..hi-1, 0 <= lo < hi <= q: dlog is read
        by slice, with no mod of the arguments and no gather from dlog."""
        vals = self._roots(j * self.dlog[lo:hi])
        if lo == 0:
            vals[0] = 0.0
        return vals

    def chi_range(self, j: int, lo: int, hi: int) -> np.ndarray:
        """chi_j(n) for n = lo..hi-1, 1 <= lo < hi: one `chi_residues` call
        per run of consecutive residues."""
        runs = []
        while lo < hi:
            r = lo % self.q
            size = min(hi - lo, self.q - r)
            runs.append(self.chi_residues(j, r, r + size))
            lo += size
        return runs[0] if len(runs) == 1 else np.concatenate(runs)

    def _roots(self, exponents: np.ndarray) -> np.ndarray:
        """omega^e for an array of integers e, reduced mod q-1 exactly.  The
        product is out of place: numpy multiplies a one-element complex
        array in place by its scalar path, which differs from the vector
        loop in the last bit, so an in-place product would make a value
        depend on the length of its array."""
        e = _mod(exponents, self.order)
        return np.multiply(self.roots_hi[e >> self.split_bits],
                           self.roots_lo[e & ((1 << self.split_bits) - 1)])


def _mod(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m in [0, m), as x % m.  numpy divides an integer array by a
    scalar through a precomputed reciprocal, but its remainder does not, so
    x - (x // m) m takes less than half the time of x % m on int64."""
    out = x // m
    out *= m
    np.subtract(x, out, out=out)
    return out


def _verify_table(table: CharacterTable) -> None:
    """Exact and complete check that dlog is the discrete log base g.

    It checks dlog[1] = 0 and the successor relation dlog[a g mod q] =
    dlog[a] + 1 mod q-1 for every a in 1..q-1.  These imply the bijection:
    g is a unit mod the prime q, so by induction dlog[g^k mod q] = k mod q-1
    for every k >= 0, and g^k = 1 would give dlog[1] = k mod q-1.  So
    g^(q-1) is the first power of g that equals 1, g is primitive, every
    residue is one of g^0, .., g^(q-2), and dlog maps them one to one onto
    [0, q-1): a group isomorphism onto Z/(q-1), so character orthogonality
    follows exactly.  The successor relation is checked block by block, so
    its temporaries are O(CHUNK) (a g < q^2 stays exact in int64).
    Sampled pow checks add an independent route through Python integers.
    """
    q, order, g, dlog = table.q, table.order, table.generator, table.dlog
    if int(dlog[1]) != 0:
        raise AssertionError("discrete-log table breaks dlog[1] = 0")
    for ns in chunks(1, q - 1):
        if np.any(dlog[_mod(ns * g, q)] != _mod(dlog[ns] + 1, order)):
            raise AssertionError("discrete-log table breaks dlog[a g] = dlog[a] + 1")
    for a in random.Random(q).sample(range(1, q), min(100, order)):
        if pow(g, int(dlog[a]), q) != a:
            raise AssertionError(f"dlog check failed at a={a}")


def build_character_table(q: int) -> CharacterTable:
    """Character group table for prime q in [3, 1e7] over its smallest
    primitive root g.  The discrete logs are stored by baby and giant steps,
    dlog[g^(iB+k)] = iB + k with B = isqrt(q-1) + 1, one outer product of
    the giant steps g^(iB) and the baby steps g^k per block of about
    sums.CHUNK entries, and certified exactly by `_verify_table`."""
    q = int(q)
    if q < 3 or q > _MAX_Q:
        raise ValueError(f"q must lie in [3, {_MAX_Q}], got {q}")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    factors = prime_factors(q - 1)
    g = 2
    while any(pow(g, (q - 1) // p, q) == 1 for p in factors):
        g += 1
    B = math.isqrt(q - 1) + 1
    small = np.array([pow(g, k, q) for k in range(B)], dtype=np.int64)
    giant = pow(g, B, q)
    giants = [1]  # g^(iB) mod q, one per giant step
    while len(giants) * B < q - 1:
        giants.append(giants[-1] * giant % q)
    dlog = np.empty(q, dtype=np.int64)
    dlog[0] = -1
    for lo, hi in spans(0, len(giants) - 1, max(1, sums.CHUNK // B)):
        # row-major g^(iB + k) for a block of giant steps; exact in int64,
        # since every product is below q^2 < 2^63
        block = np.multiply.outer(np.array(giants[lo:hi], dtype=np.int64), small)
        vals = _mod(block, q).ravel()[: q - 1 - lo * B]
        dlog[vals] = np.arange(lo * B, lo * B + vals.size)
    table = CharacterTable(q=q, generator=g, dlog=dlog, order=q - 1)
    _verify_table(table)
    return table


@functools.lru_cache(maxsize=2)
def shared_character_table(q: int) -> CharacterTable:
    """`build_character_table(q)`, kept for the two moduli used last: a CLI
    request reads one modulus and a library session may alternate between
    two, while each table holds 8q bytes of discrete logs."""
    return build_character_table(q)


# ---------------------------------------------------------------------------
# truncated L-derivative sums

@dataclass(frozen=True)
class LSeriesValue:
    value: complex
    ell: int
    q: int
    j: int
    N: int
    error_scale: float  # Polya-Vinogradov truncation scale sqrt(q) log q (log N)^ell / N


def _pv_error_scale(q: int, ell: int, N: int) -> float:
    return math.sqrt(q) * math.log(q) * math.log(N) ** ell / N


def check_sum_args(ell: int, N: int) -> None:
    """ValueError unless the truncated L-derivative sums accept (ell, N), and
    ResourceLimitError for N beyond the budget; no work, so a caller can
    check before building a character table."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    check_terms(N)
    if ell > math.log(N):
        raise ValueError(f"need ell <= log N, got ell={ell}, log N={math.log(N):.3f}")


def _period_table(table: CharacterTable, j: int, N: int) -> np.ndarray | None:
    """chi_j on the residues of 0..q+B-1, B = min(CHUNK, N) the longest block
    of `chunks(1, N)`, read-only, so that every block is one slice of it;
    None when N < 2q (a sum that short reads each residue at most twice) or
    q is beyond _PERIOD_TABLE_MAX_Q.  CHUNK is read per call, as `chunks`
    reads it.  The table is filled block by block, so its temporaries are
    O(CHUNK)."""
    q = table.q
    if N < 2 * q or q > _PERIOD_TABLE_MAX_Q:
        return None
    longest = min(sums.CHUNK, N)
    period = np.empty(q + longest, dtype=np.complex128)
    for lo, hi in spans(0, q - 1):
        period[lo:hi] = table.chi_residues(j, lo, hi)
    period[q:] = np.resize(period[:q], longest)  # the period repeated
    period.flags.writeable = False  # shared with the block workers
    return period


def l_derivative_truncated(ell: int, table: CharacterTable, j: int, N: int) -> LSeriesValue:
    """L^(ell)(1, chi_j; N) = (-1)^ell sum_{k <= N} chi_j(k) (log k)^ell / k
    with compensated accumulation: the plain sum, negated once (exactly)
    when ell is odd.

    Approximates the ell-th derivative of L(s, chi_j) at s = 1 with the
    Polya-Vinogradov error scale attached.  Non-principal characters only.
    """
    check_sum_args(ell, N)
    if j == 0:
        raise PrincipalCharacterError("principal character rejected: the truncated "
                                      "series approximates L^(ell)(1, chi) only for chi != chi_0")
    if not 1 <= j <= table.order - 1:
        raise ValueError(f"character index {j} out of range for q={table.q}")

    period = _period_table(table, j, N)

    def block_sum(ns):
        lo, hi = int(ns[0]), int(ns[-1]) + 1
        if period is None:
            chi = table.chi_range(j, lo, hi)
        else:
            r = lo % table.q
            chi = period[r : r + hi - lo]
        return np.sum(np.multiply(chi, log_weights(ns, ell)))

    value = compensated_sum(ordered_map(block_sum, chunks(1, N)))
    return LSeriesValue(value=-value if ell % 2 else value, ell=ell, q=table.q, j=j, N=int(N),
                        error_scale=_pv_error_scale(table.q, ell, N))


def _l_values_all_characters(ell: int, table: CharacterTable, N: int) -> np.ndarray:
    """The plain sums sum_{k<=N} chi_j(k) (log k)^ell / k, without the sign
    (-1)^ell of L^(ell), for j = 0..(q-1)/2 at once; character q-1-j is the
    conjugate of character j.

    Sums the coefficients by residue and applies `_family_sums`; entry j
    equals the direct sum for character j (exactly the same quantity,
    different association order).  The caller checks (ell, N).

    The residue sums are plain float sums of about N/q terms each, so their
    rounding grows with N/q.  Against residue sums by fsum, combined with
    the characters at 40 digits, the moduli were off by 2.0e-12 at
    (q, N, ell) = (5, 1e7, 1) and by 2.5e-12 at (101, 1e7, 2), where
    `l_derivative_truncated` was off by 6.5e-15 and 1.7e-13.
    """
    by_residue = np.zeros(table.q, dtype=np.float64)  # entry r: the terms with k = r mod q
    for ns in chunks(1, N):
        _add_by_residue(by_residue, int(ns[0]) % table.q, log_weights(ns, ell))
    return _family_sums(table, by_residue)


def _add_by_residue(totals: np.ndarray, r0: int, w: np.ndarray) -> None:
    """totals[r] += each w[i] with r0 + i = r mod q, q = totals.size, one term
    at a time in ascending i, as `np.add.at` would; a block costs O(its
    size), not O(q), and the totals do not depend on how the terms are cut
    into blocks.

    The block is a head run of residues r0.., whole periods, then a tail
    run from residue 0.  The runs are added as slices.  The periods are one
    axis-0 `np.add.reduce` over a (periods + 1, q) array whose first row is
    the running totals: numpy reduces axis 0 one row after the other, so each
    residue still gets its terms in ascending i."""
    q = totals.size
    head = min(w.size, (q - r0) % q)
    totals[r0 : r0 + head] += w[:head]
    periods, tail = divmod(w.size - head, q)
    if periods:
        rows = np.empty((periods + 1, q), dtype=np.float64)
        rows[0] = totals
        rows[1:] = w[head : head + periods * q].reshape(periods, q)
        np.add.reduce(rows, axis=0, out=totals)
    totals[:tail] += w[w.size - tail :]


def _family_sums(table: CharacterTable, by_residue: np.ndarray) -> np.ndarray:
    """sum_a chi_j(a) w_a for j = 0..h, h = (q-1)/2, from real float64
    weights w indexed by residue; w_0 is never read (chi(0) = 0), and
    character 2h-j is the conjugate of character j (`_mirrored`).

    In class order, x_dlog[a] = w_a, this is sum_d x_d omega^(+jd) with
    omega = e^(2 pi i/2h), that is conj(fft(x))[:h+1].  The pairs pack into
    z_m = x_2m + i x_2m+1: class d is part d % 2 of z_(d // 2), so z seen as
    float64 is class order and the scatter is one store into it, each entry
    written once since dlog is a bijection (`_verify_table`).  The length-h
    FFT Z of z is untangled into F = fft(x) at k = 0..h with the twiddle
    e^(-2 pi i k/2h).  Z takes one Cooley-Tukey step: h = n1 P with P the
    largest prime factor of h, a length-n1 FFT down the columns of
    z.reshape(n1, P), twiddles from the exact integer exponents m2 k1 mod
    h, then a length-P FFT along the rows, so numpy's Bluestein fallback for
    a large prime runs at length P, not at length q - 1.
    """
    h = table.order // 2
    P = max(prime_factors(h), default=1)
    n1 = h // P
    z = np.empty(h, dtype=np.complex128)
    z.view(np.float64)[table.dlog[1:]] = by_residue[1:]
    y = np.fft.fft(z.reshape(n1, P), axis=0)
    del z
    y *= cis((-2 * np.pi / h) * (np.outer(np.arange(n1), np.arange(P)) % h))
    np.fft.fft(y, axis=1, out=y)
    Z = np.empty(h + 1, dtype=np.complex128)
    Z[:h].reshape(P, n1)[...] = y.T  # row k1, column k2 of y holds Z_(k1 + n1 k2)
    del y
    Z[h] = Z[0]
    # F = 0.5 (Z + Zc) - 0.5i w (Z - Zc); at most two length-h temporaries
    # live at once (Z and Zc, then Zc and w)
    F = np.empty(h + 1, dtype=np.complex128)
    Zc = np.conj(Z[::-1])  # conj(Z_(h-k))
    np.subtract(Z, Zc, out=F)
    np.add(Z, Zc, out=Zc)
    del Z
    Zc *= 0.5
    w = cis((-np.pi / h) * np.arange(h + 1))
    w *= 0.5j
    np.multiply(w, F, out=F)
    del w
    np.subtract(Zc, F, out=F)
    np.conj(F, out=F)
    return F


def _mirrored(F: np.ndarray) -> np.ndarray:
    """The full length-2h spectrum from entries 0..h of a real sequence's
    transform: entry 2h-j is exactly conj(entry j)."""
    return np.concatenate([F, np.conj(F[-2:0:-1])])


@dataclass(frozen=True)
class MaxCharResult:
    ell: int
    q: int
    N: int
    j_star: int
    modulus: float
    all_moduli: np.ndarray


def max_over_characters(ell: int, q: int, N: int) -> MaxCharResult:
    """Family maximum of |sum_{k<=N} chi(k)(log k)^ell/k| over the q-2
    non-principal characters; deterministic smallest-j tie-break.  chi_j
    and chi_(q-1-j) are conjugate, so the moduli for j <= (q-1)/2 are
    mirrored onto the rest, exactly, and j_star <= (q-1)/2.  (ell, N) are
    checked before the table is built."""
    check_sum_args(ell, N)
    table = shared_character_table(q)
    half = np.abs(_l_values_all_characters(ell, table, N)[1:])  # j = 1 .. (q-1)/2
    all_moduli = np.concatenate([half, half[-2::-1]])  # j = 1 .. q-2, mirrored
    j_star = 1 + int(np.argmax(all_moduli))  # first occurrence = smallest j
    return MaxCharResult(ell=ell, q=table.q, N=int(N), j_star=j_star,
                         modulus=float(all_moduli[j_star - 1]), all_moduli=all_moduli)


def moduli_to_csv(result: MaxCharResult, out) -> None:
    """Write the `j,modulus` rows to the text stream `out`, one block of
    rows at a time, so no string of the whole table is ever built.  The
    moduli are mirror-symmetric, so each distinct value is formatted once;
    a block's texts are kept as one newline-joined string, not one object
    per row, and split again, reversed, for the mirror rows."""
    moduli = result.all_moduli
    half = (moduli.size + 1) // 2
    if not np.array_equal(moduli[:half], moduli[::-1][:half]):
        raise ValueError("all_moduli is not mirror-symmetric")

    def write_rows(first: int, texts: list[str]) -> None:
        out.write("".join(f"{j},{m}\n" for j, m in enumerate(texts, start=first)))

    out.write("j,modulus\n")
    packed = []
    for lo, hi in spans(0, half - 1):
        texts = [repr(m) for m in moduli[lo:hi].tolist()]
        write_rows(lo + 1, texts)
        packed.append("\n".join(texts))
    # rows half+1 .. size mirror rows size-half .. 1: the middle row of an
    # odd size has no mirror
    j, skip = half + 1, 2 * half - moduli.size
    for block in reversed(packed):
        texts = block.split("\n")[::-1][skip:]
        write_rows(j, texts)
        j, skip = j + len(texts), 0


# ---------------------------------------------------------------------------
# resonance quotient

@dataclass(frozen=True)
class ResonanceQuotient:
    q: int
    ell: int
    A: float
    N: int
    v2_over_v1: float
    error_term_scale: float
    closed_form: float   # orthogonality main term / resonator support mass
    support_size: int
    principal_correction: float  # |L^(ell)(1, chi_0; N)| |R_{chi_0}|^2, reported explicitly


def resonance_quotient(ell: int, q: int, spec) -> ResonanceQuotient:
    """Resonance quotient |V2/V1| with r the characteristic function of the
    divisor set clipped to [1, A], A = q^(1/4), N = q^(3/4).

    V1 = sum_{chi != chi_0} |R_chi|^2 and V2 = sum (-1)^ell L^(ell)(1,chi;N)
    |R_chi|^2 are computed directly from the character table; the
    orthogonality closed form (main term over the support mass) and a
    certified scale for the difference are returned alongside.  Because a
    weighted average cannot exceed the maximum, v2_over_v1 is a lower bound
    for max_chi |L^(ell)(1, chi; N)|.  (ell, N) is checked by
    `check_sum_args`, as for every truncated L sum, before the table is built.
    """
    from .resonator import ResonatorSpec, divisors_up_to

    if not isinstance(spec, ResonatorSpec):
        raise ValueError(f"spec must be a ResonatorSpec, got {type(spec).__name__}")
    q = int(q)
    if q > _QUOTIENT_MAX_Q:
        raise ResourceLimitError(
            f"q={q} beyond exact character-sum budget {_QUOTIENT_MAX_Q}")
    if spec.y >= q:
        raise ValueError(f"spec with y={spec.y} >= q={q} is incompatible")
    A = q ** 0.25
    N = math.ceil(q ** 0.75)
    check_sum_args(ell, N)
    table = shared_character_table(q)

    support = divisors_up_to(spec, A)  # distinct, all < q, all coprime to q
    S = len(support)

    # R_chi for every chi: the family sums of the support's indicator
    by_residue = np.zeros(q, dtype=np.float64)
    by_residue[support] = 1.0
    R2 = np.abs(_mirrored(_family_sums(table, by_residue))) ** 2

    # (-1)^ell L^(ell)(1,chi;N) for every chi: the plain sums
    ml = _mirrored(_l_values_all_characters(ell, table, N))
    v1 = float(np.sum(R2[1:]))
    v2 = complex(np.sum(ml[1:] * R2[1:]))

    # orthogonality closed form: sum_{mk=n<=A} (log k)^ell r(m) r(n) / k over
    # sum r (k = n/m <= A <= N, so every divisor pair contributes)
    ks = [n // m for n in support for m in support if n % m == 0]
    main_sum = math.fsum(log_weights(np.array(ks, dtype=np.int64), ell))
    closed = main_sum / S

    # |V2/V1 - main/S| = S |main_sum - ML0 * S| / V1 exactly; bound both terms.
    ml0 = float(np.real(ml[0]))
    scale = S * (abs(main_sum) + abs(ml0) * S) / v1
    return ResonanceQuotient(
        q=q, ell=ell, A=A, N=N,
        v2_over_v1=abs(v2) / v1,
        error_term_scale=scale,
        closed_form=closed,
        support_size=S,
        principal_correction=abs(ml0) * S**2,
    )
