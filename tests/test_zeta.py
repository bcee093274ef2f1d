import io
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zetamax import sums, zeta
from zetamax.errors import PrecisionUnreachableError, ResourceLimitError

# classical anchors (independent of both evaluators under test)
PI2_OVER_6 = 1.6449340668482264
MINUS_ZETA_PRIME_2 = 0.9375482543158437  # sum log n / n^2


def test_truncated_classical_values():
    r = zeta.zeta_derivative_truncated(0, 2.0, 0.0, 10**6)
    assert r.value.imag == 0.0
    assert r.value.real == pytest.approx(PI2_OVER_6, abs=1e-5)
    r = zeta.zeta_derivative_truncated(1, 2.0, 0.0, 10**6)
    assert r.value.real == pytest.approx(MINUS_ZETA_PRIME_2, abs=1e-4)
    assert r.value.real > 0  # signed convention: (-1) zeta'(2) is positive


def test_cis_matches_complex_exp():
    # the unit-phase kernel under every e^(-i t log n), on both phase branches
    rng = np.random.default_rng(11)
    theta = np.concatenate([rng.uniform(-1e3, 1e3, 10**5),
                            sums.phases(np.arange(2, 10**4), 1e9)])
    np.testing.assert_allclose(sums.cis(-theta), np.exp(-1j * theta), rtol=0, atol=2**-52)


def test_sign_unwrap_helper():
    r = zeta.zeta_derivative_truncated(1, 2.0, 0.0, 10**5)
    assert zeta.zeta_derivative(r) == -r.value
    r0 = zeta.zeta_derivative_truncated(0, 2.0, 0.0, 10**3)
    assert zeta.zeta_derivative(r0) == r0.value


def test_truncated_validation():
    with pytest.raises(ValueError):
        zeta.zeta_derivative_truncated(0, 0.5, 10.0, 100)
    with pytest.raises(ValueError):
        zeta.zeta_derivative_truncated(0, 1.0, 0.0, 100)  # the pole
    with pytest.raises(ValueError):
        zeta.zeta_derivative_truncated(0, 2.0, 0.0, 1)
    with pytest.raises(ValueError):
        zeta.zeta_derivative_truncated(-1, 2.0, 0.0, 100)
    for sigma, t in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            zeta.zeta_derivative_truncated(1, sigma, t, 100)


def test_conjugate_symmetry_exact():
    for (ell, sigma, t, n) in [(0, 1.0, 17.25, 400), (2, 1.5, 999.5, 2000)]:
        a = zeta.zeta_derivative_truncated(ell, sigma, t, n).value
        b = zeta.zeta_derivative_truncated(ell, sigma, -t, n).value
        assert a == b.conjugate()


def test_error_estimate_monotone_in_N():
    # with eps pinned to 1/log log N the envelope has a small-N hump for
    # large ell (e.g. it rises from N=64 to N=256 at ell=6) and is
    # decreasing beyond N ~ 1e3; assert the monotone range per order
    for ell in (0, 1, 3, 6):
        prev = math.inf
        start = 64 if ell <= 3 else 1024
        for n in (64, 256, 1024, 4096, 65536, 10**6):
            if n < start:
                continue
            est = zeta.truncation_error_estimate(ell, 1.0, n)
            assert est < prev, (ell, n)
            prev = est


def test_doubling_consistency():
    # out-of-window probe: the change under N doubling stays inside the
    # two error envelopes
    a = zeta.zeta_derivative_truncated(1, 1.0, 10**4, 10**5)
    b = zeta.zeta_derivative_truncated(1, 1.0, 10**4, 2 * 10**5)
    assert abs(abs(a.value) - abs(b.value)) <= a.error_estimate + b.error_estimate


# ---------------------------------------------------------------------------
# Euler-Maclaurin reference

def test_reference_classical_point():
    r = zeta.zeta_derivative_reference(0, 2.0, 0.0, 1e-12)
    assert r.value.real == pytest.approx(PI2_OVER_6, abs=1e-12)


def test_reference_against_mpmath_grid():
    mpmath.mp.dps = 30
    pts = [(0, 2.0, 0.0), (1, 2.0, 0.0), (2, 1.0, 5.0), (3, 1.0, 50.0),
           (1, 1.0, 1000.0), (0, 0.6, 3.0), (4, 1.2, 3.0), (6, 2.0, 7.0)]
    for (ell, sigma, t) in pts:
        ref = zeta.zeta_derivative_reference(ell, sigma, t, 1e-10)
        ours = zeta.zeta_derivative(ref)
        other = complex(mpmath.zeta(mpmath.mpc(sigma, t), derivative=ell))
        assert abs(ours - other) <= max(ref.error_estimate, 1e-13), (ell, sigma, t)
    # near the pole the tail is large against the value; there error_estimate
    # alone must cover the error, with no floor under it
    with mpmath.workprec(200):
        for ell in range(7):
            for sigma in (0.6, 0.8, 1.0, 1.5):
                for t in (0.5, 2.0, 5.0, 10.0, 17.78, 30.0, 60.0, 200.0):
                    ref = zeta.zeta_derivative_reference(ell, sigma, t, 1e-8)
                    other = complex(mpmath.zeta(mpmath.mpc(sigma, t), 1, ell))
                    err = abs(zeta.zeta_derivative(ref) - other)
                    assert err <= ref.error_estimate, (ell, sigma, t, err, ref.error_estimate)


def test_reference_stability_under_tightened_tol():
    a = zeta.zeta_derivative_reference(0, 1.0, 100.0, 1e-8).value
    b = zeta.zeta_derivative_reference(0, 1.0, 100.0, 1e-9).value
    assert 0 < abs(a) < 10
    assert abs(a - b) <= 1e-8


def test_reference_validation():
    with pytest.raises(ValueError):
        zeta.zeta_derivative_reference(7, 1.0, 10.0)
    with pytest.raises(ValueError):
        zeta.zeta_derivative_reference(0, 0.5, 10.0)
    with pytest.raises(ValueError):
        zeta.zeta_derivative_reference(0, 5.0, 10.0)
    with pytest.raises(ValueError):
        zeta.zeta_derivative_reference(0, 1.0, 2e8)
    with pytest.raises(PrecisionUnreachableError):
        zeta.zeta_derivative_reference(5, 1.0, 2000.0, 1e-14)


def test_oracle_agreement_in_window():
    # N chosen so t sits inside [N, 6.28 N]
    for (ell, sigma, t) in [(0, 1.0, 50.0), (1, 1.0, 50.0), (2, 1.5, 1000.0),
                            (3, 1.0, 1000.0), (1, 2.0, 100000.0)]:
        n = int(t)
        tr = zeta.zeta_derivative_truncated(ell, sigma, t, n)
        ref = zeta.zeta_derivative_reference(ell, sigma, t, 1e-7)
        assert zeta.in_lemma_window(t, n)
        assert abs(tr.value - ref.value) <= tr.error_estimate + ref.error_estimate


def _em_zeta_derivative_one_array(ell, s, M):
    """The reference before it streamed, kept as the oracle of the streamed
    main term: the whole of 2 <= n < M as one set of longdouble arrays.  Its
    tail comes from `sums.em_tail`, as the reference's does, so a difference
    lies in the main term."""
    sigma, t = s.real, s.imag

    ns = np.arange(2, M, dtype=np.int64)
    logs = np.log(ns.astype(np.longdouble))
    coeff = (logs**ell if ell else np.ones_like(logs)) * np.exp(-sigma * logs)
    if t == 0.0:
        main = complex(float(np.sum(coeff.astype(np.float64))), 0.0)
    else:
        w = (np.longdouble(t) * logs) % sums.TWO_PI_LD
        terms = coeff * np.exp(np.longdouble(-1.0) * 1j * w)
        main = complex(np.sum(terms))
    main_mag = float(np.sum(np.abs(coeff).astype(np.float64)))

    m_pow, half, corrections, nxt = sums.em_tail(ell, s, np.log(np.longdouble(M)))
    L = math.log(M)
    tail = [math.perm(ell, i) * L ** (ell - i) / (s - 1) ** (i + 1) * (M * m_pow)
            for i in range(ell + 1)]
    tail += [half, *(-c for c in corrections)]
    total = sums.compensated_sum(tail, main + (1.0 if ell == 0 else 0.0))  # n = 1
    mag = main_mag + (1.0 + sum(map(abs, tail)))
    band = 2.0 * abs(nxt) * (abs(s) + 2 * sums.EM_BERNOULLI_TERMS + 3) / (
        sigma + 2 * sums.EM_BERNOULLI_TERMS + 1
    )
    return total, band, mag


SMALL_CHUNK = 2**14


@pytest.mark.parametrize("ell, sigma, t", [(0, 2.0, 0.0), (1, 1.0, 3e4), (3, 0.6, 50.0)])
def test_streamed_reference_matches_one_array_oracle(monkeypatch, ell, sigma, t):
    # the main term's blocks hold B = CHUNK / 2 terms from n = 2, so B +- 1
    # is one block, B + 3 ends in a one-term block and 3 B in a partial one
    monkeypatch.setattr(sums, "CHUNK", SMALL_CHUNK)
    B = SMALL_CHUNK // 2
    s = complex(sigma, t)
    for M in (B - 1, B + 1, B + 3, 3 * B):
        want, want_band, want_mag = _em_zeta_derivative_one_array(ell, s, M)
        got, band, mag = zeta._em_zeta_derivative(ell, s, M)
        assert band == want_band
        if M <= B + 1:  # one block: the oracle's arithmetic exactly
            assert (got, mag) == (want, want_mag), M
        assert mag == pytest.approx(want_mag, rel=1e-14, abs=0.0)
        assert abs(got - want) <= 4e-16 * want_mag, M


@pytest.mark.parametrize("chunk", [1, 1001])
def test_odd_and_tiny_block_lengths(parallel_blocks, monkeypatch, chunk):
    # the main term's blocks hold ceil(CHUNK / 2) terms, one at CHUNK = 1
    # (a floor would step by 0), and every block from the second goes to
    # the pool
    monkeypatch.setattr(sums, "CHUNK", chunk)
    B = (chunk + 1) // 2
    s = complex(1.0, 3e4)
    M = 5 * B + 3
    want, _, want_mag = _em_zeta_derivative_one_array(2, s, M)
    got, _, mag = zeta._em_zeta_derivative(2, s, M)
    assert abs(got - want) <= 4e-16 * want_mag
    assert mag == pytest.approx(want_mag, rel=1e-14, abs=0.0)
    assert len(parallel_blocks) == -(-(M - 2) // B) - 1


def test_reference_memory_is_flat_in_the_cutoff(monkeypatch):
    monkeypatch.setattr(sums, "CHUNK", SMALL_CHUNK)
    # inline: a pooled peak counts what a worker holds at that moment, so
    # its ratio moves with thread timing (the pooled main term keeps the
    # bound of test_sums.py::test_long_sums_stay_small_in_parallel)
    monkeypatch.setattr(sums, "_cpu_count", lambda: 1)
    s = complex(1.0, 1e4)

    def peak_bytes(M):
        tracemalloc.start()
        try:
            zeta._em_zeta_derivative(2, s, M)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak_bytes(2 * SMALL_CHUNK)
    large = peak_bytes(16 * SMALL_CHUNK)
    assert large <= 1.2 * small, (small, large)


@pytest.mark.parametrize("call", [
    lambda: zeta._em_zeta_derivative(2, complex(1, 1e6), 2_000_001),
    lambda: zeta.zeta_derivative_truncated(1, 1.0, 1e7, 2 * 10**6),
], ids=["reference-main-term", "truncated"])
def test_default_blocks_keep_long_sums_small(call):
    # 2e6 terms at the default CHUNK: a few block-length temporaries, where
    # 2^20-term blocks traced ~98 MB for the reference
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


@pytest.fixture
def summed_blocks(monkeypatch):
    """Sizes of the blocks the reference's main term takes from `chunks`."""
    sizes = []

    def counting(first, last, length=None):
        for ns in sums.chunks(first, last, length):
            sizes.append(ns.size)
            yield ns

    monkeypatch.setattr(zeta, "chunks", counting)
    return sizes


@pytest.mark.parametrize("ell, sigma, t, tol", [(2, 1.0, 1e5, 1e-10), (5, 1.0, 2000.0, 1e-14)])
def test_reference_fails_fast_on_the_rounding_floor(summed_blocks, monkeypatch, ell, sigma, t, tol):
    # the floor on the magnitude summed so far passes tol before the last
    # block, and later blocks only raise it: the pass stops there
    monkeypatch.setattr(sums, "CHUNK", 1000)
    with pytest.raises(PrecisionUnreachableError):
        zeta.zeta_derivative_reference(ell, sigma, t, tol)
    assert 0 < sum(summed_blocks) < zeta._em_cutoff(complex(sigma, t)) - 2


def _rounding_floor_lower_bound(ell, sigma, t, M):
    # magnitude sum >= 1 + (M - 2) min_{2 <= n < M} f(n) for
    # f(n) = (log n)^ell n^-sigma; f is unimodal, so the minimum lies at an end
    def f(n):
        return math.log(n) ** ell * n**-sigma
    return zeta._rounding_floor(t, M, 1 + (M - 2) * min(f(2), f(M - 1)))


def test_remainder_band_is_far_below_the_rounding_floor():
    # over the whole argument range the band at the one cutoff M0 is a
    # millionth of the floor: a larger cutoff could not lower the estimate by
    # shrinking the band
    ts = [0.0, *np.logspace(0, 8, 81)]
    for ell in range(7):
        for sigma in np.linspace(0.6, 4.0, 35):
            for t in ts:
                s = complex(sigma, t)
                M = zeta._em_cutoff(s)
                assert M <= 2e8 + 2
                band = zeta._remainder_band(s, sums.em_tail(ell, s, np.log(np.longdouble(M)))[3])
                assert band <= 1e-6 * _rounding_floor_lower_bound(ell, sigma, t, M), (ell, sigma, t)


def _pochhammer_corrections(ell, s, M, m_pow):
    """B_2j/(2j)! f^(2j-1)(M) for f(u) = (log u)^ell u^(-s), j = 1 .. 13, by
    the route `sums.em_tail` replaced: f^(2j-1) = -(-d/ds)^ell of
    (s)_(2j-1) u^(-s-2j+1), by the Leibniz rule over the derivatives of the
    Pochhammer polynomial (s)_(2j-1), which are m! e_m(1/s, .., 1/(s+2j-2))
    (s)_(2j-1) with the e_m from power sums by Newton's identities."""
    L = math.log(M)
    out, p0, power_sums = [], 1.0 + 0j, [0j] * ell
    for j in range(1, sums.EM_BERNOULLI_TERMS + 2):
        for i in range(max(0, 2 * j - 3), 2 * j - 1):  # the roots -i that (s)_(2j-1) adds
            p0 *= s + i
            power_sums = [p + (1.0 / (s + i)) ** k for k, p in enumerate(power_sums, 1)]
        top = min(ell, 2 * j - 1)
        e = [1.0 + 0j]
        for m in range(1, top + 1):
            e.append(sum((-1) ** (r - 1) * e[m - r] * power_sums[r - 1]
                         for r in range(1, m + 1)) / m)
        leibniz = sum(math.perm(ell, i) * e[i] * p0 * (-L) ** (ell - i) for i in range(top + 1))
        b2j = sums._bernoulli_coefficients()[j - 1]  # B_2j / (2j)!
        out.append(-(-1) ** ell * b2j * leibniz * m_pow * M ** (1 - 2 * j))
    return out


def test_em_tail_matches_the_pochhammer_route():
    # the derivative recursion against the Leibniz rule over Pochhammer
    # derivatives, on the band test's grid and with the same M^(-s)
    ts = [0.0, *np.logspace(0, 8, 81)]
    for ell in range(7):
        for sigma in np.linspace(0.6, 4.0, 35):
            for t in ts:
                s = complex(sigma, t)
                M = zeta._em_cutoff(s)
                m_pow, _, corrections, nxt = sums.em_tail(ell, s, np.log(np.longdouble(M)))
                want = _pochhammer_corrections(ell, s, M, m_pow)
                diff = sum(abs(a - b) for a, b in zip([*corrections, nxt], want))
                assert diff <= 1e-13 * sum(map(abs, want)), (ell, sigma, t)


# ---------------------------------------------------------------------------
# scans

def test_scan_degenerate_grid():
    r = zeta.scan_max(0, 40.0, 40.0, 1.0, 64)
    assert r.grid_size == 1
    assert r.t_star == 40.0
    single = np.abs(zeta.zeta_derivative_truncated(0, 1.0, 40.0, 64).value)
    assert r.value_modulus == single


def test_scan_refinement_monotone():
    coarse = zeta.scan_max(1, 120.0, 140.0, 0.5, 256)
    fine = zeta.scan_max(1, 120.0, 140.0, 0.25, 256)
    assert fine.value_modulus >= coarse.value_modulus - 1e-12
    assert fine.grid_size == 2 * coarse.grid_size - 1


def test_scan_max_exceeds_mean():
    r = zeta.scan_max(1, 10000.0, 10020.0, 0.05, 10**4)
    ts = [10000.0 + 0.05 * i for i in range(r.grid_size)]
    mods = [np.abs(zeta.zeta_derivative_truncated(1, 1.0, t, 10**4).value) for t in ts]
    assert r.value_modulus > np.mean(mods)
    assert r.value_modulus == max(mods)
    assert r.in_paper_regime  # window [1e4, 1.002e4] inside [N, 6.28 N]


def test_scan_matches_pointwise_evaluator():
    r = zeta.scan_max(2, 55.0, 60.0, 0.5, 128)
    direct = np.abs(zeta.zeta_derivative_truncated(2, 1.0, r.t_star, 128).value)
    assert r.value_modulus == direct


def test_scan_blocks_do_not_change_row_sums():
    # 400 grid points of 9999 terms span several working blocks; each row's
    # sum must not depend on which rows share its block
    N = 10**4
    r = zeta.scan_max(1, 10000.0, 10019.95, 0.05, N)
    assert r.grid_size == 400
    single = zeta.scan_max(1, r.t_star, r.t_star, 1.0, N)
    assert single.grid_size == 1
    assert single.value_modulus == r.value_modulus


def test_results_beyond_float64_raise(parallel_blocks, monkeypatch):
    # (log 1e5)^400 = 1e424: no NaN or RuntimeWarning gets out of the
    # blocks, summed on the pool at this block length
    monkeypatch.setattr(sums, "CHUNK", 4096)
    with pytest.raises(PrecisionUnreachableError, match="float64"):
        zeta.zeta_derivative_truncated(400, 1.0, 100.0, 100000)
    with pytest.raises(PrecisionUnreachableError, match="float64"):
        zeta.scan_max(400, 100.0, 101.0, 1.0, 100000)
    assert "pool" in parallel_blocks
    # the sum at ell = 200, N = 100 is about 1e132, its error estimate
    # 200!/eps^200 N^(eps - 1) is not in range
    with pytest.raises(PrecisionUnreachableError, match="estimate at ell=200"):
        zeta.zeta_derivative_truncated(200, 1.0, 100.0, 100)


def test_scan_budget_guard():
    with pytest.raises(ResourceLimitError):
        zeta.scan_max(1, 1e4, 2e4, 0.05, 10**6)
    with pytest.raises(ResourceLimitError):  # 2e7 grid points, within the term budget
        zeta.scan_max(0, 1.0, 2e7, 1.0, 2)
    with pytest.raises(ResourceLimitError):  # (t_hi - t_lo)/step overflows to inf
        zeta.scan_max(0, 1.0, 1e308, 1e-10, 2)


def test_scan_validation():
    with pytest.raises(ValueError):
        zeta.scan_max(0, -1.0, 10.0, 0.5, 64)
    with pytest.raises(ValueError):
        zeta.scan_max(0, 10.0, 5.0, 0.5, 64)
    with pytest.raises(ValueError):
        zeta.scan_max(0, 5.0, 10.0, 0.0, 64)
    for t_lo, t_hi, step in [(5.0, math.inf, 0.5), (math.inf, math.inf, 0.5),
                             (5.0, 10.0, math.inf), (5.0, math.nan, 0.5)]:
        with pytest.raises(ValueError):
            zeta.scan_max(0, t_lo, t_hi, step, 64)


def test_scan_csv_stream(monkeypatch):
    text = zeta.scan_to_csv(0, 30.0, 31.0, 0.5, 64)
    lines = text.strip().split("\n")
    assert lines[0] == "t,modulus"
    assert len(lines) == 4
    r = zeta.scan_max(0, 30.0, 31.0, 0.5, 64)
    assert len(r.moduli) == r.grid_size
    want = "t,modulus\n" + "".join(f"{30.0 + 0.5 * i!r},{float(m)!r}\n"
                                    for i, m in enumerate(r.moduli))
    assert text == want
    # blocks of rows that do not divide the grid write the same bytes
    monkeypatch.setattr(sums, "CHUNK", 2)
    out = io.StringIO()
    zeta.scan_result_to_csv(r, out)
    assert out.getvalue() == want


@given(ell=st.integers(0, 5), N=st.integers(2, 10**5),
       t_lo=st.floats(1.0, 3e7), step=st.floats(1e-3, 10.0), rows=st.integers(1, 6))
@example(ell=1, N=10**4, t_lo=1e8 / math.log(10**4) - 2.5, step=1.0, rows=6)
def test_scan_rows_match_pointwise_evaluator(ell, N, t_lo, step, rows):
    # t * log N passes 1e8 for a share of the draws, so both phase reductions
    # are compared; the explicit example's rows straddle 1e8, and each row
    # must pick its reduction as the pointwise evaluator does.  np.abs, not
    # abs: Python's complex modulus can differ from numpy's by one ulp
    r = zeta.scan_max(ell, t_lo, t_lo + step * (rows - 1), step, N)
    for i, m in enumerate(r.moduli):
        direct = np.abs(zeta.zeta_derivative_truncated(ell, 1.0, t_lo + step * i, N).value)
        assert m == direct, (i, m, direct)


@pytest.mark.parametrize("chunk", [1, 7, 300, 2**17])
def test_scan_rows_equal_pointwise_at_any_block_length(parallel_blocks, monkeypatch, chunk):
    # 41 rows of 299 terms: one-term tiles at CHUNK = 1, several blocks of
    # terms per row at 7, two rows a tile at 300 and every row in one tile
    # at 2^17; each row sums its blocks as the pointwise evaluator does
    monkeypatch.setattr(sums, "CHUNK", chunk)
    r = zeta.scan_max(1, 1e3, 1e3 + 0.25 * 40, 0.25, 300)
    want = [np.abs(zeta.zeta_derivative_truncated(1, 1.0, 1e3 + 0.25 * i, 300).value)
            for i in range(41)]
    assert r.moduli.tolist() == want


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
def test_scan_temporaries_are_a_few_tiles(monkeypatch, cpus):
    # two grid points of 2^20 terms with longdouble phases.  A tile of CHUNK
    # terms takes 16 CHUNK bytes as complex128 and its phases a few times
    # that (3.5 of them traced inline, 7-7.6 pooled); one tile is summed at
    # a time inline, up to three on the pool (two in flight, one drawn).  A
    # scan that summed each row in one pass over N-length coefficient and
    # row arrays traced 40-60 MB
    monkeypatch.setattr(sums, "_cpu_count", lambda: cpus)
    N = 16 * sums.CHUNK + 1
    tracemalloc.start()
    try:
        zeta.scan_max(1, 1e7, 1e7 + 0.5, 0.5, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tiles = 1 if cpus == 1 else 3
    assert peak <= 6 * tiles * 16 * sums.CHUNK, peak


def _truncated_one_pass(ell, sigma, t, N):
    """(the truncated sum, its magnitude sum) as one set of longdouble
    arrays with every phase reduced mod 2 pi: a route apart from the tiled
    kernel's blocks, phases and compensation."""
    logs = np.log(np.arange(1, N + 1, dtype=np.longdouble))
    mags = logs**ell * np.exp(-sigma * logs)
    w = np.remainder(np.longdouble(t) * logs, sums.TWO_PI_LD)
    return complex(np.sum(mags * np.cos(w)) - 1j * np.sum(mags * np.sin(w))), float(np.sum(mags))


@pytest.mark.parametrize("ell, t, N", [(1, 3e5, 2 * 2**16 + 5), (0, 1e7, 3 * 2**16 + 1)])
def test_scan_rows_and_pointwise_match_a_one_pass_sum(ell, t, N):
    # several blocks of terms per row, so the block sums and their
    # compensation are checked against a sum that has neither; the bound is
    # float64 phases (2 eps t log N per term) plus the block sums' rounding
    assert N > sums.CHUNK + 1
    r = zeta.scan_max(ell, t, t + 1.0, 0.5, N)
    for i, m in enumerate(r.moduli):
        want, mass = _truncated_one_pass(ell, 1.0, t + 0.5 * i, N)
        tol = mass * 2.2e-16 * (4 * t * math.log(N) + 64)
        assert abs(zeta.zeta_derivative_truncated(ell, 1.0, t + 0.5 * i, N).value - want) <= tol
        assert abs(m - abs(want)) <= tol, (i, m, abs(want), tol)


@pytest.mark.parametrize("call", [
    lambda N: zeta.zeta_derivative_truncated(1, 1.0, 1e4, N),
    lambda N: zeta.scan_max(1, 1e4, 1e4, 1.0, N),
], ids=["truncated", "scan"])
def test_term_budget_is_checked_before_any_work(monkeypatch, call):
    def no_work(*args):
        raise AssertionError("summed past the term budget")

    monkeypatch.setattr(zeta, "_truncated_rows", no_work)
    with pytest.raises(ResourceLimitError, match="exceeds 100000000 terms"):
        call(10**8 + 1)
    with pytest.raises(AssertionError):  # the budget's edge is summed
        call(10**8)
