import itertools
import math
import random
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from zetamax import dickman, resonator
from zetamax.constants import EXP_GAMMA
from zetamax.errors import (OutOfDomainError, OutOfRegimeError, PrecisionUnreachableError,
                            ResourceLimitError)
from zetamax.moments import complete_bell

LOG10 = math.log(10.0)

# hand enumerations (frozen):
# spec (y=3,b=2), ell=1: M = {1,2,3,6} -> log2/4 + log3/6 + log6/24
HAND_32_L1 = 0.4310454878025069
# spec (y=2,b=2), ell=1: M = {1,2} -> (log 2)/2 * 1/2
HAND_22_L1 = 0.17328679513998632
# spec (y=2,b=3), ell=2: M = {1,2,4} -> (log2)^2/2*(2/3) + (log4)^2/4*(1/3)
HAND_23_L2 = 0.3203020092788009


def test_hand_enumerations_reproduce():
    assert math.log(2) / 4 + math.log(3) / 6 + math.log(6) / 24 == pytest.approx(
        HAND_32_L1, abs=1e-15
    )
    assert resonator.ratio_direct(resonator.make_spec(3, 2), 1) == pytest.approx(
        HAND_32_L1, abs=1e-13
    )
    assert resonator.ratio_direct(resonator.make_spec(2, 2), 1) == pytest.approx(
        HAND_22_L1, abs=1e-15
    )
    assert resonator.ratio_direct(resonator.make_spec(2, 3), 2) == pytest.approx(
        HAND_23_L2, abs=1e-15
    )


def test_spec_fields():
    sp = resonator.make_spec(3, 2)
    assert sp.primes == (2, 3)
    assert sp.w == 2
    assert sp.b == 2
    sp = resonator.make_spec(11.5, 4)
    assert sp.primes == (2, 3, 5, 7, 11)


def test_make_spec_validation(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"sieve_primes({n}) called")

    monkeypatch.setattr(resonator, "sieve_primes", no_sieve)
    with pytest.raises(ValueError):
        resonator.make_spec(1.5, 2)
    with pytest.raises(ValueError):
        resonator.make_spec(5, 1)
    for y in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            resonator.make_spec(y, 2)
    # beyond 1e8 the spec holds more primes than any evaluator's budget
    for y in (1e8 + 1, 1e10):
        with pytest.raises(ResourceLimitError):
            resonator.make_spec(y, 2)


def test_ratio_ell0_exceeds_one():
    # k = 1 contributes 1; every other divisor adds a positive term
    for (y, b) in [(2, 2), (3, 2), (5, 3), (13, 2)]:
        assert resonator.ratio_direct(resonator.make_spec(y, b), 0) > 1.0


# specs whose cumulants sum_p (log g_p)^(j)(1) break the sign pattern (-1)^j
# at some j <= 10, so a cumulant/Bell route cancels on them
WRONG_SIGN_SPECS = [(2, 2), (3, 2), (7, 3), (13, 4), (13, 3), (5, 2), (2, 3)]


def test_factorized_matches_direct_random_specs():
    rng = random.Random(1105)
    cases = [((y, b), range(11)) for (y, b) in WRONG_SIGN_SPECS]
    cases += [((rng.choice([2, 3, 5, 7, 11, 13]), rng.randint(2, 5)), (0, 1, 2, 3, 5))
              for _ in range(10)]
    for (y, b), ells in cases:
        sp = resonator.make_spec(y, b)
        if sp.b ** sp.w > 10**5:
            continue
        for ell in ells:
            d = resonator.ratio_direct(sp, ell)
            f = resonator.ratio_factorized(sp, ell)
            assert f == pytest.approx(d, rel=1e-13, abs=0.0), (y, b, ell)
            # beyond ell = 5 the ratio reaches 9e5, where one float step is 1.2e-10
            if ell <= 5:
                assert f == pytest.approx(d, abs=1e-10), (y, b, ell)


def test_factorized_ell0_equals_closed_product():
    for (y, b) in [(3, 2), (7, 4), (13, 3)]:
        sp = resonator.make_spec(y, b)
        prod = 1.0
        for p in sp.primes:
            prod *= sum((1 - a / b) * p ** (-a) for a in range(b))
        assert resonator.ratio_factorized(sp, 0) == pytest.approx(prod, rel=1e-12)


def test_ratio_monotone_in_b():
    for y in (2, 3, 5, 7):
        for ell in (0, 1, 2):
            prev = -math.inf
            for b in (2, 3, 4, 5):
                v = resonator.ratio_direct(resonator.make_spec(y, b), ell)
                assert v >= prev - 1e-12, (y, b, ell)
                prev = v


def test_direct_budget_guard():
    with pytest.raises(ResourceLimitError):
        resonator.ratio_direct(resonator.make_spec(100, 10), 1)


def _divisors_brute(spec, bound):
    """Every divisor <= bound of P(y, b): each exponent vector when there
    are few, else trial division of 1..bound."""
    if spec.b ** spec.w <= 10**5:
        ks = (math.prod(p**a for p, a in zip(spec.primes, alphas))
              for alphas in itertools.product(range(spec.b), repeat=spec.w))
        return sorted(k for k in ks if k <= bound)
    P = math.prod(p ** (spec.b - 1) for p in spec.primes)
    return [n for n in range(1, math.floor(bound) + 1) if P % n == 0]


@pytest.mark.parametrize("y, b", [(3, 8), (7, 5), (97, 2)])
def test_divisors_up_to_matches_brute_force(y, b, monkeypatch):
    spec = resonator.make_spec(y, b)
    every = _divisors_brute(spec, 1e3)
    mid = len(every) // 2
    # a bound between two divisors, and one equal to a divisor
    between, on = (every[mid] + every[mid + 1]) / 2, every[mid + 1]
    for bound in (1, 3.17, 17.8, 1e3, between, on):
        assert resonator.divisors_up_to(spec, bound) == _divisors_brute(spec, bound), bound
    if spec.b ** spec.w <= 10**5:
        assert resonator.divisors_up_to(spec, math.inf) == _divisors_brute(spec, math.inf)
    # the count budget: a list of exactly the budget passes, one more raises
    monkeypatch.setattr(resonator, "_DIRECT_BUDGET", len(every))
    assert len(resonator.divisors_up_to(spec, 1e3)) == len(every)
    monkeypatch.setattr(resonator, "_DIRECT_BUDGET", len(every) - 1)
    with pytest.raises(ResourceLimitError):
        resonator.divisors_up_to(spec, 1e3)


def test_ratio_direct_forms_no_power_beyond_float64():
    # (log k)^150 reaches 177^150 = 1e337 here, though every term and the
    # ratio are in range; at ell = 200 the largest (log k)^ell/k is 1e372
    spec = resonator.make_spec(3, 100)
    with mpmath.workdps(30):
        want = mpmath.fsum(wt * mpmath.log(k) ** 150 / k
                           for k, _, wt in resonator._divisors(spec) if k > 1)
    assert resonator.ratio_direct(spec, 150) == pytest.approx(float(want), rel=1e-13)
    with pytest.raises(PrecisionUnreachableError, match="float64"):
        resonator.ratio_direct(spec, 200)


def test_ratio_direct_streams_the_divisor_set():
    # 10^4 divisors, summed as they are enumerated: no list of them is held
    spec = resonator.make_spec(7, 10)
    tracemalloc.start()
    try:
        resonator.ratio_direct(spec, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1e6, peak


def test_spec_from_T_below_regime():
    # even T = e^(e^4) derives y < 2: the asymptotic regime opens absurdly late
    with pytest.raises(OutOfRegimeError):
        resonator.spec_from_T(log_T=math.exp(4.0))
    with pytest.raises(OutOfRegimeError):
        resonator.spec_from_T(log_T=300 * LOG10)
    with pytest.raises(OutOfRegimeError):
        resonator.spec_from_T(log_T=math.log(2.0))
    # non-finite scales: the derived b = floor((log_2 T)^3) would be inf/nan
    for bad in (math.inf, math.nan):
        with pytest.raises(OutOfRegimeError):
            resonator.spec_from_T(log_T=bad)
    # an integer log T beyond float range
    with pytest.raises(OutOfRegimeError):
        resonator.spec_from_T(log_T=10**400)


def test_spec_from_T_log_scale():
    for k in (4, 5, 6):
        log_T = 10**k * LOG10
        sp = resonator.spec_from_T(log_T=log_T)
        assert sp.y >= 2 and sp.b >= 2
        # P(y, b) <= sqrt(T) in logs
        theta = math.fsum(math.log(p) for p in sp.primes)
        assert (sp.b - 1) * theta <= log_T / 2


def test_scale_enters_as_log_T_by_keyword_only():
    # a positional T cannot be read as log T
    with pytest.raises(TypeError):
        resonator.spec_from_T(1e300)
    with pytest.raises(TypeError):
        resonator.proof_bookkeeping(1, dickman.build_rho_table(4, 1e-10), 1e300)


def test_lower_bound_witness_trend(table60_unused=None):
    # derived-from-T specs: ratio/(Y_ell (log2 T)^(ell+1)) climbs toward 1
    from zetamax.moments import y_exact

    for ell in (0, 1):
        ratios = []
        for k in (4, 5, 6):
            log_T = 10**k * LOG10
            sp = resonator.spec_from_T(log_T=log_T)
            l2 = math.log(log_T)
            val = resonator.ratio_factorized(sp, ell)
            ratios.append(val / (y_exact(ell).float_value * l2 ** (ell + 1)))
        assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_precision_bits_validation():
    sp = resonator.make_spec(3, 2)
    with pytest.raises(ValueError):
        resonator.ratio_factorized(sp, 65)


# ---------------------------------------------------------------------------
# the cumulant/Bell route that ratio_factorized replaced, kept as an oracle

def _log_derivatives_from_plain(g: list) -> list:
    """Given [g(1), g'(1), .., g^(m)(1)], return [h'(1), .., h^(m)(1)] for
    h = log g, via g^(m) = sum_{i} C(m-1, i) g^(m-1-i) h^(i+1)."""
    m = len(g) - 1
    h = [None] * (m + 1)  # h[j] = h^(j)(1), h[0] unused
    for order in range(1, m + 1):
        acc = g[order]
        for i in range(0, order - 1):
            acc -= math.comb(order - 1, i) * g[order - 1 - i] * h[i + 1]
        h[order] = acc / g[0]
    return h[1:]


def _ratio_factorized_at(spec: resonator.ResonatorSpec, ell: int) -> mpmath.mpf:
    primes, b = spec.primes, spec.b
    g0_log = mpmath.mpf(0)
    cum = [mpmath.mpf(0)] * ell  # c_j = sum_p (log g_p)^(j)(1), j = 1..ell
    eps = mpmath.mpf(2) ** (-mpmath.mp.prec - 20)
    for p in primes:
        lp = mpmath.log(p)
        inv_p = mpmath.mpf(1) / p
        g = [mpmath.mpf(0)] * (ell + 1)
        pw = mpmath.mpf(1)  # p^(-alpha)
        # remaining terms carry a factor up to (alpha log p)^ell, so the
        # cutoff must absorb it before comparing against working precision
        growth = max(mpmath.mpf(1), (b * lp) ** ell)
        for alpha in range(0, b):
            coef = (mpmath.mpf(b - alpha) / b) * pw
            apow = mpmath.mpf(1)  # (alpha * log p)^j
            g[0] += coef
            for j in range(1, ell + 1):
                apow *= alpha * lp
                # g_p^(j)(1) = sum_alpha coef * (-alpha log p)^j
                g[j] += coef * apow if j % 2 == 0 else -coef * apow
            pw *= inv_p
            if alpha > ell and pw * growth < eps:
                break
        g0_log += mpmath.log(g[0])
        if ell:
            h = _log_derivatives_from_plain(g)
            for j in range(ell):
                cum[j] += h[j]
    g_total = mpmath.exp(g0_log)
    if ell == 0:
        return g_total
    bell = complete_bell(ell, cum)
    return (-1) ** ell * g_total * bell


def test_factorized_matches_cumulant_bell_oracle():
    for k in (4, 5, 6):
        sp = resonator.spec_from_T(log_T=10**k)
        for ell in (0, 1, 2, 6, 10):
            with mpmath.workprec(256):
                oracle = float(_ratio_factorized_at(sp, ell))
            assert resonator.ratio_factorized(sp, ell) == pytest.approx(oracle, rel=1e-14, abs=0.0), (k, ell)


def test_factorized_budget_counts_alpha_terms():
    # the budget counts the alpha terms kept, sum_p (A_p + 1)(ell + 1), not w b
    def units(sp, ell):
        return (sum(resonator._alpha_cutoffs(sp, ell)) + sp.w) * (ell + 1)

    sp8 = resonator.spec_from_T(log_T=1e8)
    assert units(sp8, 60) <= resonator._FACTORIZED_BUDGET
    sp = resonator.spec_from_T(log_T=1e9)
    assert sp.w * sp.b > resonator._FACTORIZED_BUDGET
    assert units(sp, 6) < 10**6
    # ell = 1 is G(1) sum_p E[X_p]: a float check with no convolution
    coefs = [[(1 - a / sp.b) * float(p) ** -a for a in range(80)] for p in sp.primes]
    g1 = math.prod(math.fsum(c) for c in coefs)
    mean = math.fsum(math.fsum(a * math.log(p) * ca for a, ca in enumerate(c)) / math.fsum(c)
                     for p, c in zip(sp.primes, coefs))
    assert resonator.ratio_factorized(sp, 1) == pytest.approx(g1 * mean, rel=1e-12)


def test_factorized_budget_guard_rejects_before_any_work(monkeypatch):
    # A_p = b - 1 = 2 for every prime: 3 w (ell + 1) = 2.7e7 alpha terms
    sp = resonator.make_spec(2 * 10**6, 3)

    def no_work(*args, **kwargs):
        raise AssertionError("alpha sums started before the budget check")

    monkeypatch.setattr(mpmath, "workprec", no_work)
    with pytest.raises(ResourceLimitError, match="exceeds budget"):
        resonator.ratio_factorized(sp, 60)


# ---------------------------------------------------------------------------
# log-power sums and proof bookkeeping

def test_log_power_sum_exact_small():
    assert resonator.log_power_sum(0, 7.9) == pytest.approx(
        math.fsum(1 / k for k in range(1, 8)), rel=1e-14
    )
    assert resonator.log_power_sum(1, 4.0) == pytest.approx(
        math.log(2) / 2 + math.log(3) / 3 + math.log(4) / 4, rel=1e-14
    )
    assert resonator.log_power_sum(2, 0.5) == 0.0
    # on both sides of the direct sum's end at 30, and both ends at 30; ell
    # beyond 170, where ell! leaves float range, as proof_bookkeeping allows
    # up to 200.  The logs are longdouble, so a term's rounding is its own.
    for y in (1, 7.9, 29, 30, 31, 100, 10759, 2e6):
        ks = np.arange(1, math.floor(y) + 1, dtype=np.float64)
        logs = np.log(ks.astype(np.longdouble))
        for ell in (0, 1, 2, 6, 20, 60, 170, 171, 200):
            want = math.fsum((logs ** ell / ks).astype(np.float64).tolist())
            assert resonator.log_power_sum(ell, y) == pytest.approx(want, rel=1e-14, abs=0.0), (ell, y)


def test_log_power_sum_asymptotic_matches_exact_at_crossover():
    # compare the Stieltjes form against the exact sum at a large feasible y
    y = 2 * 10**6
    exact = resonator.log_power_sum(1, y)
    log_y = math.log(y)
    import mpmath

    asym = log_y**2 / 2 + float(mpmath.stieltjes(1))
    assert exact == pytest.approx(asym, abs=1e-5)


def _leading_term(ell: int, y: float) -> float:
    """(log n)^(ell+1)/(ell+1) plus the Stieltjes constant at n = floor(y),
    a test-only oracle with log n from mpmath."""
    log_n = mpmath.log(math.floor(y))
    return float(log_n ** (ell + 1) / (ell + 1) + mpmath.stieltjes(ell))


def test_log_power_sum_leading_term_at_giant_y():
    for ell in range(7):
        assert resonator.log_power_sum(ell, 1e300) == pytest.approx(
            _leading_term(ell, 1e300), rel=1e-15), ell
    # ell = 200 at log y = 34, where (log y)^ell / ell! is near the top of
    # float range; the dropped O((log y)^ell / y) is 1e-14 of the sum here
    y = math.exp(34.0)
    assert resonator.log_power_sum(200, y) == pytest.approx(_leading_term(200, y), rel=1e-13)


def test_log_power_sum_rejects_non_finite_y():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="y must be finite"):
            resonator.log_power_sum(1, bad)


def test_log_power_sum_beyond_float64_raises():
    # past the top of float range on both routes: the direct sum below 30,
    # where a float power overflows, and Euler-Maclaurin beyond, where the
    # integral and the half-terms do; no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ell, y in ((1000, 29), (250, 1e15), (200, 1e100)):
            with pytest.raises(PrecisionUnreachableError, match="float64"):
                resonator.log_power_sum(ell, y)
        assert math.isfinite(resonator.log_power_sum(200, 1e14))


def test_bookkeeping_checks_ell_before_any_sum(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("S1 summed before ell was checked")

    monkeypatch.setattr(resonator, "log_power_sum", no_work)
    with pytest.raises(ValueError, match="ell > 200: coefficient growth guard"):
        resonator.proof_bookkeeping(250, dickman.build_rho_table(4, 1e-10),
                                    log_T=1e15 * math.log(10))


def test_bookkeeping_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        # log T below e^e
        resonator.proof_bookkeeping(0, dickman.build_rho_table(4, 1e-10), log_T=math.log(100.0))
    with pytest.raises(OutOfRegimeError):
        # log T just above e^e but y <= 1
        resonator.proof_bookkeeping(0, dickman.build_rho_table(4, 1e-10), log_T=20.0)
    # non-finite scales, including log10 T = 1e308 whose log T overflows
    table = dickman.build_rho_table(4, 1e-10)
    for bad in (1e308 * LOG10, math.inf, math.nan, 10**400):
        with pytest.raises(OutOfRegimeError):
            resonator.proof_bookkeeping(1, table, log_T=bad)


def test_bookkeeping_rejects_u_R_beyond_table():
    # u_R = 6.135 > max_u = 4: S2 needs rho and its integrals beyond the table
    table = dickman.build_rho_table(4.0, 1e-12)
    with pytest.raises(OutOfDomainError, match=r"6\.13\d*\].*\[0, 4\.0\]"):
        resonator.proof_bookkeeping(6, table, log_T=1e8 * LOG10)


def test_bookkeeping_trends(table60):
    for ell in (0, 1, 2):
        sums, k2s = [], []
        for k in (3, 4, 5, 6):
            r = resonator.proof_bookkeeping(ell, table60, log_T=10**k * LOG10)
            sums.append((r.S1 + r.S2) / r.predicted)
            k2s.append(r.K2_bound / r.predicted)
        # moving toward 1 (from below), K2 share decreasing and below 1
        assert all(abs(b - 1) < abs(a - 1) for a, b in zip(sums, sums[1:]))
        assert all(a > b for a, b in zip(k2s, k2s[1:]))
        assert all(v < 1 for v in k2s)


def test_bookkeeping_s1_constant_for_tiny_y(table60):
    # at k=3 the derived y is 1.65: S1 keeps only k=1
    r = resonator.proof_bookkeeping(0, table60, log_T=10**3 * LOG10)
    assert r.S1 == 1.0
    assert 1.0 < r.y < 2.0


def test_bookkeeping_k2_formula(table60):
    r = resonator.proof_bookkeeping(2, table60, log_T=10**5 * LOG10)
    l2, l3 = r.log2_T, r.log3_T
    assert r.K2_bound == pytest.approx(EXP_GAMMA**2 * l2 ** (2 - 1) * l3 ** (2 + 1), rel=1e-12)


def test_bookkeeping_k1_restriction_fields(table60):
    r = resonator.proof_bookkeeping(0, table60, log_T=10**5 * LOG10)
    assert r.k1_exponent_cap == pytest.approx(r.log2_T**3 / r.log3_T, rel=1e-12)
    assert r.k1_inner_floor == pytest.approx(1.0 - 2.0 / r.log3_T, rel=1e-12)
    assert 0.0 < r.k1_inner_floor < 1.0
