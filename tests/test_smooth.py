import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zetamax import dirichlet, smooth
from zetamax.errors import ResourceLimitError
from zetamax.smooth import Character, Trivial, Unimodular


def _largest_prime_factor_oracle(n: int) -> int:
    # trial division, independent of the sieve under test
    if n == 1:
        return 1
    r = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            r = d
            n //= d
        d += 1
    return max(r, n) if n > 1 else r


def _spf_loop_oracle(limit: int) -> np.ndarray:
    # the per-n ascending sieve that the two-phase kernel replaced
    table = np.zeros(limit + 1, dtype=np.int32)
    table[1] = 1
    for p in range(2, limit + 1):
        if table[p] == 0:
            table[p::p] = p
    return table


def test_spf_sieve_matches_trial_division_at_every_n():
    # every small limit, and limits at p^2 - 1, p^2, p^2 + 1 where the
    # split between slice passes and the large-prime pass moves
    limits = list(range(2, 401)) + [p * p + d for p in (31, 37) for d in (-1, 0, 1)]
    oracle = [0] + [_largest_prime_factor_oracle(n) for n in range(1, max(limits) + 1)]
    for limit in limits:
        assert smooth.spf_sieve(limit).tolist() == oracle[: limit + 1], limit


def test_spf_sieve_matches_loop_sieve():
    limit = 2 * 10**5
    assert np.array_equal(smooth.spf_sieve(limit), _spf_loop_oracle(limit))


def test_spf_sieve_small():
    s = smooth.spf_sieve(10)
    assert list(s[1:11]) == [1, 2, 3, 2, 5, 3, 7, 2, 3, 5]


def test_spf_sieve_against_factorization_oracle():
    s = smooth.spf_sieve(3000)
    rng = random.Random(7)
    for n in [1, 2, 3, 4] + [rng.randint(2, 3000) for _ in range(200)]:
        assert int(s[n]) == _largest_prime_factor_oracle(n)


def test_spf_prime_and_prime_power_identities():
    s = smooth.spf_sieve(1000)
    for p in (2, 3, 5, 7, 11, 13, 997):
        assert int(s[p]) == p
    for k in range(1, 10):
        assert int(s[2**k]) == 2


def test_spf_limit_guard():
    with pytest.raises(ResourceLimitError):
        smooth.spf_sieve(1)
    with pytest.raises(ResourceLimitError):
        smooth.spf_sieve(10**9)


def test_psi_count_examples():
    assert smooth.psi_count(10, 2).exact_count == 4  # 1, 2, 4, 8
    assert smooth.psi_count(100, 1000).exact_count == 100  # y >= x
    assert smooth.psi_count(100.7, 1000).exact_count == 100
    r = smooth.psi_count(10**6, 100)
    spf = smooth.spf_sieve(10**6)
    assert r.exact_count == 1 + int(np.count_nonzero(spf[2:] <= 100))


def test_psi_count_u_and_approx_fields():
    r = smooth.psi_count(1000.0, 31.6227766)
    assert r.u == pytest.approx(math.log(1000.0) / math.log(31.6227766), rel=1e-12)
    assert r.dickman_approx > 0
    assert r.relative_error == pytest.approx(r.exact_count / r.dickman_approx - 1, rel=1e-12)


def test_psi_count_validation():
    with pytest.raises(ValueError):
        smooth.psi_count(0.5, 10)
    with pytest.raises(ValueError):
        smooth.psi_count(10, 1.5)
    with pytest.raises(ValueError, match="y must be"):
        smooth.psi_count(100, math.nan)
    with pytest.raises(ValueError, match="y must be"):
        smooth.psi_count(100, math.inf)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_twisted_sums_reject_non_finite_x(x):
    with pytest.raises(ValueError, match="x must be finite"):
        smooth.smooth_twisted_sum(x, 5, Trivial())
    with pytest.raises(ValueError, match="x must be finite"):
        smooth.full_twisted_sum(x, Trivial())


def test_twisted_sums_below_one_are_empty():
    assert smooth.smooth_twisted_sum(0.5, 5, Unimodular(1.5)) == 0j
    assert smooth.full_twisted_sum(-3.0, Unimodular(1.5)) == 0j
    for y in (math.inf, math.nan, 1.5):
        with pytest.raises(ValueError, match="y must be"):
            smooth.smooth_twisted_sum(300, y, Unimodular(1.5))


def test_enumeration_matches_sieve_everywhere():
    limit = 20000
    spf = smooth.spf_sieve(limit)
    for y in (2, 3, 5, 10, 30, 64):
        enum = sorted(smooth.iter_smooth(limit, y))
        sieved = [1] + [n for n in range(2, limit + 1) if spf[n] <= y]
        assert enum == sieved


def test_route_choice_sieves_no_primes_beyond_the_sieve(monkeypatch):
    # isqrt(1e8) = 1e4 is the largest argument spf_sieve passes; the route
    # test for a large y must not sieve up to y
    expected = 1 + int(np.count_nonzero(smooth.spf_sieve(10**6)[2:] <= 5 * 10**5))
    bounded = smooth.sieve_primes

    def refuse_large(n):
        assert n <= 10**4, f"sieve_primes({n})"
        return bounded(n)

    monkeypatch.setattr(smooth, "sieve_primes", refuse_large)
    assert smooth.psi_count(1e6, 5e5).exact_count == expected
    assert smooth.smooth_twisted_sum(1e6, 5e5, Trivial()) == expected


def test_psi_count_beyond_int64():
    # the enumeration route keeps exact Python ints above 2^63
    x = 10**20
    count = sum(1 for a in range(67) for b in range(42) if 2**a * 3**b <= x)
    assert smooth.psi_count(1e20, 3).exact_count == count
    assert smooth.smooth_twisted_sum(1e20, 3, Trivial()) == count


def test_character_twist_beyond_int64(chi7):
    # second route: chi_value on exact Python ints, summed by fsum; the two
    # routes round each root of unity on their own, within 2 eps per term
    x = 10**20
    values = [chi7.chi_value(1, 2**a * 3**b)
              for a in range(67) for b in range(42) if 2**a * 3**b <= x]
    expected = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    got = smooth.smooth_twisted_sum(1e20, 3, Character(chi7, 1))
    assert abs(got - expected) <= len(values) * 2 * np.finfo(float).eps


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(smooth, "_ENUM_NODE_BUDGET", 50)
    with pytest.raises(ResourceLimitError):
        list(smooth.iter_smooth(10**6, 70))


def _recursive_smooth_oracle(x: int, primes: list[int]):
    # the exponent-vector depth-first generator that the level-by-level
    # build replaced: each node extends its product by a prime >= its last
    def rec(i, prod):
        yield prod
        for j in range(i, len(primes)):
            nxt = prod * primes[j]
            if nxt > x:
                break
            yield from rec(j, nxt)

    return rec(0, 1)


_ORACLE_CAP = 2 * 10**5


@given(e=st.floats(0.0, 9.0), k=st.integers(1, 20))
def test_enumeration_matches_recursive_oracle(e, k):
    x = int(10**e)
    primes = _PRIMES_TO_71[:k]
    expected = list(itertools.islice(_recursive_smooth_oracle(x, primes), _ORACLE_CAP + 1))
    assume(len(expected) <= _ORACLE_CAP)
    assert sorted(smooth.iter_smooth(x, primes[-1])) == sorted(expected)


def test_psi_5_smooth_at_1e12_by_exponent_loop():
    # beyond the sieve (1e8) and the old tests: every 2^a 3^b 5^c <= 1e12
    x = 10**12
    count = sum(1 for a in range(40) for b in range(26) for c in range(18)
                if 2**a * 3**b * 5**c <= x)
    assert smooth.psi_count(1e12, 5).exact_count == count
    assert sum(1 for _ in smooth.iter_smooth(1e12, 5)) == count


def test_enumeration_budget_edge(monkeypatch):
    x, y = 10**5, 13
    psi = 1 + int(np.count_nonzero(smooth.spf_sieve(x)[2:] <= y))
    monkeypatch.setattr(smooth, "_ENUM_NODE_BUDGET", psi)
    assert sorted(smooth.iter_smooth(x, y)) == [
        n for n in range(1, x + 1) if _largest_prime_factor_oracle(n) <= y]
    monkeypatch.setattr(smooth, "_ENUM_NODE_BUDGET", psi - 1)
    with pytest.raises(ResourceLimitError):
        next(smooth.iter_smooth(x, y))  # on the first next(), before any number


def test_over_budget_enumeration_raises_in_small_memory(monkeypatch):
    # Psi(1e15, 71) is ~3.5e8; the budget is checked before each level grows
    monkeypatch.setattr(smooth, "_ENUM_NODE_BUDGET", 10**5)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            next(smooth.iter_smooth(1e15, 71))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_twist_validation(chi5):
    with pytest.raises(ValueError):
        Unimodular(math.inf)
    with pytest.raises(ValueError):
        Character(chi5, 4)  # rows are 0..q-2
    Character(chi5, 0)  # principal row is a valid twist (coprime filter)


def test_trivial_twist_equals_count():
    v = smooth.smooth_twisted_sum(5000, 13, Trivial())
    assert v.imag == 0.0
    assert v.real == smooth.psi_count(5000, 13).exact_count


def test_unimodular_zero_t_equals_trivial():
    a = smooth.smooth_twisted_sum(3000, 7, Unimodular(0.0))
    b = smooth.smooth_twisted_sum(3000, 7, Trivial())
    assert a == b


def test_character_full_period_vanishes(chi5):
    v = smooth.smooth_twisted_sum(5, 10, Character(chi5, 1))
    assert abs(v) < 1e-12
    # direct summation oracle from the character table itself
    direct = sum(chi5.chi_value(1, a) for a in range(1, 6))
    assert abs(direct) < 1e-12


def test_full_twisted_sum_trivial_and_unimodular():
    assert smooth.full_twisted_sum(10.9, Trivial()) == 10 + 0j
    assert smooth.full_twisted_sum(1.0, Unimodular(5.0)) == 1 + 0j


def test_full_twisted_sum_character_periods(chi7):
    for j in range(1, 6):
        assert abs(smooth.full_twisted_sum(7, Character(chi7, j))) < 1e-12
    # principal character counts coprime residues
    v = smooth.full_twisted_sum(14, Character(chi7, 0))
    assert v.real == pytest.approx(12.0, abs=1e-9)


@pytest.mark.parametrize("q", [7, 101])
def test_full_character_sum_reduces_over_full_periods(q, chi7, chi101):
    # orthogonality: a period sums to 0 off the principal row, so only the
    # partial period is left, at any number of full periods
    table = {7: chi7, 101: chi101}[q]
    ks = (1, 2, 3, 10**6, 10**13, 14 * 10**13)
    for j in range(1, q - 1):
        twist = Character(table, j)
        for r in (0, 1, q // 2, q - 1):
            partial = smooth.full_twisted_sum(r, twist)
            for k in ks:
                assert smooth.full_twisted_sum(k * q + r, twist) == partial, (j, k, r)
    # the principal row counts the n coprime to q, exactly below 2^53
    principal = Character(table, 0)
    for r in (0, 1, q - 1):
        for k in ks[:-1]:
            assert smooth.full_twisted_sum(k * q + r, principal) == k * (q - 1) + r


def test_full_unimodular_against_direct_fsum():
    t = 3.75
    x = 4096
    direct_re = math.fsum(math.cos(t * math.log(n)) for n in range(1, x + 1))
    direct_im = math.fsum(-math.sin(t * math.log(n)) for n in range(1, x + 1))
    v = smooth.full_twisted_sum(x, Unimodular(t))
    assert v.real == pytest.approx(direct_re, abs=1e-9)
    assert v.imag == pytest.approx(direct_im, abs=1e-9)


def test_triangle_identity_three_way(chi5):
    x = 10**5
    for twist in (Trivial(), Unimodular(2.5), Character(chi5, 1)):
        full = smooth.full_twisted_sum(x, twist)
        sm = smooth.smooth_twisted_sum(x, 13, twist)
        non = smooth.nonsmooth_twisted_sum(x, 13, twist)
        assert abs(full - (sm + non)) < 1e-8


# trivial, character and unimodular twists; |t| log x passes 1e8 for t >= 8e6
_twists = st.one_of(
    st.just(Trivial()),
    st.builds(lambda q, u: Character(dirichlet.shared_character_table(q), int(u * (q - 1))),
              st.sampled_from([5, 7, 101, 10007]), st.floats(0.0, 1.0, exclude_max=True)),
    st.builds(Unimodular, st.floats(-1e9, 1e9)),
)
_PRIMES_TO_71 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


@given(x=st.integers(3, 2 * 10**5), k=st.integers(1, 20), twist=_twists)
def test_enumeration_and_sieve_routes_agree_bit_for_bit(x, k, twist):
    y = _PRIMES_TO_71[k - 1]  # pi(y) = k <= 20, so enumeration runs by default
    enum = smooth.smooth_twisted_sum(x, y, twist)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smooth, "_ENUM_PRIME_BOUND", 0)
        sieved = smooth.smooth_twisted_sum(x, y, twist)
    assert enum == sieved


@given(x=st.integers(2, 2 * 10**5), y=st.floats(2.0, 1000.0), twist=_twists)
def test_full_equals_smooth_plus_nonsmooth(x, y, twist):
    full = smooth.full_twisted_sum(x, twist)
    sm = smooth.smooth_twisted_sum(x, y, twist)
    non = smooth.nonsmooth_twisted_sum(x, y, twist)
    assert abs(full - (sm + non)) < 1e-8  # the bound of the triangle test


def test_modulus_bounded_by_count(chi7):
    x, y = 20000, 50
    count = smooth.psi_count(x, y).exact_count
    for twist in (Unimodular(9.25), Character(chi7, 2)):
        assert abs(smooth.smooth_twisted_sum(x, y, twist)) <= count + 1e-9


def test_profile_trivial_identity():
    x = 5000
    recs = smooth.approximation_error_profile(x, Trivial(), [2, 10, 100])
    for r in recs:
        expected = x - smooth.psi_count(x, r.y).exact_count
        assert r.discrepancy == pytest.approx(expected, abs=1e-9)
        assert r.ratio == pytest.approx(expected / r.psi_xy, rel=1e-12)


def test_profile_y_at_least_x_gives_zero():
    recs = smooth.approximation_error_profile(100, Unimodular(4.2), [200])
    assert recs[0].discrepancy == 0.0


def test_profile_character_mod_10007():
    from zetamax import dirichlet

    t = dirichlet.shared_character_table(10007)
    recs = smooth.approximation_error_profile(10007, Character(t, 1), [500])
    assert math.isfinite(recs[0].ratio)
    # internal identity: |full - smooth| equals |sum over non-smooth n|
    non = smooth.nonsmooth_twisted_sum(10007, 500, Character(t, 1))
    assert recs[0].discrepancy == pytest.approx(abs(non), abs=1e-8)


def test_profile_validation():
    with pytest.raises(ValueError):
        smooth.approximation_error_profile(100, Trivial(), [1.5])


def test_profile_csv_shape():
    recs = smooth.approximation_error_profile(100, Trivial(), [2, 4])
    text = smooth.profile_to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "y,discrepancy,psi_xy,ratio"
    assert len(lines) == 3


def _whole_period_sum(x: int, twist: Character) -> complex:
    # the period evaluated at once, as one cumsum over 1..q
    q = twist.table.q
    prefix = np.cumsum(twist.table.chi_vector(twist.j, np.arange(1, q + 1, dtype=np.int64)))
    full, rem = divmod(x, q)
    total = full * complex(prefix[-1]) if twist.j == 0 else 0j
    if rem:
        total += complex(prefix[rem - 1])
    return total


@pytest.mark.parametrize("q", [7, 101, 99991])
def test_blockwise_period_sum_equals_the_whole_period_cumsum(q):
    # the carried prefix makes the same additions in the same order as one
    # cumsum over the period, across block boundaries too
    table = dirichlet.build_character_table(q)
    rng = np.random.default_rng(q)
    xs = [1, q - 1, q, q + 1, 3 * q + 5, 2**16, 2**16 + 1, 5 * 10**6, 10**15,
          *rng.integers(1, 3 * q, 8).tolist()]
    for j in (0, 1, q - 2, int(rng.integers(1, q - 1))):
        twist = Character(table, j)
        for x in xs:
            got, want = smooth.full_twisted_sum(float(x), twist), _whole_period_sum(x, twist)
            assert got == want and repr(got) == repr(want), (q, j, x)


def test_full_character_sum_memory_is_a_few_blocks():
    # one period at q = 10^6 + 3 at once traced 61 MB
    twist = Character(dirichlet.shared_character_table(10**6 + 3), 7)
    tracemalloc.start()
    try:
        smooth.full_twisted_sum(5e6, twist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak
