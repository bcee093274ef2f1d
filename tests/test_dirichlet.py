import dataclasses
import io
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zetamax import cli, dirichlet, resonator, sums
from zetamax.errors import PrincipalCharacterError, ResourceLimitError

# L(1, chi) for the quadratic character mod 5 equals 2 log((1+sqrt5)/2)/sqrt5
# (real-quadratic class number formula; h = 1, fundamental unit = golden
# ratio).  Verified against the alternating-structure oracle below.
L1_CHI5 = 0.4304089409640040


def test_build_table_mod5_hand_values(chi5):
    assert chi5.generator == 2
    assert int(chi5.dlog[2]) == 1
    assert int(chi5.dlog[4]) == 2
    assert int(chi5.dlog[3]) == 3
    assert int(chi5.dlog[1]) == 0


def test_build_table_validation():
    with pytest.raises(ValueError):
        dirichlet.build_character_table(10)  # composite
    with pytest.raises(ValueError):
        dirichlet.build_character_table(2)
    with pytest.raises(ValueError):
        dirichlet.build_character_table(10**7 + 19)


def _dlog_loop_oracle(q: int, g: int) -> np.ndarray:
    # the sequential power loop that the blockwise build replaced
    dlog = np.empty(q, dtype=np.int64)
    dlog[0] = -1
    acc = 1
    for e in range(q - 1):
        dlog[acc] = e
        acc = (acc * g) % q
    return dlog


@pytest.mark.parametrize("q", [3, 5, 7, 11, 101, 10007, 99991])
def test_dlog_matches_power_loop(q):
    table = dirichlet.build_character_table(q)
    assert np.array_equal(table.dlog, _dlog_loop_oracle(q, table.generator))


def test_verify_table_rejects_swapped_logs():
    # swapping two entries keeps the table a bijection; the exact successor
    # check must still reject it, whatever the sampled pow checks draw
    table = dirichlet.build_character_table(99991)
    dlog = table.dlog.copy()
    dlog[[2, 3]] = dlog[[3, 2]]
    with pytest.raises(AssertionError, match=r"dlog\[a g\]"):
        dirichlet._verify_table(dataclasses.replace(table, dlog=dlog))


def test_verify_table_rejects_non_bijection():
    table = dirichlet.build_character_table(101)
    for bad in (table.dlog[3], -1, table.order):
        dlog = table.dlog.copy()
        dlog[2] = bad
        with pytest.raises(AssertionError, match=r"dlog\[a g\]"):
            dirichlet._verify_table(dataclasses.replace(table, dlog=dlog))


def _certified(table, dlog) -> bool:
    try:
        dirichlet._verify_table(dataclasses.replace(table, dlog=dlog))
    except AssertionError:
        return False
    return True


@pytest.mark.parametrize("q, generator, values", [(5, None, range(-1, 5)),
                                                  (7, None, range(6)),
                                                  (7, 2, range(6))])
def test_verify_table_accepts_exactly_the_discrete_log(q, generator, values):
    # every table with entries in `values` at 1..q-1 (the certificate never
    # reads dlog[0]): it must accept the power loop's table and no other,
    # and none at all over 2, which has order 3 mod 7
    table = dirichlet.build_character_table(q)
    if generator is not None:
        table = dataclasses.replace(table, generator=generator)
    accepted = [dlog for dlog in (np.array((-1, *entries), dtype=np.int64)
                                  for entries in itertools.product(values, repeat=q - 1))
                if _certified(table, dlog)]
    if generator is None:
        assert len(accepted) == 1
        assert np.array_equal(accepted[0], _dlog_loop_oracle(q, table.generator))
    else:
        assert accepted == []


def test_table_build_traces_little_beyond_the_table():
    # the successor relation is checked block by block, so the build holds
    # dlog and a few block-length temporaries, not several q-length arrays
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = dirichlet.build_character_table(10**6 + 3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= table.dlog.nbytes + 4 * 2**20, peak


def test_family_arguments_are_checked_before_any_table_is_built(monkeypatch):
    def no_table(q):
        raise AssertionError(f"table mod {q} built before the arguments were checked")

    dirichlet.shared_character_table.cache_clear()
    monkeypatch.setattr(dirichlet, "build_character_table", no_table)
    for ell, N, error in [(0, 1, ValueError), (1, 1000.0, ValueError),
                          (1, 10**9, ResourceLimitError), (5, 100, ValueError)]:  # 5 > log 100
        with pytest.raises(error):
            dirichlet.max_over_characters(ell, 101, N)
    with pytest.raises(ValueError, match="y=200"):
        dirichlet.resonance_quotient(0, 101, resonator.make_spec(200, 2))
    # N = ceil(101^(3/4)) = 32, as l-max --q 101 --ell 5 --N 32 reads it
    with pytest.raises(ValueError, match="log N"):
        dirichlet.resonance_quotient(1000, 101, resonator.make_spec(3, 2))
    for argv, code in [("resonance-quotient --q 101 --ell 1000 --y 3 --b 2", 2),
                       ("l-max --q 9999991 --ell 1 --N 1000000000", 3),
                       ("l-max --q 9999991 --ell 5 --N 100", 2),
                       ("l-max --q 9999991 --ell 0 --N 1", 2),
                       ("l-eval --q 9999991 --j 1 --ell 9 --N 1000", 2),
                       ("l-eval --q 9999991 --j 1 --ell 1 --N 1000000000", 3),
                       ("l-eval --q 9999991 --j 1 --ell 0 --N 1", 2)]:
        assert cli.main(argv.split()) == code, argv


def test_principal_character_is_one(chi5):
    for a in range(1, 5):
        assert chi5.chi_value(0, a) == 1
    assert chi5.chi_value(0, 10) == 0  # multiple of q


def test_row_orthogonality_direct(chi7):
    for j in range(1, 6):
        s = sum(chi7.chi_value(j, a) for a in range(1, 7))
        assert abs(s) < 1e-12
    s0 = sum(chi7.chi_value(0, a) for a in range(1, 7))
    assert s0 == pytest.approx(6.0)


def test_column_orthogonality_direct(chi7):
    for a in range(2, 7):
        s = sum(chi7.chi_value(j, a) for j in range(6))
        assert abs(s) < 1e-12
    s1 = sum(chi7.chi_value(j, 1) for j in range(6))
    assert s1 == pytest.approx(6.0)


def test_character_multiplicativity(chi101):
    rng = random.Random(3)
    for _ in range(50):
        a, b, j = rng.randint(1, 100), rng.randint(1, 100), rng.randint(0, 99)
        lhs = chi101.chi_value(j, (a * b) % 101)
        rhs = chi101.chi_value(j, a) * chi101.chi_value(j, b)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_chi_vector_matches_scalar(chi7):
    ns = np.arange(1, 50, dtype=np.int64)
    for j in range(6):
        vec = chi7.chi_vector(j, ns)
        for i, n in enumerate(ns):
            assert vec[i] == pytest.approx(chi7.chi_value(j, int(n)), abs=1e-12)


# unit roundoff; every route below rounds e^(2 pi i e/(q-1)) with |.| = 1
U = 2.0**-53
# the phase 2 pi e/(q-1) from np.pi (or math.pi), one division and one
# product carries relative error 3U on a phase below 2 pi, and a libm cos or
# sin of a value in [-1, 1] errs by at most U
ARGUMENT_ERR = 3 * U * 2 * math.pi
CHI_VALUE_ERR = ARGUMENT_ERR + math.sqrt(2) * U
# chi_vector: the phase split over two table entries (the two argument errors
# add up to the bound on one phase), two rounded unit values, and one complex
# product, which errs by at most sqrt(5) U (Brent, Percival and Zimmermann)
CHI_VECTOR_ERR = ARGUMENT_ERR + 2 * math.sqrt(2) * U + math.sqrt(5) * U


@pytest.mark.parametrize("q", [3, 5, 7, 101, 1019, 99991, 1000003])
def test_chi_vector_accuracy(q):
    table = dirichlet.shared_character_table(q)
    rng = np.random.default_rng(q)
    ns = np.concatenate([np.arange(1, min(2 * q + 1, 5000) + 1),
                         rng.integers(1, 10**15, 5000), q * rng.integers(1, 10**9, 50)])
    multiple = ns % q == 0
    js = {0, 1, q - 2, (q - 1) // 2, *(int(j) for j in rng.integers(0, q - 1, 4))}
    for j in sorted(js):
        got = table.chi_vector(j, ns)
        assert np.all(got[multiple] == 0)
        e = (j * table.dlog[ns[~multiple] % q]) % table.order
        theta = sums.TWO_PI_LD * e.astype(np.longdouble) / table.order
        exact_re, exact_im = np.cos(theta), np.sin(theta)
        vals = got[~multiple]
        err = np.hypot((vals.real - exact_re).astype(np.float64),
                       (vals.imag - exact_im).astype(np.float64))
        assert err.max() <= CHI_VECTOR_ERR, (j, err.max() / U)
        for i in rng.integers(0, vals.size, 20):
            n = int(ns[~multiple][i])
            scalar = table.chi_value(j, n)
            want = complex(exact_re[i], exact_im[i])
            assert abs(scalar - want) <= CHI_VALUE_ERR, (j, n)
            assert abs(vals[i] - scalar) <= CHI_VECTOR_ERR + CHI_VALUE_ERR, (j, n)


@pytest.mark.parametrize("q", [3, 101, 1000003])
def test_chi_vector_exact_values(q):
    table = dirichlet.shared_character_table(q)
    ns = np.arange(1, min(3 * q, 10**5) + 1, dtype=np.int64)
    assert np.all(table.chi_vector(0, ns)[ns % q != 0] == 1 + 0j)
    for j in (0, 1, q - 2):
        assert np.all(table.chi_vector(j, ns)[ns % q == 0] == 0)
    # n >= 2^63 as Python ints in an object array: the same exact exponents,
    # so the same values as their residues
    big = np.array([2**63 + k for k in range(min(3 * q, 10**4))] + [q * 2**70], dtype=object)
    small = np.array([int(n) % q for n in big], dtype=np.int64)
    for j in (0, 1, (q - 1) // 2, q - 2):
        assert np.array_equal(table.chi_vector(j, big), table.chi_vector(j, small))
    assert table.chi_vector(1, big)[-1] == 0


def test_chi_vector_memory_is_independent_of_q():
    # a table of all q - 1 roots of unity would hold 16 MB at q = 10^6 + 3,
    # beside the 8 MB discrete-log table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = dirichlet.build_character_table(10**6 + 3)
        kept = tracemalloc.get_traced_memory()[0] - before
        ns = np.arange(1, sums.CHUNK + 1, dtype=np.int64)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        table.chi_vector(12345, ns)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert kept <= table.dlog.nbytes + 2 * 2**20, kept
    assert peak <= 6 * 2**20, peak  # a few block-length temporaries


@pytest.mark.parametrize("q", [3, 7, 101, 99991, 1000003])
def test_chi_values_do_not_depend_on_the_array_length(q):
    # numpy multiplies a one-element complex array in place by its scalar
    # path, one ulp off the vector loop for about 45% of products; every 1-
    # and 2-element slice must give the bits of the whole range
    table = dirichlet.shared_character_table(q)
    rng = np.random.default_rng(q)
    starts = range(q) if q <= 101 else sorted(rng.integers(0, q - 1, 300).tolist())
    for j in (1, (q - 1) // 2, q - 2):
        residues = table.chi_residues(j, 0, q)
        ns = np.arange(q, 2 * q + 1, dtype=np.int64)  # residues 0..q-1, then 0
        whole = table.chi_vector(j, ns)
        assert np.array_equal(whole[:q], residues)
        for lo in starts:
            for size in (1, 2):
                hi = min(lo + size, q)
                assert np.array_equal(table.chi_residues(j, lo, hi), residues[lo:hi]), (j, lo)
                got = table.chi_vector(j, ns[lo : lo + size])
                assert np.array_equal(got, whole[lo : lo + size]), (j, lo)
        for lo, hi in [(1, 2), (q - 1, q + 2), (q, 3 * q + 5), (5 * q + 1, 5 * q + 2)]:
            assert np.array_equal(table.chi_range(j, lo, hi),
                                  table.chi_vector(j, np.arange(lo, hi, dtype=np.int64)))


# ---------------------------------------------------------------------------
# truncated L-derivative sums

def _alternating_oracle_mod5(periods: int) -> float:
    # chi(1)=chi(4)=1, chi(2)=chi(3)=-1: group four terms per period
    total = math.fsum(
        1.0 / (5 * m + 1) - 1.0 / (5 * m + 2) - 1.0 / (5 * m + 3) + 1.0 / (5 * m + 4)
        for m in range(periods)
    )
    return total


def test_l_value_mod5_against_classical_and_oracle(chi5):
    oracle = _alternating_oracle_mod5(10**5)
    assert oracle == pytest.approx(L1_CHI5, abs=1e-10)
    r = dirichlet.l_derivative_truncated(0, chi5, 2, 5 * 10**5)
    assert r.value.imag == pytest.approx(0.0, abs=1e-12)
    assert r.value.real == pytest.approx(L1_CHI5, abs=1e-6)
    assert r.error_scale == pytest.approx(
        math.sqrt(5) * math.log(5) * 1.0 / (5 * 10**5), rel=1e-12
    )


def test_real_character_even_ell_real_valued(chi5):
    r = dirichlet.l_derivative_truncated(2, chi5, 2, 10**4)
    assert abs(r.value.imag) < 1e-10


def test_conjugate_characters_conjugate_values(chi5, chi7):
    for table, pairs in ((chi5, [(1, 3)]), (chi7, [(1, 5), (2, 4)])):
        for j, jc in pairs:
            a = dirichlet.l_derivative_truncated(1, table, j, 4096).value
            b = dirichlet.l_derivative_truncated(1, table, jc, 4096).value
            assert a == pytest.approx(b.conjugate(), abs=1e-12)


def test_principal_rejected(chi5):
    with pytest.raises(PrincipalCharacterError):
        dirichlet.l_derivative_truncated(0, chi5, 0, 100)


def test_l_eval_validation(chi5):
    with pytest.raises(ValueError):
        dirichlet.l_derivative_truncated(0, chi5, 9, 100)
    with pytest.raises(ValueError):
        dirichlet.l_derivative_truncated(8, chi5, 1, 100)  # ell > log N
    with pytest.raises(ResourceLimitError):
        dirichlet.l_derivative_truncated(0, chi5, 1, 10**9)
    with pytest.raises(ValueError, match="integer"):
        dirichlet.l_derivative_truncated(1, chi5, 3, 1000.5)


def test_fft_family_matches_direct(chi101):
    # entries j = 0..50, and through the conjugate mirror j = 51..99; the
    # family sums are plain, and L' = -sum chi(k) log(k) / k
    vals = dirichlet._mirrored(dirichlet._l_values_all_characters(1, chi101, 3000))
    for j in (1, 2, 17, 50, 99):
        direct = dirichlet.l_derivative_truncated(1, chi101, j, 3000).value
        assert -vals[j] == pytest.approx(direct, abs=1e-10)


def test_max_over_characters():
    res = dirichlet.max_over_characters(0, 101, 2000)
    assert len(res.all_moduli) == 99
    assert res.modulus == np.max(res.all_moduli)
    assert res.all_moduli[res.j_star - 1] == res.modulus
    # conjugation symmetry: modulus[j] = modulus[q-1-j], exactly
    assert np.array_equal(res.all_moduli, res.all_moduli[::-1])
    # the smaller index of the conjugate pair wins the tie
    assert res.j_star <= (101 - 1) // 2
    # argmax exceeds the family mean
    assert res.modulus > np.mean(res.all_moduli)


def test_family_moduli_do_not_depend_on_the_block_size(monkeypatch):
    # each class sum adds its terms one at a time in ascending k, so where
    # the blocks are cut cannot move a bit (10**5 spans 100, 2 and 1 blocks)
    moduli = []
    for chunk in (1000, 2**16, 2**20):
        monkeypatch.setattr(sums, "CHUNK", chunk)
        moduli.append(dirichlet.max_over_characters(1, 10007, 10**5).all_moduli)
    assert np.array_equal(moduli[0], moduli[1])
    assert np.array_equal(moduli[0], moduli[2])


def _family_reference(ell, table, N):
    # the per-block np.add.at loop that the residue sums replaced
    class_sums = np.zeros(table.order, dtype=np.float64)
    for ns in sums.chunks(1, N):
        r = ns % table.q
        keep = r != 0
        np.add.at(class_sums, table.dlog[r[keep]], sums.log_weights(ns[keep], ell))
    return dirichlet._family_sums(table, class_sums[table.dlog])


def _chi_vector_in_place(table, j, ns):
    # chi_vector as it was, with the root product in place
    r = ns % table.q
    e = (j * table.dlog[r]) % table.order
    vals = table.roots_hi[e >> table.split_bits]
    vals *= table.roots_lo[e & ((1 << table.split_bits) - 1)]
    vals[r == 0] = 0.0
    return vals


def _l_reference(ell, table, j, N, chi_vector):
    # the per-block chi_vector loop that the residue runs replaced, with the
    # sign (-1)^ell applied to the sum, as l_derivative_truncated applies it
    def block_sum(ns):
        terms = chi_vector(j, ns)
        terms *= sums.log_weights(ns, ell)
        return np.sum(terms)

    value = sums.compensated_sum(map(block_sum, sums.chunks(1, N)))
    return -value if ell % 2 else value


_REFERENCE_QS = (3, 5, 7, 11, 101, 99991)


@st.composite
def _sum_cases(draw):
    """(ell, q, j, N): N near q or 2q, an exact multiple of q, or 2^16 k +- 1."""
    q = draw(st.sampled_from(_REFERENCE_QS))
    j = draw(st.sampled_from([1, min(2, q - 2), (q - 1) // 2, q - 2]))  # 1 <= j <= q - 2
    near = draw(st.sampled_from(["q", "2q", "multiple", "block"]))
    if near == "q":
        N = q + draw(st.integers(-3, 3))
    elif near == "2q":
        N = 2 * q + draw(st.integers(-3, 3))
    elif near == "multiple":
        N = q * draw(st.integers(1, max(1, 3 * sums.CHUNK // q)))
    else:
        N = sums.CHUNK * draw(st.integers(1, 3)) + draw(st.sampled_from([-1, 1]))
    N = max(N, 2)
    ell = min(draw(st.integers(0, 3)), math.floor(math.log(N)))
    return ell, q, j, N


@given(case=_sum_cases())
@example(case=(1, 101, 50, 2**16 + 1))  # the in-place product moved this value's last bit
@example(case=(3, 99991, 49995, 2**17 + 1))
def test_sums_by_residue_equal_the_per_term_references(case):
    ell, q, j, N = case
    table = dirichlet.shared_character_table(q)
    assert np.array_equal(dirichlet._l_values_all_characters(ell, table, N),
                          _family_reference(ell, table, N))
    got = dirichlet.l_derivative_truncated(ell, table, j, N).value
    assert got == _l_reference(ell, table, j, N, table.chi_vector)
    # against the old in-place product, only a block of one term may move:
    # N = 2^16 k + 1 leaves one, whose chi value may be one ulp off
    old = _l_reference(ell, table, j, N, lambda j, ns: _chi_vector_in_place(table, j, ns))
    if (N - 1) % sums.CHUNK:
        assert got == old
    else:
        last = sums.log_weights(np.array([N]), ell)[0]
        assert abs(got - old) <= 2 * np.spacing(last) + 2 * np.spacing(abs(got))


@pytest.mark.parametrize("q, head, size", [(3, 2, 7), (3, 0, 3 * 21845 + 1), (7, 6, 1),
                                           (7, 3, 14), (101, 50, 60), (101, 1, 5000)])
def test_residue_sums_add_each_residue_in_ascending_order(q, head, size):
    # a head run, whole periods and a tail run, against one add at a time
    rng = np.random.default_rng(size)
    start = rng.random(q)
    w = rng.random(size) * 10.0 ** rng.integers(-8, 8, size)
    want = start.copy()
    np.add.at(want, (head + np.arange(size)) % q, w)
    got = start.copy()
    dirichlet._add_by_residue(got, head, w)
    assert np.array_equal(got, want)


def test_period_table_is_read_only_and_periodic(chi101):
    period = dirichlet._period_table(chi101, 7, 202)
    assert not period.flags.writeable
    with pytest.raises(ValueError):
        period[3] = 0.0
    ns = np.arange(101, 101 + period.size, dtype=np.int64)  # residues 0, 1, ...
    assert np.array_equal(period, chi101.chi_vector(7, ns))
    assert period.size == 101 + 202  # the period, then the longest block
    assert dirichlet._period_table(chi101, 7, 10**6).size == 101 + sums.CHUNK
    assert dirichlet._period_table(chi101, 7, 201) is None  # N < 2q: runs suffice


def test_period_table_is_never_built_beyond_its_budget(monkeypatch):
    q = 10**6 + 3
    table = dirichlet.shared_character_table(q)
    assert q <= dirichlet._PERIOD_TABLE_MAX_Q
    assert dirichlet._period_table(table, 5, 2 * q).size == q + sums.CHUNK
    monkeypatch.setattr(dirichlet, "_PERIOD_TABLE_MAX_Q", q - 1)
    assert dirichlet._period_table(table, 5, 2 * q) is None
    # the sum then reads residue runs, with a few block temporaries (9 MB
    # with two blocks in flight) and no table, which alone takes 17 MB
    tracemalloc.start()
    try:
        dirichlet.l_derivative_truncated(1, table, 5, 2 * q + 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (q + sums.CHUNK) * 16, peak


def test_period_table_follows_the_block_size(monkeypatch, chi101):
    # the table is sized by CHUNK when the sum runs, as its blocks are, and
    # is filled in blocks of that CHUNK (65537 spans 66 and 1)
    table = dirichlet.shared_character_table(65537)
    for chunk in (1000, 2**17):
        monkeypatch.setattr(sums, "CHUNK", chunk)
        for tab, j, N in ((chi101, 5, 10**6), (table, 3, 3 * 10**5)):
            got = dirichlet.l_derivative_truncated(1, tab, j, N).value
            assert got == _l_reference(1, tab, j, N, tab.chi_vector)
    assert dirichlet._period_table(table, 3, 3 * 10**5).size == 65537 + 2**17


def test_period_table_and_residue_runs_give_the_same_bits(monkeypatch, chi101):
    for N in (202, 5000, 2 * sums.CHUNK + 1, 3 * 10**5):
        with_table = dirichlet.l_derivative_truncated(2, chi101, 33, N).value
        monkeypatch.setattr(dirichlet, "_PERIOD_TABLE_MAX_Q", 0)
        assert dirichlet.l_derivative_truncated(2, chi101, 33, N).value == with_table
        monkeypatch.undo()


@pytest.mark.parametrize("q", [3, 5, 101, 1019, 10007, 1000003])
def test_family_transform_matches_numpy_fft(q):
    # h = (q-1)/2 = 1, smooth, a safe prime (1019, 10007: one row, n1 = 1),
    # and 2 * 3 * 166667, where numpy's full-length FFT runs Bluestein; x is
    # in class order, fed by residue as x[dlog]
    x = np.random.default_rng(q).standard_normal(q - 1)
    h = (q - 1) // 2
    full = np.conj(np.fft.fft(x))
    want = full[: h + 1]
    table = dirichlet.shared_character_table(q)
    got = dirichlet._family_sums(table, x[table.dlog])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    mirrored = dirichlet._mirrored(got)
    assert mirrored.shape == full.shape
    assert np.array_equal(mirrored[: h + 1], got)
    assert np.array_equal(mirrored[:h:-1], np.conj(mirrored[1:h]))  # entry q-1-j is conj(entry j)


_PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def _family_oracle(table, w):
    # the direct DFT sum_a w_a omega^(j dlog[a]) in long double, from the
    # exact exponents j dlog[a] mod q-1, a block of j at a time
    n = table.order
    d = table.dlog[1:]
    wl = w[1:].astype(np.longdouble)
    angle = (2 * _PI_LD / n) * np.arange(n, dtype=np.longdouble)
    cos_t, sin_t = np.cos(angle), np.sin(angle)
    out = np.empty(n // 2 + 1, dtype=np.clongdouble)
    for lo, hi in sums.spans(0, n // 2, 128):
        e = np.outer(np.arange(lo, hi), d) % n
        out.real[lo:hi] = (cos_t[e] * wl).sum(axis=1)
        out.imag[lo:hi] = (sin_t[e] * wl).sum(axis=1)
    return out


@pytest.mark.parametrize("q", [101, 1009, 4099])
def test_family_sums_match_a_long_double_dft(q):
    # h = 50, 504 = 8 * 63, and 2049 = 3 * 683, whose length-683 step runs
    # Bluestein; the inputs are the L coefficients (log k)/k and the 0/1
    # divisor support of resonance_quotient at q
    assert np.finfo(np.longdouble).nmant >= 63  # the oracle needs 80-bit long double
    table = dirichlet.build_character_table(q)
    coefficients = np.zeros(q)
    coefficients[1:] = sums.log_weights(np.arange(1, q), 1)
    support = np.zeros(q)
    support[resonator.divisors_up_to(resonator.make_spec(7, 5), q ** 0.25)] = 1.0
    for w in (coefficients, support):
        err = np.abs(dirichlet._family_sums(table, w) - _family_oracle(table, w))
        assert np.max(err) <= 8 * 2.0**-53 * np.sum(np.abs(w[1:]))


def test_family_sums_never_read_residue_zero(chi101):
    w = np.random.default_rng(0).standard_normal(101)
    w[0] = 0.0
    want = dirichlet._family_sums(chi101, w)
    w[0] = np.nan
    assert dirichlet._family_sums(chi101, w).tobytes() == want.tobytes()


def test_max_over_characters_rejects_negative_ell(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before ell was checked")

    monkeypatch.setattr(dirichlet, "shared_character_table", no_work)
    monkeypatch.setattr(dirichlet, "_l_values_all_characters", no_work)
    with pytest.raises(ValueError):
        dirichlet.max_over_characters(-1, 101, 300)


def test_max_over_characters_contains_real_character_value(chi5):
    res = dirichlet.max_over_characters(0, 5, 10**4)
    real_val = abs(dirichlet.l_derivative_truncated(0, chi5, 2, 10**4).value)
    assert len(res.all_moduli) == 3
    assert any(abs(m - real_val) < 1e-9 for m in res.all_moduli)


def test_max_over_characters_desk_scale():
    # q = 10007 with a million-term truncation: argmax beats the family mean
    res = dirichlet.max_over_characters(1, 10007, 10**6)
    assert len(res.all_moduli) == 10005
    assert res.j_star <= (10007 - 1) // 2
    assert res.modulus > float(np.mean(res.all_moduli))


def _moduli_csv_text(res) -> str:
    out = io.StringIO()
    dirichlet.moduli_to_csv(res, out)
    return out.getvalue()


def test_moduli_csv():
    res = dirichlet.max_over_characters(0, 5, 100)
    lines = _moduli_csv_text(res).strip().split("\n")
    assert lines[0] == "j,modulus"
    assert len(lines) == 4


def test_moduli_csv_stream_matches_row_join():
    # q = 3 and 5: one and three rows, the smallest mirrors; q = 100003:
    # 100001 rows, more than one block of the stream
    for ell, q, N in [(0, 3, 10), (0, 5, 10), (1, 100003, 200000)]:
        res = dirichlet.max_over_characters(ell, q, N)
        assert res.all_moduli.size == q - 2
        rows = ["j,modulus"] + [f"{j},{float(m)!r}" for j, m in enumerate(res.all_moduli, start=1)]
        assert _moduli_csv_text(res) == "\n".join(rows) + "\n"
    assert res.all_moduli.size > sums.CHUNK


@pytest.mark.parametrize("block", [1, 2, 7, 508, 509])
def test_moduli_csv_does_not_depend_on_the_block(monkeypatch, block):
    # q = 1019: 509 distinct moduli, so the mirror rows come from one to 509
    # blocks, and the middle row may end a block of its own
    res = dirichlet.max_over_characters(1, 1019, 5000)
    rows = ["j,modulus"] + [f"{j},{float(m)!r}" for j, m in enumerate(res.all_moduli, start=1)]
    monkeypatch.setattr(sums, "CHUNK", block)
    assert _moduli_csv_text(res) == "\n".join(rows) + "\n"


def test_moduli_csv_rejects_moduli_that_are_not_mirrored():
    # the writer formats one half and reuses it for the mirror rows
    res = dirichlet.MaxCharResult(ell=0, q=7, N=10, j_star=1, modulus=3.0,
                                  all_moduli=np.array([3.0, 1.0, 2.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="mirror"):
        _moduli_csv_text(res)


# ---------------------------------------------------------------------------
# resonance quotient

def test_resonance_quotient_mechanism():
    spec = resonator.make_spec(3, 2)
    rq = dirichlet.resonance_quotient(0, 101, spec)
    assert abs(rq.v2_over_v1 - rq.closed_form) <= rq.error_term_scale
    mx = dirichlet.max_over_characters(0, 101, rq.N)
    assert rq.v2_over_v1 <= mx.modulus + 1e-12
    assert rq.A == pytest.approx(101 ** 0.25)
    assert rq.N == math.ceil(101 ** 0.75)
    # the principal-character correction is reported, not absorbed, and is
    # bounded by the (log q)^(ell+1) * A * support bound it satisfies
    assert 0 < rq.principal_correction <= math.log(101) * rq.A * rq.support_size


def test_resonance_quotient_support_one():
    # q = 13: A = 13^(1/4) < 2, so the support clips to {1} and the quotient
    # is the plain character average
    t13 = dirichlet.build_character_table(13)
    rq = dirichlet.resonance_quotient(0, 13, resonator.make_spec(2, 2))
    assert rq.support_size == 1
    avg = abs(
        sum(dirichlet.l_derivative_truncated(0, t13, j, rq.N).value for j in range(1, 12))
    ) / 11
    assert rq.v2_over_v1 == pytest.approx(avg, abs=1e-10)


def test_resonance_quotient_validation():
    with pytest.raises(ValueError):
        dirichlet.resonance_quotient(0, 101, "not a spec")
    with pytest.raises(ResourceLimitError):
        dirichlet.resonance_quotient(0, 2 * 10**5 + 3, resonator.make_spec(3, 2))
    with pytest.raises(ValueError):
        dirichlet.resonance_quotient(0, 101, resonator.make_spec(200, 2))


def test_resonance_quotient_closed_form_by_hand():
    # support for q=101, spec (3,2): divisors {1,2,3,6} clipped at A=3.17
    spec = resonator.make_spec(3, 2)
    rq = dirichlet.resonance_quotient(0, 101, spec)
    assert rq.support_size == 3  # {1, 2, 3}
    hand = (1.0 + 0.5 + 1 / 3 + 1.0 + 1.0) / 3.0  # pairs (1,1),(1,2),(1,3),(2,2),(3,3)
    assert rq.closed_form == pytest.approx(hand, rel=1e-12)
