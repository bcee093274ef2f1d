import dataclasses
import io
import math
import random

import numpy as np
import pytest

from zetamax import dirichlet, resonator
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
        with pytest.raises(AssertionError, match="bijection"):
            dirichlet._verify_table(dataclasses.replace(table, dlog=dlog))


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


def test_fft_family_matches_direct(chi101):
    vals = dirichlet._l_values_all_characters(1, chi101, 3000)
    for j in (1, 2, 17, 50, 99):
        direct = dirichlet.l_derivative_truncated(1, chi101, j, 3000).value
        assert vals[j] == pytest.approx(direct, abs=1e-10)


def test_max_over_characters(chi101):
    res = dirichlet.max_over_characters(0, 101, 2000, table=chi101)
    assert len(res.all_moduli) == 99
    assert res.modulus == np.max(res.all_moduli)
    assert res.all_moduli[res.j_star - 1] == res.modulus
    # conjugation symmetry: modulus[j] = modulus[q-1-j], exactly
    assert np.array_equal(res.all_moduli, res.all_moduli[::-1])
    # the smaller index of the conjugate pair wins the tie
    assert res.j_star <= (101 - 1) // 2
    # argmax exceeds the family mean
    assert res.modulus > np.mean(res.all_moduli)


@pytest.mark.parametrize("q", [3, 5, 101, 1019, 10007, 1000003])
def test_family_transform_matches_numpy_fft(q):
    # h = (q-1)/2 = 1, smooth, a safe prime (1019, 10007: one row, n1 = 1),
    # and 2 * 3 * 166667, where numpy's full-length FFT runs Bluestein
    x = np.random.default_rng(q).standard_normal(q - 1)
    want = np.conj(np.fft.fft(x))
    got = dirichlet._family_transform(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    h = (q - 1) // 2
    assert np.array_equal(got[:h:-1], np.conj(got[1:h]))  # entry q-1-j is conj(entry j)


def test_max_over_characters_rejects_negative_ell(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before ell was checked")

    monkeypatch.setattr(dirichlet, "shared_character_table", no_work)
    monkeypatch.setattr(dirichlet, "_l_values_all_characters", no_work)
    with pytest.raises(ValueError):
        dirichlet.max_over_characters(-1, 101, 300)


def test_max_over_characters_contains_real_character_value(chi5):
    res = dirichlet.max_over_characters(0, 5, 10**4, table=chi5)
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


def test_moduli_csv(chi5):
    res = dirichlet.max_over_characters(0, 5, 100, table=chi5)
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
    assert res.all_moduli.size > dirichlet._CSV_BLOCK


def test_moduli_csv_rejects_moduli_that_are_not_mirrored():
    # the writer formats one half and reuses it for the mirror rows
    res = dirichlet.MaxCharResult(ell=0, q=7, N=10, j_star=1, modulus=3.0,
                                  all_moduli=np.array([3.0, 1.0, 2.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="mirror"):
        _moduli_csv_text(res)


# ---------------------------------------------------------------------------
# resonance quotient

def test_resonance_quotient_mechanism(chi101):
    spec = resonator.make_spec(3, 2)
    rq = dirichlet.resonance_quotient(0, 101, spec, table=chi101)
    assert abs(rq.v2_over_v1 - rq.closed_form) <= rq.error_term_scale
    mx = dirichlet.max_over_characters(0, 101, rq.N, table=chi101)
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
    rq = dirichlet.resonance_quotient(0, 13, resonator.make_spec(2, 2), table=t13)
    assert rq.support_size == 1
    avg = abs(
        sum(dirichlet.l_derivative_truncated(0, t13, j, rq.N).value for j in range(1, 12))
    ) / 11
    assert rq.v2_over_v1 == pytest.approx(avg, abs=1e-10)


def test_resonance_quotient_validation(chi101):
    with pytest.raises(ValueError):
        dirichlet.resonance_quotient(0, 101, "not a spec")
    with pytest.raises(ResourceLimitError):
        dirichlet.resonance_quotient(0, 2 * 10**5 + 3, resonator.make_spec(3, 2))
    with pytest.raises(ValueError):
        dirichlet.resonance_quotient(0, 101, resonator.make_spec(200, 2), table=chi101)


def test_resonance_quotient_closed_form_by_hand(chi101):
    # support for q=101, spec (3,2): divisors {1,2,3,6} clipped at A=3.17
    spec = resonator.make_spec(3, 2)
    rq = dirichlet.resonance_quotient(0, 101, spec, table=chi101)
    assert rq.support_size == 3  # {1, 2, 3}
    hand = (1.0 + 0.5 + 1 / 3 + 1.0 + 1.0) / 3.0  # pairs (1,1),(1,2),(1,3),(2,2),(3,3)
    assert rq.closed_form == pytest.approx(hand, rel=1e-12)
