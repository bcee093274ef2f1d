import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as C

from zetamax import dickman
from zetamax.constants import EXP_GAMMA
from zetamax.errors import OutOfDomainError, TailNotCertifiedError

# ---------------------------------------------------------------------------
# independent oracle: fine-step trapezoid integration of u rho'(u) = -rho(u-1)
# on a dyadic grid (step 2^-14), so u-1 always lands on a grid point.
# Values frozen below were produced by this oracle; it runs here as well so
# the derivation stays visible.

_H_EXP = 14


def _ode_oracle(max_u: float = 6.0):
    h = 2.0**-_H_EXP
    n_unit = 2**_H_EXP
    vals = [1.0] * (n_unit + 1)
    for i in range(n_unit, int(max_u * n_unit)):
        u0, u1 = i * h, (i + 1) * h
        f0 = vals[i - n_unit] / u0
        f1 = vals[i + 1 - n_unit] / u1
        vals.append(vals[i] - 0.5 * h * (f0 + f1))

    def at(u: float) -> float:
        return vals[round(u / h)]

    return at


_ORACLE_FROZEN = {
    1.5: 0.5945348917193672,
    2.0: 0.30685281920722224,
    2.5: 0.13031956150129687,
    3.0: 0.04860838794775547,
    4.0: 0.004910925341606593,
}


def test_ode_oracle_reproduces_frozen_values():
    at = _ode_oracle()
    for u, v in _ORACLE_FROZEN.items():
        assert at(u) == pytest.approx(v, abs=1e-15)


def test_table_matches_ode_oracle(table12):
    # trapezoid oracle is O(h^2) ~ 4e-9 accurate; table is certified 1e-12
    for u, v in _ORACLE_FROZEN.items():
        assert dickman.rho(u, table12) == pytest.approx(v, abs=1e-8)


def test_closed_form_on_first_interval(table12):
    # integrating the delay ODE once on [1, 2] gives rho(u) = 1 - log u
    assert dickman.rho(1.5, table12) == pytest.approx(1 - math.log(1.5), abs=table12.tol)
    assert dickman.rho(2.0, table12) == pytest.approx(1 - math.log(2.0), abs=table12.tol)


def test_exact_one_on_unit_interval(table12):
    for u in [0.0, 0.25, 0.5, 0.7853, 1.0]:
        assert dickman.rho(u, table12) == 1.0


def test_rho_at_10_order_of_magnitude(table12):
    # de Bruijn main term puts log rho(10) near -22; check the order only
    v = dickman.rho(10.0, table12)
    assert 0 < v < 1e-10


def test_monotone_and_positive(table60):
    us = np.arange(0.0, 60.0 + 1e-9, 0.01)
    vals = np.array([dickman.rho(float(u), table60) for u in us])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 2 * table60.tol)
    assert np.all(vals <= 1.0)


def test_delay_ode_residual(table60):
    # centered difference of u*rho(u) equals rho(u) - rho(u-1); the
    # difference window must not straddle the derivative kinks at integers
    h = 1e-5
    for u in np.arange(1.3, 39.0, 0.7):
        if abs(u - round(u)) < 1e-2:
            continue
        lhs = ((u + h) * dickman.rho(u + h, table60) - (u - h) * dickman.rho(u - h, table60)) / (2 * h)
        rhs = dickman.rho(u, table60) - dickman.rho(u - 1, table60)
        assert lhs == pytest.approx(rhs, abs=5e-7)


@pytest.mark.parametrize("max_u, tol, degree", [
    (8.0, 1e-12, 16),
    (60.0, 1e-12, 16),
    (30.0, 1e-13, 16),
    (25.0, 1e-14, 24),  # escalates once from degree 16
])
def test_build_degree(max_u, tol, degree):
    table = dickman.build_rho_table(max_u, tol)
    assert table.degree == degree
    assert table.tol <= tol


@pytest.mark.parametrize("u, want, rel", [
    (10.0, 2.77017183772596e-11, 1e-14),
    (20.0, 2.4617828e-29, 3e-8),  # 8 tabulated digits
], ids=["u=10", "u=20"])
def test_rho_matches_tabulated_values_relatively(table60, u, want, rel):
    # tabulated since van de Lune and Wattel, Math. Comp. 23 (1969).  The
    # table's certificate is absolute (~2e-14), far above these values, so
    # only pieces solved to rounding in relative terms meet them.
    assert dickman.rho(u, table60) == pytest.approx(want, rel=rel, abs=0.0)


# ---------------------------------------------------------------------------
# the table's own certificate

def _sampled_residual(table, k: int) -> tuple[float, float]:
    """max |r_k| over 4m + 2 points of interval k (m = degree + 1), a dense
    sample of the residual of the integral identity, and an allowance for
    its rounding.

    Not a bound, but any bound lies above it.  It runs in long double: the
    pieces are solved to rounding, so on some intervals r_k is 1e-15 of
    u p_k, and a float64 sample there is mostly its own rounding.  The
    allowance is 16 eps of the evaluation type times max |u p_k|; with an
    80-bit long double it is below 4e-3 of the bound on every interval."""
    m = table.degree + 1
    xd = np.cos(np.pi * (2 * np.arange(4 * m) + 1) / (8 * m))
    xd = np.concatenate(([-1.0], np.sort(xd), [1.0])).astype(np.longdouble)
    prev, cur = (np.asarray(table.intervals[j], dtype=np.longdouble) for j in (k - 1, k))
    phi_prev, phi = C.chebint(prev, scl=0.5), C.chebint(cur, scl=0.5)
    one = np.longdouble(1.0)
    lhs = (k + 0.5 + 0.5 * xd) * C.chebval(xd, cur)
    rhs = (C.chebval(one, phi_prev) - C.chebval(xd, phi_prev)
           + C.chebval(xd, phi) - C.chebval(-one, phi))
    allowance = 16 * np.finfo(np.longdouble).eps * np.max(np.abs(lhs))
    return float(np.max(np.abs(lhs - rhs))), float(allowance)


def _exact_residual_coefficient_sum(table, k: int) -> Fraction:
    """The sum of |Chebyshev coefficients| of r_k, by numpy's chebint and
    chebmulx over Fractions: the same quantity as the table's integer route,
    by a second one."""
    half = Fraction(1, 2)
    p, q = (np.array([Fraction(float(c)) for c in table.intervals[j]], dtype=object)
            for j in (k - 1, k))
    big_p, big_q = C.chebint(p, scl=half), C.chebint(q, scl=half)
    r = C.chebadd(C.chebadd(C.chebmulx(q) * half, q * Fraction(2 * k + 1, 2)),
                  C.chebsub(big_p, big_q))  # u p_k + P_{k-1}(x) - P_k(x)
    r[0] += C.chebval(-1, big_q) - C.chebval(1, big_p)
    return sum(abs(c) for c in r)


@pytest.fixture(scope="module", params=[(8.0, 1e-12), (60.0, 1e-12), (25.0, 1e-14)],
                ids=["8-1e-12", "60-1e-12", "25-1e-14"])
def certified_table(request):
    return dickman.build_rho_table(*request.param)


def test_residual_bound_is_the_exact_coefficient_sum_rounded_up(certified_table):
    for k in range(1, len(certified_table.intervals)):
        bound = dickman._residual_bound(k, *certified_table.intervals[k - 1:k + 1])
        exact = _exact_residual_coefficient_sum(certified_table, k)
        assert Fraction(math.nextafter(bound, -math.inf)) < exact <= Fraction(bound), k


def test_residual_bound_lies_above_the_sampled_residual(certified_table):
    for k in range(1, len(certified_table.intervals)):
        bound = dickman._residual_bound(k, *certified_table.intervals[k - 1:k + 1])
        sampled, allowance = _sampled_residual(certified_table, k)
        assert bound >= sampled - allowance, k


def test_interval_tols_follow_the_chain_rounded_up(certified_table):
    # e_0 = 0 for the exact piece 1; e_k = (e_{k-1} + r_k)/k, each link the
    # least float at or above its exact value
    tols = certified_table.interval_tols
    assert tols[0] == 0.0
    for k in range(1, len(tols)):
        bound = dickman._residual_bound(k, *certified_table.intervals[k - 1:k + 1])
        exact = (Fraction(tols[k - 1]) + Fraction(bound)) / k
        assert Fraction(math.nextafter(tols[k], -math.inf)) < exact <= Fraction(tols[k]), k
    assert certified_table.tol == max(tols)


@pytest.mark.parametrize("k", range(1, 8))
def test_chain_certifies_a_shifted_piece_by_its_shift(k):
    # a constant shift delta of piece k adds u delta - (u - k) delta = k delta
    # to r_k, which the chain's divisor k turns back into delta, give or
    # take the honest table's own certificate
    delta = 2.0**-30
    table = dickman.build_rho_table(8.0, 1e-12)
    pieces = list(table.intervals)
    pieces[k] = pieces[k].copy()
    pieces[k][0] += delta
    forged = dickman.DickmanTable(table.max_u, table.degree, tuple(pieces))
    slack = table.interval_tols[k] + 4 * np.finfo(float).eps * delta
    assert abs(forged.interval_tols[k] - delta) <= slack


def test_certificate_bounds_a_perturbed_first_piece():
    # interval 0 is not trusted to be rho = 1: its distance from 1 starts
    # the chain
    table = dickman.build_rho_table(6.0, 1e-12)
    first = np.array([1.0 + 2.0**-30, 2.0**-40])
    forged = dickman.DickmanTable(table.max_u, table.degree, (first, *table.intervals[1:]))
    assert forged.interval_tols[0] == 2.0**-30 + 2.0**-40
    assert forged.interval_tols[1] >= forged.interval_tols[0]


def test_closed_form_on_second_interval(table12):
    # integrating the delay ODE twice gives, on [2, 3],
    # rho(u) = 1 - (1 - log(u-1)) log u + Li2(1-u) + pi^2/12
    with mpmath.workdps(30):
        for u in 2.0 + np.arange(100) / 100:
            v = mpmath.mpf(float(u))
            want = (1 - (1 - mpmath.log(v - 1)) * mpmath.log(v) + mpmath.polylog(2, 1 - v)
                    + mpmath.pi**2 / 12)
            assert abs(dickman.rho(float(u), table12) - float(want)) <= table12.interval_tols[2]


def test_build_validation():
    with pytest.raises(ValueError):
        dickman.build_rho_table(0.5, 1e-10)
    with pytest.raises(ValueError):
        dickman.build_rho_table(10.0, 0.0)
    with pytest.raises(ValueError):
        dickman.build_rho_table(10.0, 1e-15)
    with pytest.raises(ValueError):
        dickman.build_rho_table(2000.0, 1e-10)


def test_rho_domain_errors(table12):
    with pytest.raises(ValueError):
        dickman.rho(-0.5, table12)
    with pytest.raises(ValueError, match="u must be >= 0, got nan"):
        dickman.rho(math.nan, table12)
    with pytest.raises(OutOfDomainError):
        dickman.rho(12.5, table12)


# ---------------------------------------------------------------------------
# table integrator

def _antiderivative_oracle(table, ell: int, a: float, b: float) -> tuple[float, float]:
    """int_a^b u^ell rho(u) du from the exact Chebyshev antiderivative of
    u^ell * (interval polynomial), with the scale |P(x_a)| + |P(x_b)| that
    bounds the rounding of the endpoint differences."""
    pieces, scale = [], []
    for k in range(math.floor(a), math.ceil(b)):
        lo, hi = max(a, k), min(b, k + 1)
        if hi <= lo:
            continue
        power = C.chebpow([k + 0.5, 0.5], ell)  # u^ell in x = 2(u-k)-1
        prim = C.chebint(C.chebmul(table.intervals[k], power), scl=0.5)
        p_lo, p_hi = C.chebval(2.0 * (lo - k) - 1.0, prim), C.chebval(2.0 * (hi - k) - 1.0, prim)
        pieces.append(p_hi - p_lo)
        scale += [abs(p_lo), abs(p_hi)]
    return math.fsum(pieces), math.fsum(scale)


@given(ell=st.integers(0, 10), a=st.floats(0.0, 60.0), b=st.floats(0.0, 60.0),
       panels=st.integers(1, 4))
@example(ell=0, a=0.0, b=60.0, panels=1)
@example(ell=6, a=1.0, b=6.135, panels=1)
@example(ell=10, a=2.5, b=2.75, panels=3)
def test_integrate_matches_chebyshev_antiderivative(table60, ell, a, b, panels):
    a, b = min(a, b), max(a, b)
    got = table60.integrate(lambda us: us**ell, a, b, panels)
    want, scale = _antiderivative_oracle(table60, ell, a, b)
    assert abs(got - want) <= 1e-13 * scale


def _integrate_reference(table, weight, a: float, b: float, panels: int) -> float:
    """The integrator as one Chebyshev evaluation, one weight call and one
    weighted sum per panel, the panels combined by one math.fsum;
    DickmanTable.integrate must give exactly its bits."""
    b = min(b, table.max_u)
    pieces = []
    for k in range(math.floor(a), math.ceil(b)):
        lo, hi = max(a, k), min(b, k + 1)
        if hi <= lo:
            continue
        edges = [lo + (hi - lo) * j / panels for j in range(panels)] + [hi]
        for pa, pb in zip(edges, edges[1:]):
            mid, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
            us = mid + half * dickman._GL_NODES
            vals = C.chebval(2.0 * (us - k) - 1.0, table.intervals[k]) * weight(us)
            pieces.append(half * (vals * dickman._GL_WEIGHTS).sum())
    return math.fsum(pieces)


@pytest.fixture(scope="module")
def ragged_table(tmp_path_factory):
    """A loaded table on [0, 40] whose pieces have 1 to 17 coefficients:
    piece k keeps its first 17 - (k mod 9) (interval 0 is [1.0])."""
    path = str(tmp_path_factory.mktemp("ragged") / "rho.json")
    dickman.save_table(dickman.build_rho_table(40.0, 1e-12), path)
    doc = json.loads(open(path).read())
    for item in doc["intervals"]:
        item["coeffs"] = item["coeffs"][:17 - item["k"] % 9]
    with open(path, "w") as f:
        json.dump(doc, f)
    return dickman.load_table(path)


_WEIGHTS = {
    "power": lambda ell, s: (lambda us: us**ell),
    "exp": lambda ell, s: (lambda us: np.exp(-s * us)),
    "ones": lambda ell, s: np.ones_like,
}


@given(which=st.sampled_from(["table60", "ragged_table"]), a=st.floats(0.0, 1.0),
       b=st.floats(0.0, 1.0), panels=st.integers(1, 4), kind=st.sampled_from(sorted(_WEIGHTS)),
       ell=st.integers(0, 10), s=st.floats(0.0, 30.0))
@example(which="table60", a=0.0, b=1.0, panels=1, kind="power", ell=0, s=0.0)
@example(which="ragged_table", a=0.0, b=1.0, panels=4, kind="exp", ell=0, s=9.0)
@example(which="table60", a=0.125, b=0.125, panels=2, kind="ones", ell=0, s=0.0)
def test_integrate_equals_per_interval_reference(table60, ragged_table, which, a, b, panels,
                                                 kind, ell, s):
    # a, b are fractions of max_u, so every range lies in the table's domain
    table = {"table60": table60, "ragged_table": ragged_table}[which]
    a, b = sorted((a * table.max_u, b * table.max_u))
    weight = _WEIGHTS[kind](ell, s)
    assert table.integrate(weight, a, b, panels) == _integrate_reference(table, weight, a, b,
                                                                         panels)


def test_coefficient_stack_is_the_padded_pieces(ragged_table):
    stack = ragged_table.coeff_stack
    assert not stack.flags.writeable
    assert stack.shape == (17, 40)
    for k, coeffs in enumerate(ragged_table.intervals):
        assert np.array_equal(stack[:len(coeffs), k], coeffs)
        assert not stack[len(coeffs):, k].any()


@pytest.mark.parametrize("a, b", [(-0.5, 2.0), (3.0, 2.0), (1.0, 60.5), (0.0, math.nan)])
def test_integrate_domain_errors(table60, a, b):
    with pytest.raises(OutOfDomainError):
        table60.integrate(lambda us: us, a, b)


@pytest.mark.parametrize("panels", [0, -1, 1.5])
def test_integrate_rejects_panels_that_are_not_a_positive_int(table60, panels):
    with pytest.raises(ValueError, match="panels"):
        table60.integrate(lambda us: us, 1.0, 2.0, panels)


@pytest.mark.parametrize("u", [2.0, 2.5, 4.0, 7.3, 10.0, 20.0, 29.0])
def test_tail_bound_bounds_the_tail(table60, u):
    # the tail beyond u holds at least int_u^60, which the antiderivative
    # oracle gives; the bound is only claimed where its ratio is below 1
    checked = 0
    for ell in range(11):
        if math.exp(ell / (u + 1.0)) / (u + 1.0) >= 1.0:
            assert table60.tail_bound(u, ell) == math.inf
            continue
        want, scale = _antiderivative_oracle(table60, ell, u, 60.0)
        assert want + 1e-13 * scale <= table60.tail_bound(u, ell) < math.inf, ell
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize("u", [0.0, 1.0, 1.5, math.nextafter(2.0, 0.0)])
def test_tail_bound_is_infinite_below_two(table60, u):
    assert table60.tail_bound(u) == math.inf
    assert table60.tail_bound(u, 3) == math.inf


def test_integrate_empty_range_and_slack(table60):
    assert table60.integrate(lambda us: us, 7.5, 7.5) == 0.0
    # the same 1e-12 slack as rho; the range is clipped to max_u
    assert table60.integrate(np.ones_like, 1.0, 60.0 * (1 + 1e-13)) == (
        table60.integrate(np.ones_like, 1.0, 60.0))


# ---------------------------------------------------------------------------
# Laplace transform

def _ein_quad_oracle(s: float, panels: int = 64) -> float:
    # composite Gauss-Legendre quadrature of (e^-z - 1)/z on [0, s]
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for i in range(panels):
        a, b = s * i / panels, s * (i + 1) / panels
        mid, half = (a + b) / 2, (b - a) / 2
        z = mid + half * nodes
        f = np.where(np.abs(z) < 1e-12, -1.0 + z / 2, (np.exp(-z) - 1.0) / z)
        total += half * float(np.dot(weights, f))
    return total


_RHS_FROZEN = {
    0.25: 1.4077768059600058,
    0.5: 1.14267680641155,
    1.0: 0.8030133545148503,
    2.0: 0.4761379331187265,
    4.0: 0.24905694508847445,
}


def test_laplace_rhs_against_quadrature_oracle():
    for s, frozen in _RHS_FROZEN.items():
        oracle = math.exp(dickman.EULER_GAMMA + _ein_quad_oracle(s))
        assert oracle == pytest.approx(frozen, abs=1e-13)
        assert dickman.laplace_rhs(s) == pytest.approx(frozen, abs=1e-12)


def test_laplace_rhs_at_zero_is_exp_gamma():
    assert dickman.laplace_rhs(0.0) == EXP_GAMMA


def test_laplace_rhs_large_s_mpmath_path():
    # for s >> 1 the transform approaches 1/s (the [0,1] block dominates)
    v = dickman.laplace_rhs(50.0)
    assert v == pytest.approx(1.0 / 50.0, rel=1e-8)
    v = dickman.laplace_rhs(12.0)
    assert 0 < v < 1.0 / 11.0
    # above s = 8 the closed form is e^(-E1(s))/s; 60-digit mpmath oracle
    with mpmath.workdps(60):
        for s in [math.nextafter(8.0, 9.0)] + [8.0 + 0.25 * k for k in range(1, 369)]:
            oracle = float(mpmath.exp(-mpmath.e1(s)) / s)
            assert abs(dickman.laplace_rhs(s) - oracle) <= 2 * math.ulp(oracle), s


def test_laplace_identity(table60):
    for s in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
        lhs = dickman.laplace_lhs(s, table60, 1e-10)
        rhs = dickman.laplace_rhs(s, 1e-12)
        assert abs(lhs - rhs) <= 2e-10


def test_laplace_lhs_tail_not_certified():
    small = dickman.build_rho_table(3.0, 1e-12)
    with pytest.raises(TailNotCertifiedError):
        dickman.laplace_lhs(0.0, small, 1e-10)


def test_laplace_validation(table12):
    with pytest.raises(ValueError):
        dickman.laplace_rhs(-1.0)
    with pytest.raises(ValueError):
        dickman.laplace_rhs(101.0)
    with pytest.raises(ValueError):
        dickman.laplace_lhs(-0.1, table12, 1e-8)
    for s in (math.nan, math.inf):
        with pytest.raises(ValueError):
            dickman.laplace_lhs(s, table12, 1e-8)
        with pytest.raises(ValueError):
            dickman.laplace_rhs(s)


# ---------------------------------------------------------------------------
# asymptotic main term

def test_asymptotic_main_term_values():
    assert dickman.log_rho_asymptotic_main(1.0) == pytest.approx(
        1 - math.log(math.log(3.0)), abs=1e-14
    )
    assert dickman.log_rho_asymptotic_main(50.0) == pytest.approx(-214.30267001225508, abs=1e-9)
    with pytest.raises(ValueError):
        dickman.log_rho_asymptotic_main(0.0)


def test_asymptotic_ratio_window(table60):
    # loose regime check: log rho(20) within 20% of the main term
    ratio = math.log(dickman.rho(20.0, table60)) / dickman.log_rho_asymptotic_main(20.0)
    assert 0.8 <= ratio <= 1.2


# ---------------------------------------------------------------------------
# serialization

def test_serialization_roundtrip(tmp_path, table12):
    path = tmp_path / "rho.json"
    dickman.save_table(table12, str(path))
    back = dickman.load_table(str(path))
    assert back.max_u == table12.max_u
    assert back.tol == table12.tol
    assert back.interval_tols == table12.interval_tols
    assert len(back.intervals) == len(table12.intervals)
    for a, b in zip(table12.intervals, back.intervals):
        assert np.array_equal(a, b)
    for u in (0.3, 1.7, 5.5, 11.9):
        assert dickman.rho(u, back) == dickman.rho(u, table12)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other", "schema_version": 9}')
    with pytest.raises(ValueError):
        dickman.load_table(str(path))


def _edited_table_file(tmp_path, edit):
    path = tmp_path / "rho.json"
    dickman.save_table(dickman.build_rho_table(10.0, 1e-12), str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _set_max_u(doc):
    doc["max_u"] = 100.0


def _renumber_last_interval(doc):
    doc["intervals"][-1]["k"] = 10


def _repeat_interval(doc):
    doc["intervals"][-1]["k"] = 3


def _drop_coeffs(doc):
    del doc["intervals"][3]["coeffs"]


def _intervals_not_a_list(doc):
    doc["intervals"] = 5


def _empty_piece(doc):
    doc["intervals"][3]["coeffs"] = []


def _nested_piece(doc):
    doc["intervals"][3]["coeffs"] = [doc["intervals"][3]["coeffs"]]


def _nan_in_piece(doc):
    doc["intervals"][3]["coeffs"][5] = math.nan


def _piece_beyond_degree(doc):
    doc["intervals"][3]["coeffs"].append(0.0)


@pytest.mark.parametrize("edit", [_empty_piece, _nested_piece, _nan_in_piece,
                                  _piece_beyond_degree])
def test_load_rejects_malformed_piece(tmp_path, edit):
    # an empty, nested or non-finite piece, or one longer than degree + 1,
    # is named by its interval
    with pytest.raises(ValueError, match="interval k=3 needs a flat list of 1 to "
                                         "degree [+] 1 = 17 finite coefficients"):
        dickman.load_table(_edited_table_file(tmp_path, edit))


@pytest.mark.parametrize("edit", [_set_max_u, _renumber_last_interval, _repeat_interval,
                                  _drop_coeffs, _intervals_not_a_list])
def test_load_rejects_inconsistent_table(tmp_path, edit):
    # each edit leaves max_u and the interval keys inconsistent, or removes
    # or mistypes an entry
    with pytest.raises(ValueError):
        dickman.load_table(_edited_table_file(tmp_path, edit))


@pytest.mark.parametrize("degree", [41, 1600])
def test_load_rejects_a_degree_beyond_the_builder(tmp_path, degree):
    # the certificate of a piece costs about degree^2: at 1600 a 60-interval
    # file took 1.7 s to load; the builder never goes past 40
    def pad(doc):
        doc["degree"] = degree
        for item in doc["intervals"]:
            item["coeffs"] += [0.0] * (degree + 1 - len(item["coeffs"]))

    with pytest.raises(ValueError, match=f"degree must lie in 0..40, got {degree}"):
        dickman.load_table(_edited_table_file(tmp_path, pad))


@pytest.mark.parametrize("edit", [
    lambda doc: None,
    lambda doc: doc.update(interval_tols=doc["interval_tols"][:3]),
    lambda doc: doc.pop("tol"),
    lambda doc: doc.update(tol=math.nan),
    lambda doc: doc.update(tol=math.inf),
    lambda doc: doc.update(interval_tols=doc["interval_tols"][:-1] + [-1e-13]),
    lambda doc: doc.update(tol=0.0, interval_tols=[0.0] * len(doc["interval_tols"])),
], ids=["as-saved", "cut-interval-tols", "drop-tol", "nan-tol", "infinite-tol",
        "negative-interval-tol", "zero-tols"])
def test_load_ignores_stored_tolerances(tmp_path, edit):
    # a file as save_table wrote it while tolerances were stored, edited:
    # the loaded table derives tol and interval_tols from its pieces, so
    # whatever the file says of them, they are those of the saved table
    table = dickman.build_rho_table(10.0, 1e-12)

    def stored_then_edited(doc):
        doc.update(tol=table.tol, interval_tols=list(table.interval_tols))
        edit(doc)

    back = dickman.load_table(_edited_table_file(tmp_path, stored_then_edited))
    assert back.tol == table.tol
    assert back.interval_tols == table.interval_tols
