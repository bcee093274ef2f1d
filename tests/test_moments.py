import math
import random
from fractions import Fraction

import pytest

from zetamax import moments
from zetamax.constants import EXP_GAMMA
from zetamax.errors import TailNotCertifiedError

F = Fraction


def _bell_explicit(xs):
    """Textbook expansions B_1..B_4 as an independent oracle."""
    x1, x2, x3, x4 = (list(xs) + [0, 0, 0, 0])[:4]
    return {
        1: x1,
        2: x1**2 + x2,
        3: x1**3 + 3 * x1 * x2 + x3,
        4: x1**4 + 6 * x1**2 * x2 + 4 * x1 * x3 + 3 * x2**2 + x4,
    }


def test_complete_bell_base_cases():
    assert moments.complete_bell(0, []) == 1
    assert moments.complete_bell(1, [F(-1)]) == F(-1)
    assert moments.complete_bell(2, [F(-1), F(1, 2)]) == F(3, 2)
    assert moments.complete_bell(3, [F(-1), F(1, 2), F(-1, 3)]) == F(-17, 6)


def test_complete_bell_against_explicit_expansions():
    rng = random.Random(20240901)
    for _ in range(25):
        xs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        expl = _bell_explicit(xs)
        for ell in (1, 2, 3, 4):
            assert moments.complete_bell(ell, xs[:ell]) == expl[ell]


def test_complete_bell_validation():
    with pytest.raises(ValueError):
        moments.complete_bell(2, [F(1)])
    with pytest.raises(ValueError):
        moments.complete_bell(-1, [])
    with pytest.raises(ValueError):
        moments.complete_bell(201, [F(1)] * 201)
    with pytest.raises(ValueError, match="ell must be >= 0"):
        moments.y_exact(-1)
    with pytest.raises(ValueError, match="coefficient growth guard"):
        moments.y_exact(201)


def test_y_exact_rejects_a_huge_ell_before_building_its_arguments():
    # the `bound` and `moments` subcommands pass any --ell to y_exact; a
    # guard after the recurrence, or after a list of ell entries, would not
    # return at ell = 10^100
    with pytest.raises(ValueError, match="coefficient growth guard"):
        moments.y_exact(10**100)


def test_y_exact_equals_bell_over_fractions():
    # the integer recurrence on n! B_n against complete_bell over Fractions
    for ell in list(range(61)) + [200]:
        args = [F((-1) ** m, m) for m in range(1, ell + 1)]
        want = (-1) ** ell * moments.complete_bell(ell, args)
        assert moments.y_exact(ell).rational_part == want, ell


def test_y_exact_closed_forms():
    assert moments.y_exact(0).rational_part == 1
    assert moments.y_exact(1).rational_part == 1
    assert moments.y_exact(2).rational_part == F(3, 2)
    assert moments.y_exact(3).rational_part == F(17, 6)
    assert moments.y_exact(1).float_value == pytest.approx(EXP_GAMMA, rel=1e-15, abs=0.0)
    assert moments.y_exact(2).float_value == pytest.approx(2.671608626985297, abs=1e-12)
    assert moments.y_exact(0).method == "bell-exact"


def test_y_exact_positive_rationals():
    for ell in range(0, 40):
        assert moments.y_exact(ell).rational_part > 0


def test_strict_moment_inequality():
    # equality at ell = 0 (Y_0 = e^gamma exactly); strict for ell >= 1
    assert moments.y_exact(0).rational_part == F(1, 1)
    for ell in range(1, 31):
        assert moments.y_exact(ell).rational_part > F(1, ell + 1)


def test_y_exact_float_value_is_finite_for_every_ell():
    # the guard ell <= 200 keeps every float value in range: Y_200 = 1.69e249
    assert all(math.isfinite(moments.y_exact(ell).float_value) for ell in range(201))


def test_growth_trend():
    vals = {ell: math.log(moments.y_exact(ell).float_value) / (ell * math.log(ell))
            for ell in (10, 20, 30)}
    for v in vals.values():
        assert 0.0 < v < 2.0
    assert abs(vals[30] - 1.0) < abs(vals[10] - 1.0)


def test_cross_method(table60):
    for ell in range(0, 11):
        ex = moments.y_exact(ell).float_value
        qu = moments.y_quadrature(ell, table60, 1e-9).float_value
        assert abs(ex - qu) <= 1e-8
        assert moments.y_quadrature(ell, table60).method == "quadrature"


@pytest.mark.parametrize("ell", [10, 15, 20, 25, 30])
def test_quadrature_matches_exact_relatively(table60, ell):
    # the weight u^ell reads rho far out, where it lies far below the
    # table's absolute certificate: the pieces must be right in relative terms
    qu = moments.y_quadrature(ell, table60, 1e-9).float_value
    assert qu == pytest.approx(moments.y_exact(ell).float_value, rel=1e-14, abs=0.0)


def test_quadrature_tail_guard(table12):
    with pytest.raises(TailNotCertifiedError):
        moments.y_quadrature(11, table12, 1e-9)  # ell too large for [0, 12]


def test_bound_prediction_worked_values():
    big_t = math.exp(math.exp(3.0))
    assert moments.bound_prediction("lower", 1, big_t) == pytest.approx(
        EXP_GAMMA * 9.0, rel=1e-12
    )
    assert moments.bound_prediction("rh-upper", 1, big_t) == pytest.approx(
        4.0 * EXP_GAMMA * 9.0, rel=1e-12
    )
    # both constants are Y_0 at ell = 0
    assert moments.bound_prediction("lower", 0, 1e6) == moments.bound_prediction(
        "conjectural-asymptotic", 0, 1e6
    )


def test_bound_prediction_validation():
    with pytest.raises(ValueError):
        moments.bound_prediction("sideways", 1, 100.0)
    with pytest.raises(ValueError):
        moments.bound_prediction("lower", 1, 2.0)


def test_laplace_at_zero_equals_zeroth_moment(table60):
    # cross-module: int rho e^{0} du is the zeroth moment
    from zetamax import dickman

    lhs = dickman.laplace_lhs(0.0, table60, 1e-10)
    qu = moments.y_quadrature(0, table60, 1e-10).float_value
    assert abs(lhs - qu) <= 2e-10
