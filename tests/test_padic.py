"""Exact p-adic numbers, Schwartz functions, Haar integration and the
transform."""

from fractions import Fraction
from math import inf

import pytest

from qgfourier import padic
from qgfourier.scalars import EXACT, FLOAT, zeta


# -- literals and numbers ----------------------------------------------------


def test_parse_terms():
    x = padic.parse_padic("1*5^-2+3", 5)
    assert x.to_fraction() == Fraction(1, 25) + 3
    assert padic.parse_padic("0", 7).is_zero()


def test_parse_digit_string():
    # base-2 digit string, most significant first, radix point
    x = padic.parse_padic("101.01", 2)
    assert x.to_fraction() == Fraction(5) + Fraction(1, 4)


def test_parse_errors_carry_positions():
    with pytest.raises(padic.ParseError):
        padic.parse_padic("7*5^1", 5)  # digit out of range
    with pytest.raises(padic.ParseError):
        padic.parse_padic("1*3^2", 5)  # base mismatch
    with pytest.raises(padic.ParseError):
        padic.parse_padic("banana", 5)
    err = None
    try:
        padic.parse_padic("1*5^1 + banana", 5)
    except padic.ParseError as exc:
        err = exc
    assert err is not None and err.position >= 0


def test_format_round_trip():
    for text in ("0", "3", "1*5^-2 + 3", "2*5^1 + 4*5^3"):
        x = padic.parse_padic(text, 5)
        assert padic.parse_padic(padic.format_padic(x), 5) == x


def test_fraction_round_trip():
    x = padic.PAdic.from_fraction(3, Fraction(22, 9))
    assert x.to_fraction() == Fraction(22, 9)
    with pytest.raises(padic.PAdicError):
        padic.PAdic.from_fraction(3, Fraction(1, 2))  # denominator not a 3-power
    with pytest.raises(padic.PAdicError):
        padic.PAdic.from_fraction(3, -1)


def test_arithmetic_and_negation():
    p = 5
    x = padic.parse_padic("4 + 3*5^1", p)
    y = padic.parse_padic("2*5^1", p)
    assert padic.padic_add(x, y).to_fraction() == x.to_fraction() + y.to_fraction()
    assert padic.padic_mul(x, y).to_fraction() == x.to_fraction() * y.to_fraction()
    neg = padic.padic_negate(x, 4)
    assert padic._mod_power(neg.to_fraction() + x.to_fraction(), p, 4) == 0


def test_valuation_and_norm():
    v, norm = padic.valuation_norm(padic.parse_padic("1*5^-2+3", 5))
    assert (v, norm) == (-2, 25)
    assert padic.valuation_norm(padic.PAdic.zero(5)) == (inf, 0)
    assert padic.fraction_valuation(Fraction(18), 3) == 2
    assert padic.fraction_valuation(Fraction(1, 9), 3) == -2


def test_character_values():
    p = 2
    half = padic.parse_padic("1*2^-1", p)
    one = padic.parse_padic("1", p)
    assert padic.character(half, one) == zeta(2)  # exp(2 pi i / 2) = -1
    assert padic.character(one, one) == Fraction(1)  # integer product, trivial
    q = padic.parse_padic("1*3^-2", 3)
    assert padic.character(q, padic.parse_padic("2", 3)) == zeta(9, 2)


def test_fractional_part():
    x = padic.parse_padic("2*3^-2 + 1*3^-1 + 2 + 1*3^1", 3)
    assert padic.fractional_part(x) == Fraction(2, 9) + Fraction(1, 3)


# -- balls and Schwartz functions --------------------------------------------


def test_ball_parse_and_contains():
    b = padic.parse_ball("1 + 2^1*Zp", 2)
    assert b.level == 1 and b.center.to_fraction() == 1
    assert b.contains(3) and not b.contains(2)
    assert padic.parse_ball(padic.format_ball(b), 2) == b
    with pytest.raises(padic.ParseError):
        padic.parse_ball("3^1*Zp", 2)  # base mismatch


def test_ball_center_is_reduced():
    b = padic.Ball.make(3, 1, Fraction(7))
    assert b.center.to_fraction() == 1  # 7 mod 3


def test_equality_by_common_refinement():
    f = padic.subgroup_indicator(3, 0)
    g = f.refined(2)
    assert g.level == 2 and len(g.cells) == 9
    assert f == g
    assert not f == padic.subgroup_indicator(3, 1)


def test_evaluate_and_window():
    f = padic.indicator(padic.Ball.make(2, 1, 1))
    assert f.evaluate(3) == 1
    assert f.evaluate(2) == 0
    assert f.window() == (0, 1)
    assert padic.subgroup_indicator(5, -2).window() == (-2, -2)


def test_haar_integral():
    # measure of p^n Zp is p^-n under measure(Zp) = 1
    assert padic.haar_integral(padic.subgroup_indicator(3, 2)) == Fraction(1, 9)
    assert padic.haar_integral(padic.subgroup_indicator(3, -2)) == 9
    f = padic.SchwartzFunction(3, 1, {0: 2, 1: -1, 2: 5})
    assert padic.haar_integral(f) == Fraction(2 - 1 + 5, 3)
    # translation invariance
    assert padic.haar_integral(f.translated(Fraction(1, 3))) == padic.haar_integral(f)
    # rescaled measure
    assert padic.haar_integral(padic.subgroup_indicator(3, 1), scale=3) == 1


def test_convolution_of_subgroup_indicators():
    for p, n in ((2, 0), (2, 2), (3, -1), (5, 1)):
        hn = padic.subgroup_indicator(p, n)
        got = padic.schwartz_convolve(hn, hn)
        assert got == padic.schwartz_scale(Fraction(p) ** (-n), hn)


def test_transform_of_shifted_cell():
    # F(1_{c + p^m Zp})(y) = conj(chi(c, y)) p^-m on p^-m Zp, zero outside
    p, m, c = 2, 1, Fraction(1)
    f = padic.indicator(padic.Ball.make(p, m, c))
    fh = padic.padic_fourier(f)
    y = Fraction(1, 2)
    expected = padic._character_fraction(c * y, p).conjugate() * Fraction(1, 2)
    assert EXACT.is_zero(fh.evaluate(y) - expected)
    assert EXACT.is_zero(fh.evaluate(Fraction(1, 4)))  # outside p^-1 Zp
    assert fh.evaluate(0) == Fraction(1, 2)


def test_double_transform_reflects():
    p = 3
    f = padic.indicator(padic.Ball.make(p, 1, 2))
    got = padic.padic_fourier(padic.padic_fourier(f))
    want = padic.indicator(padic.Ball.make(p, 1, 1))  # -2 = 1 mod 3
    assert got == want


def test_group_like_suite():
    assert padic.is_group_like_schwartz(padic.subgroup_indicator(2, 1))
    coset = padic.indicator(padic.Ball.make(2, 1, 1))
    assert not padic.is_group_like_schwartz(coset)
    reports = padic.padic_group_like_suite(3, range(-2, 3))
    assert all(r.ok for r in reports), [r.case for r in reports if not r.ok]


def test_fixed_point_at_n_zero():
    h0 = padic.subgroup_indicator(7, 0)
    assert padic.padic_fourier(h0) == h0


def test_float_oracle_agrees():
    import random

    rng = random.Random(5)
    for _ in range(5):
        f = padic.random_schwartz(2, rng, FLOAT)
        fh = padic.padic_fourier(f)
        for y in (Fraction(0), Fraction(1, 4), Fraction(3, 2), Fraction(4)):
            got = fh.evaluate(y)
            want = padic.padic_fourier_oracle_value(f, y)
            assert abs(got - want) < 1e-6


def test_mismatched_primes_rejected():
    with pytest.raises(padic.PAdicError):
        padic.padic_add(padic.parse_padic("1", 2), padic.parse_padic("1", 3))
    with pytest.raises(padic.PAdicError):
        padic.schwartz_mul(padic.subgroup_indicator(2, 0), padic.subgroup_indicator(3, 0))


@pytest.mark.parametrize("p, ball, cells", [(2, "1*2^-6+2^6*Zp", 4096), (3, "1*3^-3+3^4*Zp", 2187)])
def test_transforms_up_to_max_cells_run(p, ball, cells):
    assert len(padic.padic_fourier(padic.indicator(padic.parse_ball(ball, p))).cells) == cells <= padic.MAX_CELLS


@pytest.mark.parametrize("p, ball", [(2, "1*2^-7+2^6*Zp"), (3, "1*3^-4+3^4*Zp"), (7, "1*7^-3+7^2*Zp")])
def test_transforms_beyond_max_cells_are_refused(p, ball):
    f = padic.indicator(padic.parse_ball(ball, p))
    with pytest.raises(padic.PAdicError, match="more than %d" % padic.MAX_CELLS):
        padic.padic_fourier(f)


def test_repr_names_cells():
    f = padic.SchwartzFunction(2, 4, {Fraction(9 - k, 2): k + 1 for k in range(10)})
    assert repr(f) == (
        "SchwartzFunction(p=2, level=4, 10 cells: "
        "{0: 10, 1/2: 9, 1: 8, 3/2: 7, 2: 6, 5/2: 5, 3: 4, 7/2: 3, ...})"
    )
    assert repr(padic.subgroup_indicator(3, 1)) == "SchwartzFunction(p=3, level=1, 1 cells: {0: 1})"
