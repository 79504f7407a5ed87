"""Exact p-adic numbers, Schwartz functions, Haar integration and the
transform."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgfourier import padic
from qgfourier.scalars import EXACT, FLOAT, zeta


# -- literals and numbers ----------------------------------------------------


def test_parse_terms():
    x = padic.parse_padic("1*5^-2+3", 5)
    assert x == Fraction(1, 25) + 3 and isinstance(x, Fraction)
    assert padic.parse_padic("0", 7) == 0


def test_parse_digit_string():
    # base-2 digit string, most significant first, radix point
    x = padic.parse_padic("101.01", 2)
    assert x == Fraction(5) + Fraction(1, 4)


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
    for text, position in (("1*5^1 + 1*5^1", 7), ("19.3", 1), ("2.05", 3), ("1*5^2 +9", 7)):
        with pytest.raises(padic.ParseError) as info:
            padic.parse_padic(text, 5)
        assert info.value.position == position, text


def test_format_round_trip():
    for text in ("0", "3", "1*5^-2 + 3", "2*5^1 + 4*5^3"):
        x = padic.parse_padic(text, 5)
        assert padic.format_padic(x, 5) == text
        assert padic.parse_padic(padic.format_padic(x, 5), 5) == x


def test_fraction_round_trip():
    assert padic.format_padic(Fraction(22, 9), 3) == "1*3^-2 + 1*3^-1 + 2"
    assert padic.parse_padic(padic.format_padic(Fraction(22, 9), 3), 3) == Fraction(22, 9)
    with pytest.raises(padic.PAdicError, match="not a power of 3"):
        padic.format_padic(Fraction(1, 2), 3)
    with pytest.raises(padic.PAdicError, match="nonnegative"):
        padic.format_padic(-1, 3)


def test_arithmetic_and_negation():
    p = 5
    x = padic.parse_padic("4 + 3*5^1", p)
    y = padic.parse_padic("2*5^1", p)
    assert padic.format_padic(x + y, p) == "4 + 1*5^2"
    assert padic.format_padic(x * y, p) == "3*5^1 + 2*5^2 + 1*5^3"
    # -x has no finite expansion; reduced modulo p^4 it is p^4 - x
    neg = padic.Ball.make(p, 4, -x).center
    assert padic.format_padic(neg, p) == "1 + 1*5^1 + 4*5^2 + 4*5^3"
    assert padic._mod_power(neg + x, p, 4) == 0


def test_valuation_and_norm():
    x = padic.parse_padic("1*5^-2+3", 5)
    assert padic.fraction_valuation(x, 5) == -2
    assert Fraction(5) ** -padic.fraction_valuation(x, 5) == 25
    assert padic.fraction_valuation(Fraction(0), 5) == inf
    assert padic.fraction_valuation(Fraction(18), 3) == 2
    assert padic.fraction_valuation(Fraction(1, 9), 3) == -2


@pytest.mark.parametrize("p", [1, 0, -3])
def test_valuation_refuses_p_below_2(p):
    with pytest.raises(padic.PAdicError):
        padic.fraction_valuation(Fraction(1, 2), p)
    with pytest.raises(padic.PAdicError):
        padic.character(Fraction(1, 2), p)


def test_character_values():
    p = 2
    half = padic.parse_padic("1*2^-1", p)
    one = padic.parse_padic("1", p)
    assert padic.character(half * one, p) == zeta(2)  # exp(2 pi i / 2) = -1
    assert padic.character(one * one, p) == Fraction(1)  # integer product, trivial
    q = padic.parse_padic("1*3^-2", 3)
    assert padic.character(q * padic.parse_padic("2", 3), 3) == zeta(9, 2)
    with pytest.raises(padic.PAdicError):
        padic.character(Fraction(1, 3), 2)  # not in Z[1/2]


def test_fractional_part():
    # only the negative-exponent digits reach the character
    x = padic.parse_padic("2*3^-2 + 1*3^-1 + 2 + 1*3^1", 3)
    assert x % 1 == Fraction(2, 9) + Fraction(1, 3)
    assert padic.character(x, 3) == padic.character(padic.parse_padic("2*3^-2 + 1*3^-1", 3), 3) == zeta(9, 5)


@pytest.mark.parametrize("text", ["1*2^4097", "1*2^-4097", "1" + "0" * 4097, "0." + "0" * 4096 + "1"])
def test_exponents_beyond_max_exponent_are_refused(text):
    with pytest.raises(padic.ParseError, match="MAX_EXPONENT"):
        padic.parse_padic(text, 2)


def reference_from_fraction(p, q):
    """The digit map of the removed PAdic.from_fraction."""
    q = Fraction(q)
    if q < 0:
        raise padic.PAdicError("finite expansions are nonnegative; negate modulo p^M instead")
    k = 0
    while q.denominator % p == 0:
        q *= p
        k += 1
    if q.denominator != 1:
        raise padic.PAdicError("denominator is not a power of %d" % p)
    n = q.numerator
    digits = {}
    j = -k
    while n:
        n, d = divmod(n, p)
        if d:
            digits[j] = d
        j += 1
    return digits


def reference_format(p, digits):
    """The removed format_padic, over a digit map."""
    if not digits:
        return "0"
    return " + ".join(str(d) if j == 0 else "%d*%d^%d" % (d, p, j) for j, d in sorted(digits.items()))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), a=st.integers(0, 10**12), k=st.integers(0, 12))
def test_format_matches_the_digit_reference(p, a, k):
    q = Fraction(a, p**k)
    text = padic.format_padic(q, p)
    assert text == reference_format(p, reference_from_fraction(p, q))
    assert padic.parse_padic(text, p) == q


# -- balls and Schwartz functions --------------------------------------------


def test_ball_parse_and_contains():
    b = padic.parse_ball("1 + 2^1*Zp", 2)
    assert b.level == 1 and b.center == 1
    assert b.contains(3) and not b.contains(2)
    assert padic.parse_ball(padic.format_ball(b), 2) == b
    with pytest.raises(padic.ParseError):
        padic.parse_ball("3^1*Zp", 2)  # base mismatch
    with pytest.raises(padic.ParseError, match="MAX_EXPONENT") as info:
        padic.parse_ball("1 + 2^-4097*Zp", 2)
    assert info.value.position == 6


def test_ball_center_is_reduced():
    b = padic.Ball.make(3, 1, Fraction(7))
    assert b.center == 1  # 7 mod 3
    assert padic.Ball.make(2, -1, Fraction(7, 4)) == padic.Ball.make(2, -1, Fraction(1, 4))
    assert padic.format_ball(padic.Ball.make(2, -1, Fraction(7, 4))) == "1*2^-2 + 2^-1*Zp"


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
    expected = padic.character(c * y, p).conjugate() * Fraction(1, 2)
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
