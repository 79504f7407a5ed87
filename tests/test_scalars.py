"""Cyclotomic field arithmetic: axioms, conjugation, numeric evaluation."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgfourier.scalars import (
    EXACT,
    FLOAT,
    Cyclotomic,
    backend_by_name,
    cyclotomic_polynomial,
    scalar_from_obj,
    scalar_to_obj,
    unify_order,
    zeta,
)

# orders with small phi-degree keep the property tests fast
_ORDERS = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12])
_COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def cyclotomics(draw):
    n = draw(_ORDERS)
    deg = len(cyclotomic_polynomial(n)) - 1
    return Cyclotomic(n, draw(st.lists(_COEFF, min_size=deg, max_size=deg)))


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Cyclotomic.zero() == a
    assert a * Cyclotomic.one() == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(cyclotomics())
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == Cyclotomic.one()
        assert (Cyclotomic.one() / a) * a == Cyclotomic.one()


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_conjugation(a, b):
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    # a * conj(a) is real: equal to its own conjugate
    n = a * a.conjugate()
    assert n == n.conjugate()


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_numeric_evaluation_is_a_homomorphism(a, b):
    za, zb = a.numeric_value(), b.numeric_value()
    assert abs((a + b).numeric_value() - (za + zb)) < 1e-9
    assert abs((a * b).numeric_value() - za * zb) < 1e-6
    assert abs(a.conjugate().numeric_value() - za.conjugate()) < 1e-9


@settings(max_examples=60, deadline=None)
@given(cyclotomics())
def test_order_unification_preserves_value(a):
    lifted = a.raised_to_order(a.order * 4)
    assert lifted == a
    assert abs(lifted.numeric_value() - a.numeric_value()) < 1e-9


def test_roots_of_unity():
    assert zeta(4) * zeta(4) == Fraction(-1)
    assert zeta(3) + zeta(3, 2) == Fraction(-1)
    assert zeta(3) ** 3 == Cyclotomic.one()
    assert zeta(8) ** 8 == Cyclotomic.one()
    assert zeta(6) == Cyclotomic.one() + zeta(3)
    # primitive means no smaller power hits 1
    assert not zeta(8) ** 4 == Cyclotomic.one()


def test_cyclotomic_polynomial_table():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cross_order_equality():
    a, b = unify_order(zeta(3), zeta(4))
    assert a.order == b.order == 12
    assert zeta(3) == zeta(12) ** 4
    assert zeta(2) == Cyclotomic(4, [0, 0, 1])


def test_rational_detection():
    assert Cyclotomic.from_rational(Fraction(2, 3)).as_rational() == Fraction(2, 3)
    assert (zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)).as_rational() == Fraction(-1)
    with pytest.raises(ValueError):
        zeta(5).as_rational()


def test_values_are_unhashable():
    # equality crosses representation orders, so hashing is deliberately off
    with pytest.raises(TypeError):
        hash(zeta(3))


def test_serialization_round_trip():
    a = zeta(12, 5) + Fraction(3, 7)
    assert scalar_from_obj(scalar_to_obj(a)) == a
    q = Fraction(-2, 9)
    assert scalar_from_obj(scalar_to_obj(q)) == Cyclotomic.from_rational(q) == q


def test_backends():
    assert EXACT.normalize(2) == Fraction(2)
    assert abs(FLOAT.normalize(zeta(4)) - 1j) < 1e-12
    assert FLOAT.is_zero(1e-12)
    assert not FLOAT.is_zero(1e-3)
    assert EXACT.conj(zeta(3)) == zeta(3, 2)
    loose = backend_by_name("float", tolerance=0.5)
    assert loose.is_zero(0.1)
    with pytest.raises(ValueError):
        backend_by_name("symbolic")


@pytest.mark.parametrize(
    "coeffs, value",
    [
        ([[1, 2], [1, 3]], Fraction(5, 6)),  # zeta_1 = 1: the sum of the coefficients
        ([[3, 1]], Fraction(3)),
        ([[1, 2], [-1, 2]], Fraction(0)),
        ([[-7, 4], [2, 1], [1, 4]], Fraction(1, 2)),
        ([], Fraction(0)),
    ],
)
def test_order_one_objects_read_back_as_rationals(coeffs, value):
    s = scalar_from_obj({"order": 1, "coeffs": coeffs})
    assert type(s) is Fraction and s == value
    assert s == Cyclotomic(1, [Fraction(n, d) for n, d in coeffs])
    # a Fraction and an order-1 Cyclotomic write the same bytes
    assert scalar_to_obj(s) == scalar_to_obj(Cyclotomic.from_rational(value))


@pytest.mark.parametrize(
    "coeffs, error",
    [([[1, 0]], ZeroDivisionError), ([[1.5, 2]], TypeError), ([["1", 2]], TypeError), ([[1]], ValueError)],
    ids=["zero-denominator", "float-entry", "string-entry", "short-pair"],
)
def test_malformed_order_one_objects_raise(coeffs, error):
    with pytest.raises(error):
        scalar_from_obj({"order": 1, "coeffs": coeffs})


def test_exact_normalize_shares_rationals():
    q = Fraction(2, 3)
    assert EXACT.normalize(q) is q
    assert EXACT.normalize(-3) is EXACT.normalize(-3) is scalar_from_obj({"order": 1, "coeffs": [[-3, 1]]})
    assert EXACT.normalize(10**6) == Fraction(10**6)
    assert EXACT.normalize(0.5) == Fraction(1, 2)
