"""The non-unital dual pair over Z: Laurent polynomials against finitely
supported functions, with multiplier coproduct slices."""

import pytest

from qgfourier import laurent
from qgfourier.report import passed
from qgfourier.scalars import EXACT


def e(n):
    return laurent.basis(laurent.CZ, n)


def d(n):
    return laurent.basis(laurent.KZ, n)


def test_products():
    assert laurent.pair_mult(e(2), e(-5)) == e(-3)
    assert laurent.pair_mult(d(2), d(2)) == d(2)
    assert laurent.pair_mult(d(2), d(3)).is_zero()
    with pytest.raises(ValueError):
        laurent.pair_mult(e(0), d(0))


def test_counit_antipode_star():
    assert laurent.pair_counit(e(7)) == 1
    assert laurent.pair_counit(d(0)) == 1
    assert laurent.pair_counit(d(3)) == 0
    assert laurent.pair_antipode(e(3)) == e(-3)


def test_integrals():
    assert laurent.pair_integral(e(0)) == 1
    assert laurent.pair_integral(e(4)) == 0
    f = laurent.SparseElement(laurent.KZ, {-1: 2, 5: 3})
    assert laurent.pair_integral(f) == 5


def test_coproduct_slices():
    # coproduct(e_n) = e_n (x) e_n, seen through both slices
    assert laurent.pair_delta_slice(e(2), e(3)) == {(2, 5): 1}
    assert laurent.pair_delta_slice(e(2), e(3), left=True) == {(5, 3): 1}
    # function side: coproduct(f)(n, m) = f(n + m)
    assert laurent.pair_delta_slice(d(5), d(2)) == {(3, 2): 1}
    assert laurent.pair_delta_slice(d(5), d(2), left=True) == {(5, -3): 1}


def test_pairing():
    assert laurent.pair_pairing(e(3), d(-3)) == 1
    assert laurent.pair_pairing(e(3), d(3)) == 0
    with pytest.raises(ValueError):
        laurent.pair_pairing(d(0), d(0))


def test_fourier_both_directions():
    for n in range(-10, 11):
        assert laurent.pair_fourier(e(n)) == d(n)
    # transforming back across the pairing and reflecting recovers e_n
    for n in range(-5, 6):
        assert laurent.pair_antipode(laurent.pair_fourier(laurent.pair_fourier(e(n)))) == e(n)


def test_evaluation_is_function_side_only():
    assert d(3)(3) == 1 and d(3)(2) == 0
    with pytest.raises(ValueError):
        e(3)(0)


def test_type_certificates():
    reports = laurent.laurent_type_certificates(EXACT)
    assert passed(reports)
    cases = [r.case for r in reports]
    assert any("CZ has unit" in c for c in cases)
    assert any("no nonzero cointegral" in c for c in cases)
    assert any("KZ has cointegral" in c for c in cases)
    assert any("KZ has no unit" in c for c in cases)


def test_certificate_helpers_find_the_other_side():
    # the helpers that certify "no cointegral on CZ" and "no unit on KZ"
    # find delta_0 and e_0 on the other side of the pair
    assert laurent._cointegrals(laurent.CZ, EXACT) == []
    assert laurent._cointegrals(laurent.KZ, EXACT) == [d(0)]
    assert laurent._unit(laurent.CZ, EXACT) == e(0)
    assert laurent._unit(laurent.KZ, EXACT) is None
