"""Cyclotomic field arithmetic: axioms, conjugation, numeric evaluation."""

import cmath
import math
import random
import re
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


# ---------------------------------------------------------------------------
# the sparse arithmetic against a dense reference: Phi_n by polynomial
# division, values as phi(n)-long coefficient tuples reduced top-down


def _ref_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


_REF_PHI = {}


def _ref_phi(n):
    """Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by long division."""
    if n not in _REF_PHI:
        rem = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        den = [Fraction(1)]
        for d in range(1, n):
            if n % d == 0:
                den = _ref_poly_mul(den, _ref_phi(d))
        quot = [Fraction(0)] * (n - len(den) + 2)
        for i in range(n + 1 - len(den), -1, -1):
            c = rem[i + len(den) - 1]
            quot[i] = c
            for j, y in enumerate(den):
                if y:
                    rem[i + j] -= c * y
        assert not any(rem)
        while quot[-1] == 0:
            quot.pop()
        _REF_PHI[n] = quot
    return _REF_PHI[n]


def _ref_reduce(coeffs, n):
    phi = _ref_phi(n)
    deg = len(phi) - 1
    c = [Fraction(x) for x in coeffs]
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            c[i] = Fraction(0)
            for j in range(deg):
                c[i - deg + j] -= top * phi[j]
    return tuple(c[:deg] + [Fraction(0)] * (deg - len(c)))


def _ref_raise(coeffs, n, m):
    out = [Fraction(0)] * m
    for i, c in enumerate(coeffs):
        out[i * (m // n)] += c
    return _ref_reduce(out, m)


def _ref_add(a, n, b, m, sign=1):
    k = math.lcm(n, m)
    return tuple(x + sign * y for x, y in zip(_ref_raise(a, n, k), _ref_raise(b, m, k)))


def _ref_mul(a, n, b, m):
    k = math.lcm(n, m)
    return _ref_reduce(_ref_poly_mul(list(_ref_raise(a, n, k)), list(_ref_raise(b, m, k))), k)


def _ref_conjugate(a, n):
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[(n - i) % n] += c
    return _ref_reduce(out, n)


def _ref_inverse(a, n):
    """The inverse by the extended Euclidean algorithm against Phi_n."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def divmod_(x, y):
        x = list(x)
        q = [Fraction(0)] * max(len(x) - len(y) + 1, 1)
        for i in range(len(x) - len(y), -1, -1):
            c = x[i + len(y) - 1] / y[-1]
            q[i] = c
            for j, v in enumerate(y):
                if c and v:
                    x[i + j] -= c * v
        return trim(q), trim(x)

    r0, r1 = list(_ref_phi(n)), trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        qs = _ref_poly_mul(q, s1)
        width = max(len(s0), len(qs))
        s0, s1 = s1, trim([x - y for x, y in zip(s0 + [0] * (width - len(s0)), qs + [0] * (width - len(qs)))])
    return _ref_reduce([c / r1[0] for c in s1], n)


_REF_ORDERS = [1, 6, 12, 30, 64, 81, 105, 243, 343, 625, 729, 1024]


def _sparse_dense_list(draw, n):
    """A few nonzero coefficients at exponents below 2 * n, as a dense list,
    so that construction also reduces terms above the degree."""
    terms = draw(st.dictionaries(st.integers(0, 2 * n - 1), _COEFF, max_size=4))
    dense = [Fraction(0)] * (max(terms, default=0) + 1)
    for i, c in terms.items():
        dense[i] = c
    return dense


@st.composite
def sparse_pairs(draw):
    """Two values whose orders have an lcm of at most 1024, so mixed orders
    (6 and 64, 30 and 81, 12 and 105, ...) stay cheap to unify."""
    n = draw(st.sampled_from(_REF_ORDERS))
    m = draw(st.sampled_from([d for d in _REF_ORDERS if math.lcm(n, d) <= 1024]))
    return (n, _sparse_dense_list(draw, n)), (m, _sparse_dense_list(draw, m))


def _ref_value(dense, n):
    return _ref_reduce([sum(dense[i::n], Fraction(0)) for i in range(n)], n)


@settings(max_examples=80, deadline=None)
@given(sparse_pairs())
def test_sparse_arithmetic_matches_dense_reference(pair):
    (n, dx), (m, dy) = pair
    a, b = Cyclotomic(n, dx), Cyclotomic(m, dy)
    ra, rb = _ref_value(dx, n), _ref_value(dy, m)
    k = math.lcm(n, m)
    # raising by the least prime factor keeps prime powers prime powers
    up = n * next((q for q in range(2, n + 1) if n % q == 0), 2)
    assert cyclotomic_polynomial(n) == tuple(_ref_phi(n))
    assert a.coeffs == ra and b.coeffs == rb
    assert all(type(c) is Fraction for c in a.coeffs)
    for got, want in [
        (a + b, _ref_add(ra, n, rb, m)),
        (a - b, _ref_add(ra, n, rb, m, -1)),
        (a * b, _ref_mul(ra, n, rb, m)),
        (a * Fraction(-3, 5), tuple(c * Fraction(-3, 5) for c in ra)),
        (-a, tuple(-c for c in ra)),
        (a.conjugate(), _ref_conjugate(ra, n)),
        (a.raised_to_order(k), _ref_raise(ra, n, k)),
        (a.raised_to_order(up), _ref_raise(ra, n, up)),
    ]:
        assert got.coeffs == want
    assert (a + b).order == (a * b).order == k
    assert (a == b) == (_ref_raise(ra, n, k) == _ref_raise(rb, m, k))
    # the same value written at a multiple of its order compares equal
    assert a == Cyclotomic(k, _ref_raise(ra, n, k)) == a.raised_to_order(up)
    assert a.is_zero() == (not any(ra))


def _ref_numeric_value(coeffs, n):
    """Horner's rule over all phi(n) dense coefficients."""
    z = cmath.exp(2j * cmath.pi / n)
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
    return acc


@st.composite
def ref_values(draw):
    n = draw(st.sampled_from(_REF_ORDERS))
    return Cyclotomic(n, _sparse_dense_list(draw, n))


@settings(max_examples=80, deadline=None)
@given(ref_values())
def test_numeric_value_matches_dense_horner(a):
    # relative to the sum of |coefficients|, which bounds the value and both
    # evaluations' rounding; the value itself may cancel to near zero
    scale = max(1.0, sum(abs(float(c)) for c in a.terms.values()))
    assert abs(a.numeric_value() - _ref_numeric_value(a.coeffs, a.order)) <= 1e-12 * scale


@pytest.mark.parametrize("k", [0, 1, 5, 2**12 + 3, 2**13, 2**13 + 5, 2**14 - 1])
def test_numeric_value_of_a_root_of_unity_at_order_2_14(k):
    assert abs(zeta(2**14, k).numeric_value() - cmath.exp(2j * cmath.pi * k / 2**14)) <= 1e-12


@st.composite
def invertible_values(draw):
    """Up to four terms below order 81; from 81 on a rational plus one root
    of unity, since the Euclidean algorithm's coefficients grow fast there
    (three terms at order 105 take seconds)."""
    n = draw(st.sampled_from(_REF_ORDERS))
    if n < 81:
        return n, _sparse_dense_list(draw, n)
    dense = [Fraction(0)] * (2 * n)
    dense[0], dense[draw(st.integers(1, 2 * n - 1))] = draw(_COEFF), draw(_COEFF.filter(bool))
    return n, dense


@settings(max_examples=40, deadline=None)
@given(invertible_values())
def test_sparse_inverse_matches_dense_reference(x):
    n, dx = x
    a = Cyclotomic(n, dx)
    if a.is_zero():
        return
    assert a.inverse().coeffs == _ref_inverse(a.coeffs, n)
    assert a * a.inverse() == 1


@st.composite
def galois_cases(draw):
    n = draw(st.sampled_from(_REF_ORDERS))
    k = draw(st.integers(1, n).filter(lambda k: math.gcd(k, n) == 1))
    return k, Cyclotomic(n, _sparse_dense_list(draw, n)), Cyclotomic(n, _sparse_dense_list(draw, n))


@settings(max_examples=60, deadline=None)
@given(galois_cases())
def test_galois_is_a_field_automorphism(case):
    k, a, b = case
    n = a.order
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert a.galois(-1) == a.conjugate()
    assert a.galois(k).galois(pow(k, -1, n)) == a


def test_galois_refuses_a_non_unit():
    with pytest.raises(ValueError, match="unit"):
        zeta(12).galois(3)


@pytest.mark.parametrize("order", _REF_ORDERS + [990, 1001, 1020, 2048, 2187, 2401, 3125])
def test_inverse_by_norms_beyond_the_dense_reference(order):
    # up to four terms with denominators, at exponents below phi(order) so
    # that the value stays sparse; the inverse is dense, and inverting it
    # again is cheap only below order 243
    rng = random.Random(order)
    deg = len(cyclotomic_polynomial(order)) - 1
    exponents = rng.sample(range(deg), min(4, deg))
    a = Cyclotomic(order, {i: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for i in exponents})
    inv = a.inverse()
    assert a * inv == 1
    if order < 243:
        assert inv.inverse() == a


def test_cyclotomic_polynomial_matches_the_dense_reference():
    for n in range(1, 301):
        assert cyclotomic_polynomial(n) == tuple(_ref_phi(n)), n


@pytest.mark.parametrize("p, k", [(2, 1), (2, 5), (2, 10), (2, 14), (3, 1), (3, 6), (5, 4), (7, 3)])
def test_prime_power_roots_of_unity_are_short(p, k):
    n = p**k
    for j in range(0, n, max(1, n // 97)):
        z = zeta(n, j)
        assert z.order == n
        assert len(z.terms) == 1 if p == 2 else 1 <= len(z.terms) <= p - 1
        assert (z * zeta(n, -j)).terms == {0: 1}


@pytest.mark.parametrize("order", [2048, 3**7, 2**14])
def test_prime_power_orders_above_1024_read_back(order):
    a = zeta(order, 5) * Fraction(2, 3) + zeta(order, order - 1) + 1
    back = scalar_from_obj(scalar_to_obj(a))
    assert back == a and back.order == order


@pytest.mark.parametrize("order", [1026, 2 * 3**7, 2**15, 30030])
def test_orders_above_their_bound_are_refused(order):
    with pytest.raises(ValueError, match="exceeds"):
        scalar_from_obj({"order": order, "coeffs": [[1, 1]]})


@pytest.mark.parametrize("order", [1.0, True, 2.0, "8", 0, -3, None], ids=repr)
def test_orders_that_are_not_positive_integers_are_refused(order):
    # 1.0 and True compare equal to 1 and used to read as order 1
    with pytest.raises(ValueError, match=re.escape("scalar order %r is not a positive integer" % (order,))):
        scalar_from_obj({"order": order, "coeffs": [[1, 1]]})
