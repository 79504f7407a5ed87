"""Exact scalars: cyclotomic field arithmetic over Q, plus a float backend.

A ``Cyclotomic`` stores a polynomial in zeta_N (a primitive N-th root of
unity) canonically reduced mod the N-th cyclotomic polynomial Phi_N.  Since
Phi_N is the minimal polynomial of zeta_N, reduced representations at a
common order are unique, so equality of values is equality of coefficient
vectors once orders are unified.  Orders are never minimized after
arithmetic; equality always unifies first.

Rational coefficients are ``fractions.Fraction`` (already normalized with
positive denominator).  Rational values on the exact path stay plain
``Fraction`` objects, never order-1 ``Cyclotomic``s: the exact backend passes
a ``Fraction`` through unchanged, turns a small integer into one shared
``Fraction`` object, and an exchanged scalar of order 1 reads back as its
rational value.  The float backend uses plain ``complex`` with a tolerance
for zero tests.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd


# ---------------------------------------------------------------------------
# integer/rational polynomial helpers (dense lists, index = degree)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _poly_trim(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, low degree first, monic integer polynomial."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_full_divmod(num, [Fraction(c) for c in den])
    assert not r
    return tuple(int(c) for c in q)


@lru_cache(maxsize=None)
def _phi_sparse(n: int):
    """(degree of Phi_n, nonzero lower coefficients as (index, value) pairs)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    return deg, tuple((j, c) for j, c in enumerate(phi[:deg]) if c)

_ZERO = Fraction(0)


def _reduce_mod_phi(coeffs, n):
    """Reduce a Fraction polynomial in zeta_n mod Phi_n; return fixed-length tuple."""
    deg, lower = _phi_sparse(n)
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            c[i] = _ZERO
            for j, y in lower:
                c[i - deg + j] -= top * y
    c = c[:deg]
    c += [_ZERO] * (deg - len(c))
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in c)


class Cyclotomic:
    """An exact element of the cyclotomic field Q(zeta_N)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = _reduce_mod_phi(
            [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs], order
        )

    # -- constructors

    @classmethod
    def from_rational(cls, q) -> "Cyclotomic":
        return cls(1, [Fraction(q)])

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, [0])

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, [1])

    # -- coercion / order handling

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic(1, [Fraction(x)])
        return NotImplemented

    def raised_to_order(self, m: int) -> "Cyclotomic":
        """Re-express at order m (a multiple of self.order); value unchanged."""
        if m == self.order:
            return self
        if m % self.order:
            raise ValueError("new order must be a multiple of the old")
        k = m // self.order
        out = [Fraction(0)] * (len(self.coeffs) * k or 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] += c
        return Cyclotomic(m, out)

    # -- arithmetic

    def _binop(self, other, f):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.order * other.order // gcd(self.order, other.order)
        return f(self.raised_to_order(m), other.raised_to_order(m))

    def __add__(self, other):
        return self._binop(
            other, lambda a, b: Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(
            other, lambda a, b: Cyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [c * other for c in self.coeffs])
        return self._binop(other, lambda a, b: Cyclotomic(a.order, _poly_mul(list(a.coeffs), list(b.coeffs))))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        # extended gcd of self (degree < deg Phi_N) with the irreducible Phi_N
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, _poly_trim([Fraction(c) for c in self.coeffs])
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_full_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_trim([a - b for a, b in _zip_pad(s0, _poly_mul(q, s1))])
        lead = r1[0]
        inv = [c / lead for c in s1]
        return Cyclotomic(self.order, inv)

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclotomic.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure maps

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta_N -> zeta_N^(N-1), extended Q-linearly."""
        n = self.order
        if n == 1:
            return self
        # zeta^i -> zeta^(-i) = zeta^(n-i), so a degree-below-n vector suffices
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[(n - i) % n] += c
        return Cyclotomic(n, out)

    # -- predicates / conversions

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:]) if self.order > 1 else True

    def as_rational(self) -> Fraction:
        a = self
        if a.order > 1 and not a.is_rational():
            # value may still be rational at a non-minimal order only when
            # the tail vanishes, which is_rational already decided
            raise ValueError("not a rational value: %r" % (self,))
        return a.coeffs[0]

    def numeric_value(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    # -- comparisons

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.order * other.order // gcd(self.order, other.order)
        return self.raised_to_order(m).coeffs == other.raised_to_order(m).coeffs

    __hash__ = None  # cross-order equality makes a consistent cheap hash impossible

    def __repr__(self):
        if self.is_rational():
            return "Cyc(%s)" % (self.coeffs[0],)
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append("%s*z%d^%d" % (c, self.order, i))
        return "Cyc(" + " + ".join(terms) + ")"


def _zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def _poly_full_divmod(a, b):
    """Polynomial division over Q (b nonzero)."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - len(b), -1, -1):
        top = a[i + len(b) - 1]
        if top == 0:
            continue
        c = top / b[-1]
        q[i] = c
        for j, y in enumerate(b):
            if y:
                a[i + j] -= c * y
    return _poly_trim(q), _poly_trim(a)


def zeta(n: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^k."""
    k %= n
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[k] = Fraction(1)
    return Cyclotomic(n, coeffs)


def unify_order(a: Cyclotomic, b: Cyclotomic):
    """Re-express both at order lcm(N_a, N_b); values unchanged."""
    m = a.order * b.order // gcd(a.order, b.order)
    return a.raised_to_order(m), b.raised_to_order(m)


# ---------------------------------------------------------------------------
# backends: the rest of the package is generic over the scalar type.  The
# exact backend works with Cyclotomic / Fraction / int values, the float
# backend with complex.


# One shared Fraction per small integer: the fixtures' structure constants and
# the suites' random coordinates are integers in [-3, 3].
_SMALL = {n: Fraction(n) for n in range(-16, 17)}


def _rational(q):
    """q (an int or a Fraction) as a Fraction, shared if a small integer."""
    shared = _SMALL.get(q)
    if shared is not None:
        return shared
    return q if isinstance(q, Fraction) else Fraction(q)


class Backend:
    def __init__(self, name, tolerance=0.0):
        self.name = name
        self.tolerance = tolerance

    @property
    def exact(self):
        return self.name == "exact"

    def normalize(self, s):
        if self.exact:
            if isinstance(s, (Cyclotomic, Fraction)):
                return s
            if type(s) is int:
                return _rational(s)
            return Fraction(s)
        if isinstance(s, Cyclotomic):
            return s.numeric_value()
        return complex(s)

    def conj(self, s):
        if isinstance(s, Cyclotomic):
            return s.conjugate()
        if isinstance(s, complex):
            return s.conjugate()
        return s

    def is_zero(self, s):
        if isinstance(s, (complex, float)):
            return abs(s) <= self.tolerance
        if isinstance(s, Cyclotomic):
            return s.is_zero()
        return s == 0

    def eq(self, a, b):
        return self.is_zero(a - b)

    def to_complex(self, s):
        if isinstance(s, Cyclotomic):
            return s.numeric_value()
        return complex(s)

    def random_scalar(self, rng, lo=-3, hi=3):
        v = rng.randint(lo, hi)
        return Fraction(v) if self.exact else complex(v)

    def __repr__(self):
        return "Backend(%r)" % self.name


EXACT = Backend("exact")
FLOAT = Backend("float", tolerance=1e-9)


def backend_by_name(name: str, tolerance: float = 1e-9) -> Backend:
    if name == "exact":
        return EXACT
    if name == "float":
        return Backend("float", tolerance=tolerance)
    raise ValueError("unknown backend %r" % name)


# ---------------------------------------------------------------------------
# serialization: {order, coeffs: [[num, den], ...]} in the reduced basis


def scalar_to_obj(s):
    if isinstance(s, (int, Fraction)):
        s = Cyclotomic.from_rational(s)
    if not isinstance(s, Cyclotomic):
        raise TypeError("only exact scalars serialize; got %r" % type(s).__name__)
    return {"order": s.order, "coeffs": [[c.numerator, c.denominator] for c in s.coeffs]}


# The largest order an exchanged scalar may have.  Building Phi_n costs one
# dense polynomial product per divisor of n, so orders with several distinct
# prime factors are slow: on a 2-CPU machine Phi_2310 took about 3 s and
# Phi_30030 was still running after 20 s, while every n <= 1024 took under
# 0.4 s.  1024 admits every order the package produces in practice: at most
# 81 in the check suites, 729 in the benchmark, and the zeta_1024 values of
# the 2^-5 + 2^5 Zp ball transform.  Finer p-adic transforms write larger
# orders, which cannot be read back.
MAX_ORDER = 1024


def scalar_from_obj(obj):
    """The scalar an object of scalar_to_obj describes: a Fraction at order 1
    (zeta_1 = 1, so the value is the sum of the coefficients), else a
    Cyclotomic."""
    order = obj["order"]
    if order > MAX_ORDER:
        raise ValueError("scalar order %s exceeds %d" % (order, MAX_ORDER))
    coeffs = [Fraction(n, d) for n, d in obj["coeffs"]]
    if order == 1:
        return _rational(sum(coeffs, _ZERO))
    return Cyclotomic(order, coeffs)
