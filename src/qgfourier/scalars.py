"""Exact scalars: cyclotomic field arithmetic over Q, plus a float backend.

A ``Cyclotomic`` is an element of Q(zeta_N), zeta_N a primitive N-th root of
unity, written in the basis 1, zeta_N, ..., zeta_N^(phi(N) - 1): a
polynomial in zeta_N reduced mod the N-th cyclotomic polynomial Phi_N.  It
is stored sparsely, as ``order`` (N) and ``terms``, a dict of its nonzero
``Fraction`` coefficients keyed by exponent; ``coeffs`` is the dense tuple of
all phi(N) coefficients, derived on demand.  Since Phi_N is the minimal
polynomial of zeta_N, reduced representations at a common order are unique,
so equality of values is equality of terms once orders are unified.

Arithmetic reduces a term first mod x^N - 1, then mod Phi_N from the highest
exponent down.  At a prime power Phi_{p^k}(x) = Phi_p(x^(p^(k-1))) finishes
that in one pass, so zeta_{2^k}^j stays one term and zeta_{p^k}^j has at most
p - 1 terms.  A result has the lcm of its operands' orders: orders are never
minimized after arithmetic, and equality always unifies first.

Rational values on the exact path stay plain ``Fraction`` objects, never
order-1 ``Cyclotomic``s: the exact backend passes a ``Fraction`` through
unchanged, turns a small integer into one shared ``Fraction`` object, and an
exchanged scalar of order 1 reads back as its rational value.  The float
backend uses plain ``complex`` with a tolerance for zero tests.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, isqrt


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


def _prime_power(n: int):
    """(p, k) with n = p^k and k >= 1, or None."""
    if n < 2:
        return None
    p = next((q for q in range(2, isqrt(n) + 1) if n % q == 0), n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, low degree first, monic integer polynomial."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    pk = _prime_power(n)
    if pk:
        # Phi_{p^k}(x) = Phi_p(x^q) = 1 + x^q + ... + x^((p-1) q), q = p^(k-1)
        p, k = pk
        q = p ** (k - 1)
        return tuple(int(i % q == 0) for i in range((p - 1) * q + 1))
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
_ONE = Fraction(1)


def _reduce(raw: dict, n: int) -> dict:
    """The nonzero terms of sum raw[i] x^i mod Phi_n, for exponents 0 <= i < n.

    Exponents at or above deg Phi_n are rewritten from the highest down with
    x^deg = -(the lower terms of Phi_n); a rewritten exponent can still be
    high for composite n, never for a prime power.  raw is consumed.
    """
    deg, lower = _phi_sparse(n)
    high = [-i for i in raw if i >= deg]
    heapify(high)
    while high:
        i = -heappop(high)
        c = raw.pop(i)
        if not c:
            continue
        base = i - deg
        for j, y in lower:
            k = base + j
            d = c if y == 1 else c * y
            if k in raw:
                raw[k] -= d
            else:
                raw[k] = -d
                if k >= deg:
                    heappush(high, -k)
    return {i: c for i, c in raw.items() if c}


def _make(order: int, terms: dict) -> "Cyclotomic":
    """A Cyclotomic from terms already reduced at order, zeros dropped.

    Arithmetic on Cyclotomic operands builds its results here; a value made
    from anything else (zeta, a rational, a coefficient list) goes through
    ``Cyclotomic.__init__``."""
    z = object.__new__(Cyclotomic)
    z.order = order
    z.terms = terms
    return z


class Cyclotomic:
    """An exact element of the cyclotomic field Q(zeta_N).

    ``Cyclotomic(N, coeffs)`` takes the coefficients of a polynomial in
    zeta_N, either dense (a sequence, index = exponent) or sparse (a dict
    exponent -> coefficient), of any degree.  Values are never mutated."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be positive")
        raw = {}
        for i, c in coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs):
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                i %= order
                raw[i] = raw[i] + c if i in raw else c
        self.order = order
        self.terms = _reduce(raw, order)

    @property
    def coeffs(self) -> tuple:
        """All phi(N) coefficients in the reduced basis, zeros included."""
        get = self.terms.get
        return tuple(get(i, _ZERO) for i in range(_phi_sparse(self.order)[0]))

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
            return Cyclotomic(1, [x])
        return NotImplemented

    def raised_to_order(self, m: int) -> "Cyclotomic":
        """Re-express at order m (a multiple of self.order); value unchanged."""
        if m == self.order:
            return self
        if m % self.order:
            raise ValueError("new order must be a multiple of the old")
        k = m // self.order
        return _make(m, _reduce({i * k: c for i, c in self.terms.items()}, m))

    # -- arithmetic

    def _sum(self, other, sign):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = unify_order(self, other)
        out = dict(a.terms)
        for i, c in b.terms.items():
            s = out.get(i)
            if s is None:
                out[i] = c if sign > 0 else -c
            else:
                s = s + c if sign > 0 else s - c
                if s:
                    out[i] = s
                else:
                    del out[i]
        return _make(a.order, out)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(self.order, {i: -c for i, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _make(self.order, {})
            return _make(self.order, {i: c * other for i, c in self.terms.items()})
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = unify_order(self, other)
        n = a.order
        raw = {}
        for i, x in a.terms.items():
            for j, y in b.terms.items():
                k = i + j
                if k >= n:
                    k -= n
                v = x * y
                raw[k] = raw[k] + v if k in raw else v
        return _make(n, _reduce(raw, n))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        # extended gcd of self (degree < deg Phi_N) with the irreducible Phi_N
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, _poly_trim(list(self.coeffs))
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
        return _make(n, _reduce({(n - i) % n: c for i, c in self.terms.items()}, n))

    # -- predicates / conversions

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(i == 0 for i in self.terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            # value may still be rational at a non-minimal order only when
            # the tail vanishes, which is_rational already decided
            raise ValueError("not a rational value: %r" % (self,))
        return self.terms.get(0, _ZERO)

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
        a, b = unify_order(self, other)
        return a.terms == b.terms

    __hash__ = None  # cross-order equality makes a consistent cheap hash impossible

    def __repr__(self):
        if self.is_rational():
            return "Cyc(%s)" % (self.terms.get(0, _ZERO),)
        terms = []
        for i, c in sorted(self.terms.items()):
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
    return Cyclotomic(n, {k % n: _ONE})


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


# The largest orders an exchanged scalar may have.  Building Phi_n at a
# composite n costs one dense polynomial product per divisor of n, so orders
# with several distinct prime factors are slow: on a 2-CPU machine Phi_2310
# took about 3 s and Phi_30030 was still running after 20 s, while every
# n <= 1024 took under 0.4 s.  At a prime power Phi_n has a closed form and
# a root of unity at most p - 1 terms, so those orders go up to 2^14, which
# holds every order a transform within padic.MAX_CELLS writes.
MAX_ORDER = 1024
MAX_PRIME_POWER_ORDER = 2**14


def scalar_from_obj(obj):
    """The scalar an object of scalar_to_obj describes: a Fraction at order 1
    (zeta_1 = 1, so the value is the sum of the coefficients), else a
    Cyclotomic."""
    order = obj["order"]
    if order > MAX_PRIME_POWER_ORDER or (order > MAX_ORDER and not _prime_power(order)):
        raise ValueError(
            "scalar order %s exceeds %d (%d for a prime power)" % (order, MAX_ORDER, MAX_PRIME_POWER_ORDER)
        )
    coeffs = [Fraction(n, d) for n, d in obj["coeffs"]]
    if order == 1:
        return _rational(sum(coeffs, _ZERO))
    return Cyclotomic(order, coeffs)
