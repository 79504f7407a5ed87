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
minimized after arithmetic, and equality always unifies first.  Phi_N itself
comes from the Moebius product of the (1 - x^d), and division from relative
norms down the tower of cyclotomic fields (``Cyclotomic.inverse``), so every
computation runs on the sparse terms.

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
from math import gcd, lcm


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n, smallest first."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of Phi_n, low degree first, monic integer polynomial.

    For n > 1, Phi_n = prod_{d | n} (1 - x^d)^mu(n/d) as a power series
    truncated at degree phi(n); only squarefree n/d contribute, each as one
    linear pass: a product by 1 - x^d runs downward, a division upward."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    deg = n
    for p in primes:
        deg = deg // p * (p - 1)
    series = [1] + [0] * deg
    for mask in range(1 << len(primes)):
        d, mu = n, 1
        for b, p in enumerate(primes):
            if mask >> b & 1:
                d, mu = d // p, -mu
        if mu > 0:
            for i in range(deg, d - 1, -1):
                series[i] -= series[i - d]
        else:
            for i in range(d, deg + 1):
                series[i] += series[i - d]
    return tuple(series)


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
        """1 / self, by relative norms down the tower of cyclotomic fields.

        y starts as self with its denominators cleared, so every value
        before the result has int terms.  At order m with
        least prime p, rest is the product of y's conjugates over
        Q(zeta_(m/p)), so y * rest lies in that field and is rewritten at
        order m/p.  At order 1, y is the norm, an integer, and 1 / self is
        the product of the rests times scale / norm."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        scale = lcm(*(c.denominator for c in self.terms.values()))
        y = _make(self.order, {i: c.numerator * (scale // c.denominator) for i, c in self.terms.items()})
        rests = []
        while y.order > 1:
            m = y.order
            p = _prime_factors(m)[0]
            q = m // p
            rest = _make(m, {0: 1})
            for k in range(1 + q, m, q):
                if gcd(k, m) == 1:
                    rest = rest * y.galois(k)
            rests.append(rest)
            y = y * rest
            if q % p == 0:
                # Phi_m(x) = Phi_q(x^p): a value of Q(zeta_q) has only exponents p | i
                y = _make(q, {i // p: c for i, c in y.terms.items()})
                continue
            # y lies in Q(zeta_q) with p coprime to q, so its trace from
            # Q(zeta_m), taken term by term, is (p - 1) y
            scale *= p - 1
            p_inv = pow(p, -1, q)
            raw = {}
            for i, c in y.terms.items():
                j = i * p_inv % q
                c = c * (p - 1) if i % p == 0 else -c
                raw[j] = raw[j] + c if j in raw else c
            y = _make(q, _reduce(raw, q))
        inv = _make(1, {0: 1})
        for rest in reversed(rests):
            inv = rest * inv
        norm = y.terms[0]
        return _make(inv.order, {i: Fraction(c * scale, norm) for i, c in inv.terms.items()})

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

    def galois(self, k: int) -> "Cyclotomic":
        """The automorphism zeta_N -> zeta_N^k of Q(zeta_N), k a unit mod N."""
        n = self.order
        if gcd(k, n) != 1:
            raise ValueError("%d is not a unit mod %d" % (k, n))
        return _make(n, _reduce({i * k % n: c for i, c in self.terms.items()}, n))

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
        """The sum of c exp(2 pi i k / N) over the terms c zeta_N^k."""
        n = self.order
        return sum((complex(c) * cmath.exp(2j * cmath.pi * (k / n)) for k, c in self.terms.items()), 0j)

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


# The largest orders an exchanged scalar may have.  Phi_n is cheap at any
# order (Phi_30030 takes 0.03 s), but at a composite order one exponent at or
# above phi(n) makes a value dense, and a product of dense values costs about
# phi(n)^2 Fraction products: on a 2-CPU machine squaring zeta_n^phi(n) took
# 0.6 s at n = 1001, 0.8 s at 2310 and 234 s at 30030.  At a prime power a
# root of unity has at most p - 1 terms, so those orders go up to 2^14, which
# holds every order a transform within padic.MAX_CELLS writes.
MAX_ORDER = 1024
MAX_PRIME_POWER_ORDER = 2**14


def scalar_from_obj(obj):
    """The scalar an object of scalar_to_obj describes: a Fraction at order 1
    (zeta_1 = 1, so the value is the sum of the coefficients), else a
    Cyclotomic."""
    order = obj["order"]
    if type(order) is not int or order < 1:  # not 1.0 or True, which compare equal to 1
        raise ValueError("scalar order %r is not a positive integer" % (order,))
    if order > MAX_PRIME_POWER_ORDER or (order > MAX_ORDER and len(_prime_factors(order)) > 1):
        raise ValueError(
            "scalar order %s exceeds %d (%d for a prime power)" % (order, MAX_ORDER, MAX_PRIME_POWER_ORDER)
        )
    coeffs = [Fraction(n, d) for n, d in obj["coeffs"]]
    if order == 1:
        return _rational(sum(coeffs, _ZERO))
    return Cyclotomic(order, coeffs)
