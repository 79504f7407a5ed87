"""Exact harmonic analysis on the p-adic line.

A p-adic number is a Fraction in Z[1/p]: every ball center, cell key and
character argument the transform touches is one, because
Q_p/Z_p = Z[1/p]/Z.  Base-p digits appear only in text: ``parse_padic``
reads sums of d*p^j terms or digit strings, and ``format_padic`` writes the
canonical sum back.  Negation is only defined modulo a truncation level,
because -1 has an infinite expansion.

Locally constant compactly supported functions are stored as a finite set of
disjoint balls at one uniform level with scalar values; equality is decided
on a common refinement.  The Fourier transform, convolution and the Haar
integral are exact: character values are roots of unity of p-power order,
so everything lives in cyclotomic fields.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .report import check
from .scalars import EXACT, Backend, Cyclotomic, zeta


class PAdicError(ValueError):
    pass


class ParseError(PAdicError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


# ---------------------------------------------------------------------------
# numbers: Fractions in Z[1/p]

# The largest |j| accepted for an exponent p^j read from text or an exchange
# file.  A Fraction holds p^j explicitly, so 1*2^1000000000 would take
# minutes to build; 4096 is far beyond any window MAX_CELLS admits.
MAX_EXPONENT = 4096


def _mod_power(q: Fraction, p: int, m: int) -> Fraction:
    """Representative of q mod p^m in [0, p^m) within Z[1/p]."""
    step = Fraction(p) ** m
    return q - step * (q / step).__floor__()


def fraction_valuation(q: Fraction, p: int):
    """The exponent of p in q; inf for zero."""
    if p < 2:
        raise PAdicError("p = %d is not a prime" % p)
    if q == 0:
        return inf
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def character(q: Fraction, p: int) -> Cyclotomic:
    """exp(2 pi i {q}_p) for q in Z[1/p], an exact root of unity of p-power order."""
    frac = q - q.__floor__()
    if frac == 0:
        return Cyclotomic.one()
    if fraction_valuation(frac, p) >= 0 or frac.denominator == 1:
        raise PAdicError("%s is not in Z[1/%d]" % (q, p))
    return zeta(frac.denominator, frac.numerator)


# ---------------------------------------------------------------------------
# literal syntax: sums of d*p^j terms, or a base-p digit string with a
# radix point (most significant digit first)

_TERM = re.compile(r"\s*(\d+)(?:\s*\*\s*(\d+)\s*\^\s*(-?\d+))?\s*$")


def _check_exponent(j: int, position: int) -> None:
    if abs(j) > MAX_EXPONENT:
        raise ParseError("exponent %d beyond +-%d (padic.MAX_EXPONENT)" % (j, MAX_EXPONENT), position)


def parse_padic(text: str, p: int) -> Fraction:
    s = text.strip()
    if re.fullmatch(r"[0-9]+\.[0-9]+|[0-9]{2,}", s) and "*" not in s:
        return _parse_digit_string(s, p)
    digits = {}
    pos = 0
    for chunk in s.split("+"):
        m = _TERM.match(chunk)
        if not m:
            raise ParseError("expected 'd*p^j' or a digit", pos + len(chunk) - len(chunk.lstrip()))
        d = int(m.group(1))
        if d >= p:
            raise ParseError("digit %d out of range for p=%d" % (d, p), pos)
        if m.group(2) is None:
            j = 0
        else:
            base = int(m.group(2))
            if base != p:
                raise ParseError("base %d does not match p=%d" % (base, p), pos)
            j = int(m.group(3))
            _check_exponent(j, pos)
        if d:
            if j in digits:
                raise ParseError("duplicate exponent %d" % j, pos)
            digits[j] = d
        pos += len(chunk) + 1
    return _from_digits(digits, p)


def _parse_digit_string(s: str, p: int) -> Fraction:
    whole, _, frac = s.partition(".")
    # (position, exponent), least significant whole digit first
    places = [(len(whole) - 1 - j, j) for j in range(len(whole))]
    places += [(len(whole) + i, -i) for i in range(1, len(frac) + 1)]
    digits = {}
    for pos, j in places:
        d = int(s[pos])
        if d >= p:
            raise ParseError("digit %d out of range for p=%d" % (d, p), pos)
        if d:
            _check_exponent(j, pos)
            digits[j] = d
    return _from_digits(digits, p)


def _from_digits(digits: dict, p: int) -> Fraction:
    """sum of d p^j over a {j: d} map, by Horner's rule."""
    if not digits:
        return Fraction(0)
    lo = min(digits)
    n = 0
    for j in range(max(digits), lo - 1, -1):
        n = n * p + digits.get(j, 0)
    return n * Fraction(p) ** lo


def format_padic(q: Fraction, p: int) -> str:
    """The canonical sum of d*p^j terms, least significant first."""
    q = Fraction(q)
    if q < 0:
        raise PAdicError("finite expansions are nonnegative; negate modulo p^M instead")
    if q == 0:
        return "0"
    j = fraction_valuation(q, p)
    n = q * Fraction(p) ** -j
    if n.denominator != 1:
        raise PAdicError("denominator is not a power of %d" % p)
    n = n.numerator
    terms = []
    while n:
        n, d = divmod(n, p)
        if d:
            terms.append(str(d) if j == 0 else "%d*%d^%d" % (d, p, j))
        j += 1
    return " + ".join(terms)


_BALL = re.compile(r"^\s*(?:(.*?)\s*\+\s*)?(\d+)\s*\^\s*(-?\d+)\s*\*\s*Zp\s*$")


def parse_ball(text: str, p: int) -> "Ball":
    m = _BALL.match(text)
    if not m:
        raise ParseError("expected '[center +] p^m*Zp'", 0)
    base = int(m.group(2))
    if base != p:
        raise ParseError("base %d does not match p=%d" % (base, p), 0)
    level = int(m.group(3))
    _check_exponent(level, m.start(3))
    center = parse_padic(m.group(1), p) if m.group(1) else 0
    return Ball.make(p, level, center)


def format_ball(b: "Ball") -> str:
    zp = "%d^%d*Zp" % (b.p, b.level)
    if not b.center:
        return zp
    return "%s + %s" % (format_padic(b.center, b.p), zp)


# ---------------------------------------------------------------------------
# balls and Schwartz functions


@dataclass(frozen=True)
class Ball:
    """The coset center + p^level Zp, center reduced modulo p^level."""

    p: int
    level: int
    center: Fraction

    @classmethod
    def make(cls, p: int, level: int, center=0) -> "Ball":
        return cls(p, level, _mod_power(Fraction(center), p, level))

    @classmethod
    def zp(cls, p: int, scale: int = 0) -> "Ball":
        """The compact open subgroup p^scale Zp."""
        return cls.make(p, scale)

    def contains(self, x) -> bool:
        return _mod_power(Fraction(x) - self.center, self.p, self.level) == 0


class SchwartzFunction:
    """Locally constant, compactly supported: cells at one level with values."""

    __slots__ = ("p", "level", "cells", "backend")

    def __init__(self, p: int, level: int, cells: dict, backend: Backend = EXACT):
        self.p = p
        self.level = level
        self.backend = backend
        norm = {}
        for c, v in cells.items():
            v = backend.normalize(v)
            if not backend.is_zero(v):
                norm[_mod_power(Fraction(c), p, level)] = v
        self.cells = norm

    @classmethod
    def zero(cls, p: int, backend: Backend = EXACT) -> "SchwartzFunction":
        return cls(p, 0, {}, backend)

    def _chk(self, other):
        if other.p != self.p:
            raise PAdicError("mismatched primes %d and %d" % (self.p, other.p))

    def is_zero(self) -> bool:
        return not self.cells

    def refined(self, level: int) -> "SchwartzFunction":
        """Re-express on cells at a finer (larger) level; value unchanged."""
        if level < self.level:
            raise PAdicError("refinement level must be >= current level")
        if level == self.level:
            return self
        step = Fraction(self.p) ** self.level
        out = {}
        for c, v in self.cells.items():
            for t in range(self.p ** (level - self.level)):
                out[c + t * step] = v
        return SchwartzFunction(self.p, level, out, self.backend)

    def evaluate(self, x):
        key = _mod_power(Fraction(x), self.p, self.level)
        return self.cells.get(key, self.backend.normalize(0))

    def window(self):
        """(n, m): support inside p^n Zp, constant on p^m Zp cosets."""
        m = self.level
        if not self.cells:
            return (m, m)
        n = min(min((fraction_valuation(c, self.p) for c in self.cells if c), default=m), m)
        return (n, m)

    def conjugate(self) -> "SchwartzFunction":
        be = self.backend
        return SchwartzFunction(self.p, self.level, {c: be.conj(v) for c, v in self.cells.items()}, be)

    def translated(self, shift) -> "SchwartzFunction":
        q = Fraction(shift)
        return SchwartzFunction(
            self.p, self.level, {c + q: v for c, v in self.cells.items()}, self.backend
        )

    def __eq__(self, other):
        if not isinstance(other, SchwartzFunction) or other.p != self.p:
            return NotImplemented
        lvl = max(self.level, other.level)
        a, b = self.refined(lvl), other.refined(lvl)
        be = self.backend
        keys = set(a.cells) | set(b.cells)
        z = be.normalize(0)
        return all(be.is_zero(a.cells.get(k, z) - b.cells.get(k, z)) for k in keys)

    def __repr__(self):
        shown = ", ".join("%s: %s" % cv for cv in sorted(self.cells.items())[:8])
        more = ", ..." if len(self.cells) > 8 else ""
        return "SchwartzFunction(p=%d, level=%d, %d cells: {%s%s})" % (
            self.p, self.level, len(self.cells), shown, more)


def indicator(b: Ball, backend: Backend = EXACT) -> SchwartzFunction:
    return SchwartzFunction(b.p, b.level, {b.center: 1}, backend)


def subgroup_indicator(p: int, n: int, backend: Backend = EXACT) -> SchwartzFunction:
    """h_n, the characteristic function of p^n Zp."""
    return indicator(Ball.zp(p, n), backend)


def schwartz_add(f: SchwartzFunction, g: SchwartzFunction) -> SchwartzFunction:
    f._chk(g)
    # adding zero must not force a refinement to the zero's stored level
    if not f.cells:
        return g
    if not g.cells:
        return f
    lvl = max(f.level, g.level)
    a, b = f.refined(lvl), g.refined(lvl)
    out = dict(a.cells)
    for c, v in b.cells.items():
        out[c] = out.get(c, f.backend.normalize(0)) + v
    return SchwartzFunction(f.p, lvl, out, f.backend)


def schwartz_scale(s, f: SchwartzFunction) -> SchwartzFunction:
    return SchwartzFunction(f.p, f.level, {c: s * v for c, v in f.cells.items()}, f.backend)


def schwartz_mul(f: SchwartzFunction, g: SchwartzFunction) -> SchwartzFunction:
    f._chk(g)
    lvl = max(f.level, g.level)
    a, b = f.refined(lvl), g.refined(lvl)
    out = {c: v * b.cells[c] for c, v in a.cells.items() if c in b.cells}
    return SchwartzFunction(f.p, lvl, out, f.backend)


def haar_integral(f: SchwartzFunction, scale=Fraction(1)):
    """Integral against scale * (Haar with measure(Zp) = 1)."""
    weight = Fraction(scale) * Fraction(f.p) ** (-f.level)
    w = weight if f.backend.exact else complex(weight)
    acc = f.backend.normalize(0)
    for v in f.cells.values():
        acc = acc + v * w
    return acc


def schwartz_convolve(f: SchwartzFunction, g: SchwartzFunction, scale=Fraction(1)) -> SchwartzFunction:
    """(f*g)(t) = integral of f(s) g(t - s); exact on the cell algebra."""
    f._chk(g)
    lvl = max(f.level, g.level)
    a, b = f.refined(lvl), g.refined(lvl)
    weight = Fraction(scale) * Fraction(f.p) ** (-lvl)
    w = weight if f.backend.exact else complex(weight)
    out = {}
    for c1, v1 in a.cells.items():
        for c2, v2 in b.cells.items():
            key = _mod_power(c1 + c2, f.p, lvl)
            term = v1 * v2 * w
            out[key] = out.get(key, f.backend.normalize(0)) + term
    return SchwartzFunction(f.p, lvl, out, f.backend)


# The most cells a transform may produce.  A function with window (n, m)
# transforms to one with window (-m, -n), that is p^(m - n) cells, each
# holding a root of unity of order up to p^(m - n).  Written out, the
# 2^-7 + 2^7 Zp ball's transform is 2^14 cells of 2^13 coefficients each.
MAX_CELLS = 4096


def padic_fourier(f: SchwartzFunction, scale=Fraction(1)) -> SchwartzFunction:
    """F(f)(y) = integral of f(x) conj(chi(x, y)) dx, exact.

    One cell transforms to a conjugated character times the indicator of
    p^-m Zp; the character factor is locally constant at level
    L = max(-v(center), -m), so the result is again a cell decomposition.
    Raises PAdicError when the result would have more than MAX_CELLS cells.
    """
    p = f.p
    n, m = f.window()
    if p ** (m - n) > MAX_CELLS:
        raise PAdicError("the transform of a function on window (%d, %d) has %d^%d cells, more than %d"
                         % (n, m, p, m - n, MAX_CELLS))
    be = f.backend
    pieces = []
    for c, v in f.cells.items():
        vc = fraction_valuation(c, p)
        L = -m if vc is inf else max(-vc, -m)
        measure = Fraction(scale) * Fraction(p) ** (-m)
        cells = {}
        step = Fraction(1, 1) * Fraction(p) ** (-m)
        for t in range(p ** (L + m)):
            y0 = t * step
            chi = character(c * y0, p).conjugate()
            val = chi * measure
            if not be.exact:
                val = val.numeric_value()
            cells[y0] = v * val
        pieces.append(SchwartzFunction(p, L, cells, be))
    out = SchwartzFunction.zero(p, be)
    for piece in pieces:
        out = schwartz_add(out, piece)
    return out


def padic_fourier_oracle_value(f: SchwartzFunction, y, extra_levels: int = 2) -> complex:
    """Brute-force Riemann sum for F(f)(y): one sample per fine cell,
    weighted by cell measure, characters evaluated numerically."""
    yq = Fraction(y)
    vy = fraction_valuation(yq, f.p)
    lvl = f.level if vy is inf else max(f.level, -vy)
    lvl += extra_levels
    fine = f.refined(lvl)
    w = float(Fraction(f.p) ** (-lvl))
    acc = 0j
    for c, v in fine.cells.items():
        phase = cmath.exp(-2j * cmath.pi * float(c * yq - (c * yq).__floor__()))
        acc += f.backend.to_complex(v) * phase * w
    return acc


# ---------------------------------------------------------------------------
# group-like projection suite


def _group_like_failures(f: SchwartzFunction):
    """The group-like identities f breaks, first one first: f = 0, f^2 != f,
    conj(f) != f, or a point (x, y) where coproduct(f)(1 (x) f) = f (x) f
    fails, that is f(x+y) f(y) != f(x) f(y), one sample per cell.

    Both sides are level-m locally constant in each variable and vanish
    unless y lies in the support window, so a grid of coset representatives
    of p^(n-1) Zp mod p^m Zp (one extra margin level) is exhaustive.
    """
    if f.is_zero():
        yield "f = 0"
        return
    if not schwartz_mul(f, f) == f:
        yield "f^2 != f"
    if not f.conjugate() == f:
        yield "conj(f) != f"
    p = f.p
    be = f.backend
    n, m = f.window()
    lo = n - 1
    step = Fraction(p) ** lo
    points = [t * step for t in range(p ** (m - lo))]
    for x in points:
        fx = f.evaluate(x)
        for y in points:
            fy = f.evaluate(y)
            if not be.is_zero(f.evaluate(x + y) * fy - fx * fy):
                yield "(x, y) = (%s, %s)" % (x, y)


def is_group_like_schwartz(f: SchwartzFunction) -> bool:
    """Nonzero, idempotent, self-conjugate, and the coproduct slice condition."""
    return next(_group_like_failures(f), None) is None


def _normalized_failures(hn: SchwartzFunction, scale, h_hat, target):
    be = hn.backend
    integral = haar_integral(hn, scale)
    if not be.is_zero(integral - be.normalize(1)):
        yield "integral %r after rescaling Haar by %s" % (integral, scale)
    if not h_hat == target:
        yield "got %r" % (h_hat,)


def padic_group_like_suite(p: int, n_range, backend: Backend = EXACT) -> list:
    """For each n: h_n passes the group-like checks, and after rescaling Haar
    so that integral(h_n) = 1 its Fourier transform is exactly h_{-n} (and is
    itself group-like)."""
    suite = "padic-grouplike:p=%d" % p
    reports = []
    for n in n_range:
        hn = subgroup_indicator(p, n, backend)
        # integral(h_n) = p^-n, so the normalizing factor is p^n
        scale = Fraction(p) ** n
        h_hat = padic_fourier(hn, scale)
        target = subgroup_indicator(p, -n, backend)
        reports += [
            check(suite, "h_%d is a group-like projection" % n, _group_like_failures(hn)),
            check(suite, "normalized F(h_%d) = h_%d" % (n, -n), _normalized_failures(hn, scale, h_hat, target)),
            check(suite, "F(h_%d) is group-like in the dual" % n, _group_like_failures(h_hat)),
        ]
    # a coset that is not a subgroup must fail the coproduct condition
    coset = indicator(Ball.make(p, 1, Fraction(1)), backend)
    failures = ["1 + pZp is group-like"] if is_group_like_schwartz(coset) else []
    reports.append(check(suite, "coset indicator 1 + pZp fails the group-like check", failures))
    return reports


def random_schwartz(p: int, rng, backend: Backend = EXACT, level_range=(-2, 2), max_cells=4) -> SchwartzFunction:
    """Seeded random function with window levels inside level_range."""
    lo, hi = level_range
    level = rng.randint(lo, hi)
    support_scale = rng.randint(lo, level)
    cells = {}
    for _ in range(rng.randint(1, max_cells)):
        t = rng.randint(0, p ** (level - support_scale) - 1)
        center = t * Fraction(p) ** support_scale
        cells[_mod_power(center, p, level)] = backend.random_scalar(rng)
    return SchwartzFunction(p, level, cells, backend)
