"""Exact harmonic analysis on the p-adic line.

Numbers are finite base-p expansions (nonnegative elements of Z[1/p] with
canonical digits), which is all the ball/character/transform computations
ever need: every ball has such a center and every character value depends on
finitely many digits.  Negation is only defined modulo a truncation level,
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

from .report import make_report
from .scalars import EXACT, Backend, Cyclotomic, zeta


class PAdicError(ValueError):
    pass


class ParseError(PAdicError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


# ---------------------------------------------------------------------------
# numbers


@dataclass(frozen=True)
class PAdic:
    """A finite base-p expansion: value sum_j digits[j] p^j."""

    p: int
    digits: tuple  # sorted tuple of (exponent, digit), zeros dropped

    @classmethod
    def make(cls, p: int, digit_map) -> "PAdic":
        for j, d in dict(digit_map).items():
            if not 0 <= d < p:
                raise PAdicError("digit %d out of range for p=%d" % (d, p))
        return cls(p, tuple(sorted((j, d) for j, d in dict(digit_map).items() if d)))

    @classmethod
    def zero(cls, p: int) -> "PAdic":
        return cls(p, ())

    @classmethod
    def from_fraction(cls, p: int, q) -> "PAdic":
        """Expand a nonnegative rational with p-power denominator."""
        q = Fraction(q)
        if q < 0:
            raise PAdicError("finite expansions are nonnegative; negate modulo p^M instead")
        k = 0
        while q.denominator % p == 0:
            q *= p
            k += 1
        if q.denominator != 1:
            raise PAdicError("denominator is not a power of %d" % p)
        n = q.numerator
        digits = {}
        j = -k
        while n:
            n, d = divmod(n, p)
            if d:
                digits[j] = d
            j += 1
        return cls.make(p, digits)

    def to_fraction(self) -> Fraction:
        return sum((Fraction(d) * Fraction(self.p) ** j for j, d in self.digits), Fraction(0))

    def digit_map(self) -> dict:
        return dict(self.digits)

    def is_zero(self) -> bool:
        return not self.digits


def padic_add(x: PAdic, y: PAdic) -> PAdic:
    if x.p != y.p:
        raise PAdicError("mismatched primes %d and %d" % (x.p, y.p))
    return PAdic.from_fraction(x.p, x.to_fraction() + y.to_fraction())


def padic_mul(x: PAdic, y: PAdic) -> PAdic:
    if x.p != y.p:
        raise PAdicError("mismatched primes %d and %d" % (x.p, y.p))
    return PAdic.from_fraction(x.p, x.to_fraction() * y.to_fraction())


def padic_negate(x: PAdic, truncation: int) -> PAdic:
    """The canonical representative of -x modulo p^truncation."""
    return PAdic.from_fraction(x.p, _mod_power(-x.to_fraction(), x.p, truncation))


def _mod_power(q: Fraction, p: int, m: int) -> Fraction:
    """Representative of q mod p^m in [0, p^m) within Z[1/p]."""
    step = Fraction(p) ** m
    return q - step * (q / step).__floor__()


def valuation_norm(x: PAdic):
    """(least exponent with a nonzero digit, p^-v); (inf, 0) for zero."""
    if not x.digits:
        return inf, Fraction(0)
    v = x.digits[0][0]
    return v, Fraction(x.p) ** (-v)


def fraction_valuation(q: Fraction, p: int):
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


def fractional_part(x: PAdic) -> Fraction:
    """sum of the negative-exponent digits, an exact rational in [0, 1)."""
    return sum((Fraction(d) * Fraction(x.p) ** j for j, d in x.digits if j < 0), Fraction(0))


def character(x: PAdic, y: PAdic) -> Cyclotomic:
    """chi(x, y) = exp(2 pi i {x y}) as an exact root of unity."""
    if x.p != y.p:
        raise PAdicError("mismatched primes %d and %d" % (x.p, y.p))
    return _character_fraction(x.to_fraction() * y.to_fraction(), x.p)


def _character_fraction(q: Fraction, p: int) -> Cyclotomic:
    frac = q - q.__floor__()
    if frac == 0:
        return Cyclotomic.one()
    if fraction_valuation(frac, p) >= 0 or frac.denominator == 1:
        raise PAdicError("internal: fractional part should have p-power denominator")
    return zeta(frac.denominator, frac.numerator)


# ---------------------------------------------------------------------------
# literal syntax: sums of d*p^j terms, or a base-p digit string with a
# radix point (most significant digit first)

_TERM = re.compile(r"\s*(\d+)(?:\s*\*\s*(\d+)\s*\^\s*(-?\d+))?\s*$")


def parse_padic(text: str, p: int) -> PAdic:
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
        if d:
            if j in digits:
                raise ParseError("duplicate exponent %d" % j, pos)
            digits[j] = d
        pos += len(chunk) + 1
    return PAdic.make(p, digits)


def _parse_digit_string(s: str, p: int) -> PAdic:
    if "." in s:
        whole, frac = s.split(".", 1)
    else:
        whole, frac = s, ""
    digits = {}
    for i, ch in enumerate(reversed(whole)):
        d = int(ch)
        if d >= p:
            raise ParseError("digit %d out of range for p=%d" % (d, p), len(whole) - 1 - i)
        if d:
            digits[i] = d
    for i, ch in enumerate(frac):
        d = int(ch)
        if d >= p:
            raise ParseError("digit %d out of range for p=%d" % (d, p), len(whole) + 1 + i)
        if d:
            digits[-(i + 1)] = d
    return PAdic.make(p, digits)


def format_padic(x: PAdic) -> str:
    if not x.digits:
        return "0"
    terms = []
    for j, d in x.digits:
        terms.append(str(d) if j == 0 else "%d*%d^%d" % (d, x.p, j))
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
    center = parse_padic(m.group(1), p) if m.group(1) else PAdic.zero(p)
    return Ball.make(p, level, center)


def format_ball(b: "Ball") -> str:
    zp = "%d^%d*Zp" % (b.p, b.level)
    if b.center.is_zero():
        return zp
    return "%s + %s" % (format_padic(b.center), zp)


# ---------------------------------------------------------------------------
# balls and Schwartz functions


@dataclass(frozen=True)
class Ball:
    """The coset center + p^level Zp, center reduced modulo p^level."""

    p: int
    level: int
    center: PAdic

    @classmethod
    def make(cls, p: int, level: int, center=None) -> "Ball":
        if center is None:
            c = Fraction(0)
        elif isinstance(center, PAdic):
            c = center.to_fraction()
        else:
            c = Fraction(center)
        c = _mod_power(c, p, level)
        return cls(p, level, PAdic.from_fraction(p, c))

    @classmethod
    def zp(cls, p: int, scale: int = 0) -> "Ball":
        """The compact open subgroup p^scale Zp."""
        return cls.make(p, scale)

    def contains(self, x) -> bool:
        q = x.to_fraction() if isinstance(x, PAdic) else Fraction(x)
        return _mod_power(q - self.center.to_fraction(), self.p, self.level) == 0


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
        q = x.to_fraction() if isinstance(x, PAdic) else Fraction(x)
        key = _mod_power(q, self.p, self.level)
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
        q = shift.to_fraction() if isinstance(shift, PAdic) else Fraction(shift)
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
        return "SchwartzFunction(p=%d, level=%d, %d cells)" % (self.p, self.level, len(self.cells))


def indicator(b: Ball, backend: Backend = EXACT) -> SchwartzFunction:
    return SchwartzFunction(b.p, b.level, {b.center.to_fraction(): 1}, backend)


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


def padic_fourier(f: SchwartzFunction, scale=Fraction(1)) -> SchwartzFunction:
    """F(f)(y) = integral of f(x) conj(chi(x, y)) dx, exact.

    One cell transforms to a conjugated character times the indicator of
    p^-m Zp; the character factor is locally constant at level
    L = max(-v(center), -m), so the result is again a cell decomposition.
    """
    p = f.p
    be = f.backend
    m = f.level
    pieces = []
    for c, v in f.cells.items():
        vc = fraction_valuation(c, p)
        L = -m if vc is inf else max(-vc, -m)
        measure = Fraction(scale) * Fraction(p) ** (-m)
        cells = {}
        step = Fraction(1, 1) * Fraction(p) ** (-m)
        for t in range(p ** (L + m)):
            y0 = t * step
            chi = _character_fraction(c * y0, p).conjugate()
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
    yq = y.to_fraction() if isinstance(y, PAdic) else Fraction(y)
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


def _grouplike_coproduct_holds(f: SchwartzFunction) -> bool:
    """Check coproduct(f)(1 (x) f) = f (x) f pointwise on a cell grid:
    f(x+y) f(y) = f(x) f(y) for one sample per cell.

    Both sides are level-m locally constant in each variable and vanish
    unless y lies in the support window, so a grid of coset representatives
    of p^(n-1) Zp mod p^m Zp (one extra margin level) is exhaustive.
    """
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
                return False
    return True


def is_group_like_schwartz(f: SchwartzFunction) -> bool:
    """Nonzero, idempotent, self-conjugate, and the coproduct slice condition."""
    if f.is_zero():
        return False
    if not (schwartz_mul(f, f) == f and f.conjugate() == f):
        return False
    return _grouplike_coproduct_holds(f)


def padic_group_like_suite(p: int, n_range, backend: Backend = EXACT) -> list:
    """For each n: h_n passes the group-like checks, and after rescaling Haar
    so that integral(h_n) = 1 its Fourier transform is exactly h_{-n} (and is
    itself group-like)."""
    suite = "padic-grouplike:p=%d" % p
    reports = []
    for n in n_range:
        hn = subgroup_indicator(p, n, backend)
        ok = is_group_like_schwartz(hn)
        reports.append(make_report(suite, "h_%d is a group-like projection" % n, ok))

        # integral(h_n) = p^-n, so the normalizing factor is p^n
        scale = Fraction(p) ** n
        assert backend.is_zero(haar_integral(hn, scale) - backend.normalize(1))
        h_hat = padic_fourier(hn, scale)
        target = subgroup_indicator(p, -n, backend)
        reports.append(
            make_report(
                suite,
                "normalized F(h_%d) = h_%d" % (n, -n),
                h_hat == target,
                "got %r" % (h_hat,),
            )
        )
        reports.append(
            make_report(
                suite,
                "F(h_%d) is group-like in the dual" % n,
                is_group_like_schwartz(h_hat),
            )
        )
    # a coset that is not a subgroup must fail the coproduct condition
    coset = indicator(Ball.make(p, 1, Fraction(1)), backend)
    reports.append(
        make_report(
            suite,
            "coset indicator 1 + pZp fails the group-like check",
            not is_group_like_schwartz(coset),
        )
    )
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
