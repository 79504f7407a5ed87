"""Exact harmonic analysis on the p-adic line.

A p-adic number is a Fraction in Z[1/p]: every ball center, cell key and
character argument the transform touches is one, because
Q_p/Z_p = Z[1/p]/Z.  Base-p digits appear only in text: ``parse_padic``
reads sums of d*p^j terms or digit strings, and ``format_padic`` writes the
canonical sum back.  Negation is only defined modulo a truncation level,
because -1 has an infinite expansion.

Locally constant compactly supported functions are stored as a finite set of
disjoint balls at one uniform level with scalar values; equality is decided
on a common refinement.  A function with window (n, m) is a function on the
finite group p^n Zp / p^m Zp, and its Fourier transform is that group's DFT,
one sum per cell of the window (-m, -n).  The group and its dual are both
indexed by integers mod N = p^(m - n): input key j p^n and output key k p^-m
pair to the character exp(-2 pi i jk/N), so the transform needs only the
phase jk mod N.  On the exact backend the transform, convolution and the
Haar integral are exact: character values are roots of unity of p-power
order, so everything lives in cyclotomic fields.  The float backend computes
the characters with cmath, once per phase and call, and never builds a
Cyclotomic.  The exact backend computes them per term: a table of N
Cyclotomics alive for the whole call costs more in garbage collection.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm, log

from .report import check
from .scalars import EXACT, Backend, zeta


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


def _z1p(x, p: int, what: str = "") -> Fraction:
    """x as a Fraction; PAdicError unless its denominator is a power of p."""
    q = Fraction(x)
    d = q.denominator
    while p > 1 and d % p == 0:
        d //= p
    if d != 1:
        raise PAdicError("%s%s is not in Z[1/%d]" % (what, q, p))
    return q


def _root(r: int, N: int, backend: Backend):
    """exp(2 pi i r/N), 0 <= r < N: zeta_N^r in lowest terms, or from cmath
    (r / N is correctly rounded, as float(Fraction(r, N)) is)."""
    if backend.exact:
        g = gcd(r, N)
        return zeta(N // g, r // g)
    return cmath.exp(2j * cmath.pi * (r / N))


def character(q: Fraction, p: int, backend: Backend = EXACT):
    """exp(2 pi i {q}_p) for q in Z[1/p]: on the exact backend a root of unity
    of p-power order, on the float backend a complex number from cmath."""
    q = _z1p(q, p)
    frac = q - q.__floor__()
    return _root(frac.numerator, frac.denominator, backend)


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
    if p < 2:
        raise PAdicError("p = %d is not a prime" % p)
    k = round(log(q.denominator, p))
    if p ** k != q.denominator:
        raise PAdicError("denominator is not a power of %d" % p)
    # base-p digits of the numerator by splitting at p^(2^i), largest first:
    # near-linear where one divmod by p per digit is quadratic in the digits
    powers = [p]
    while powers[-1] ** 2 <= q.numerator:
        powers.append(powers[-1] ** 2)
    digits = [q.numerator]
    for step in reversed(powers):
        digits = [d for x in digits for d in reversed(divmod(x, step))]
    return " + ".join(str(d) if i == k else "%d*%d^%d" % (d, p, i - k) for i, d in enumerate(digits) if d)


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
        return cls(p, level, _mod_power(_z1p(center, p, "center "), p, level))


def _make(p: int, level: int, cells: dict, backend: Backend) -> "SchwartzFunction":
    """A SchwartzFunction from keys already reduced mod p^level and normalized
    values, zeros dropped; ``SchwartzFunction(...)`` reduces any other cells."""
    f = object.__new__(SchwartzFunction)
    f.p, f.level, f.backend = p, level, backend
    f.cells = {c: v for c, v in cells.items() if not backend.is_zero(v)}
    return f


class SchwartzFunction:
    """Locally constant, compactly supported: cells at one level with values,
    each key reduced mod p^level and each value normalized and nonzero."""

    __slots__ = ("p", "level", "cells", "backend")

    def __init__(self, p: int, level: int, cells: dict, backend: Backend = EXACT):
        self.p = p
        self.level = level
        self.backend = backend
        norm = {}
        for c, v in cells.items():
            c = _z1p(c, p, "cell key ")
            v = backend.normalize(v)
            if not backend.is_zero(v):
                norm[_mod_power(c, p, level)] = v
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
        return _make(self.p, level, out, self.backend)

    def evaluate(self, x):
        key = _mod_power(_z1p(x, self.p, "point "), self.p, self.level)
        return self.cells.get(key, self.backend.normalize(0))

    def window(self):
        """(n, m): support inside p^n Zp, constant on p^m Zp cosets."""
        m = self.level
        n = min(min((fraction_valuation(c, self.p) for c in self.cells if c), default=m), m)
        return (n, m)

    def conjugate(self) -> "SchwartzFunction":
        be = self.backend
        return _make(self.p, self.level, {c: be.conj(v) for c, v in self.cells.items()}, be)

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
    return indicator(Ball.make(p, n), backend)


def schwartz_scale(s, f: SchwartzFunction) -> SchwartzFunction:
    return SchwartzFunction(f.p, f.level, {c: s * v for c, v in f.cells.items()}, f.backend)


def schwartz_mul(f: SchwartzFunction, g: SchwartzFunction) -> SchwartzFunction:
    f._chk(g)
    lvl = max(f.level, g.level)
    a, b = f.refined(lvl), g.refined(lvl)
    out = {c: v * b.cells[c] for c, v in a.cells.items() if c in b.cells}
    return _make(f.p, lvl, out, f.backend)


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
    return _make(f.p, lvl, out, f.backend)


# The most cells a transform may produce.  A function with window (n, m)
# transforms to one with window (-m, -n), that is p^(m - n) cells, each
# holding a root of unity of order up to p^(m - n).  Written out, the
# 2^-7 + 2^7 Zp ball's transform is 2^14 cells of 2^13 coefficients each.
MAX_CELLS = 4096


def padic_fourier(f: SchwartzFunction, scale=Fraction(1)) -> SchwartzFunction:
    """F(f)(y) = integral of f(x) conj(chi(x, y)) dx, exact on the exact
    backend; the float backend computes the characters with cmath.

    On window (n, m), f is a function on the finite group p^n Zp / p^m Zp,
    and F(f) is that group's DFT on the canonical window (-m, -n): one sum
    over the input cells, in ``f.cells`` order, per output cell k p^-m.
    Input key c = j p^n (n is the least valuation, so j is an integer) meets
    output cell k p^-m at phase jk mod N, N = p^(m - n).  The float backend
    takes conj(exp(2 pi i r/N)) * measure from a table of its N values; the
    exact backend computes it per term, so that the Cyclotomics die at once.
    Raises PAdicError when the result would have more than MAX_CELLS cells.
    """
    p = f.p
    n, m = f.window()
    N = p ** (m - n)
    if N > MAX_CELLS:
        raise PAdicError("the transform of a function on window (%d, %d) has %d^%d cells, more than %d"
                         % (n, m, p, m - n, MAX_CELLS))
    be = f.backend
    if not f.cells:
        return SchwartzFunction.zero(p, be)
    step = Fraction(p) ** (-m)
    measure = be.normalize(Fraction(scale) * step)
    unit = Fraction(p) ** n
    cells = [(int(c / unit), v) for c, v in f.cells.items()]

    def twiddle(r):
        return be.conj(_root(r, N, be)) * measure

    if not be.exact:
        twiddle = list(map(twiddle, range(N))).__getitem__
    out = {}
    for k in range(N):
        acc = None
        for j, v in cells:
            term = v * twiddle(j * k % N)
            # a partial sum that vanished restarts from 0: the order is that of the later terms
            acc = term if acc is None else (be.normalize(0) + term if be.is_zero(acc) else acc + term)
        out[k * step] = acc
    return _make(p, -n, out, be)


def padic_fourier_oracle_value(f: SchwartzFunction, y, extra_levels: int = 2) -> complex:
    """Brute-force Riemann sum for F(f)(y): one sample per fine cell,
    weighted by cell measure, characters evaluated numerically.  Over one
    common denominator d, key c has c y = b/d and the fine cell c + t p^level
    the phase ((b + t s) mod d) / d with s/d = p^level y: integers only."""
    p = f.p
    yq = Fraction(y)
    vy = fraction_valuation(yq, p)
    lvl = (f.level if vy is inf else max(f.level, -vy)) + extra_levels
    w = float(Fraction(p) ** (-lvl))
    step = Fraction(p) ** f.level
    D = lcm(step.denominator, *(c.denominator for c in f.cells))
    d, s = D * yq.denominator, step.numerator * (D // step.denominator) * yq.numerator
    acc = 0j
    for c, v in f.cells.items():
        b, value = c.numerator * (D // c.denominator) * yq.numerator, f.backend.to_complex(v)
        for t in range(p ** (lvl - f.level)):
            phase = cmath.exp(-2j * cmath.pi * (((b + t * s) % d) / d))
            acc += value * phase * w
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
    N = p ** (m - lo)
    step = Fraction(p) ** lo
    points = [t * step for t in range(N)]
    # x + y = (s + t) p^lo, which is ((s + t) mod N) p^lo modulo p^m
    vals = [f.evaluate(x) for x in points]
    for s, fx in enumerate(vals):
        for t, fy in enumerate(vals):
            if not be.is_zero(vals[(s + t) % N] * fy - fx * fy):
                yield "(x, y) = (%s, %s)" % (points[s], points[t])


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
