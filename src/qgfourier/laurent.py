"""The non-unital dual pair: the group algebra of Z (Laurent side, basis
e_n) against the finitely supported functions on Z (basis delta_n).

The function side has no unit and no full coproduct inside B (x) B, so the
coproduct is exposed only through its multiplier slices
coproduct(a)(1 (x) b) and (a (x) 1)coproduct(b).  Elements of both sides are
finitely supported integer-indexed coefficient maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

from . import linalg
from .report import check
from .scalars import EXACT, Backend

CZ = "CZ"  # Laurent polynomials: basis e_n, e_m e_n = e_{m+n}
KZ = "KZ"  # finite-support functions on Z: basis delta_n, pointwise product


@dataclass
class SparseElement:
    side: str
    support: dict  # n -> scalar, zeros dropped
    backend: Backend = field(default=EXACT)

    def __post_init__(self):
        be = self.backend
        self.support = {
            n: be.normalize(c) for n, c in self.support.items() if not be.is_zero(be.normalize(c))
        }

    def _chk(self, other):
        if other.side != self.side:
            raise ValueError("mixed sides %s / %s" % (self.side, other.side))

    def __add__(self, other):
        self._chk(other)
        out = dict(self.support)
        for n, c in other.support.items():
            out[n] = out.get(n, 0) + c
        return SparseElement(self.side, out, self.backend)

    def __sub__(self, other):
        self._chk(other)
        out = dict(self.support)
        for n, c in other.support.items():
            out[n] = out.get(n, 0) - c
        return SparseElement(self.side, out, self.backend)

    def __rmul__(self, scal):
        return SparseElement(self.side, {n: scal * c for n, c in self.support.items()}, self.backend)

    def __eq__(self, other):
        if not isinstance(other, SparseElement) or other.side != self.side:
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self):
        return not self.support

    def __call__(self, n: int):
        if self.side != KZ:
            raise ValueError("only the function side evaluates at points")
        return self.support.get(n, self.backend.normalize(0))


def basis(side: str, n: int, backend: Backend = EXACT) -> SparseElement:
    return SparseElement(side, {n: 1}, backend)


def pair_mult(a: SparseElement, b: SparseElement) -> SparseElement:
    a._chk(b)
    be = a.backend
    out = {}
    if a.side == CZ:
        for m, cm in a.support.items():
            for n, cn in b.support.items():
                out[m + n] = out.get(m + n, 0) + cm * cn
    else:
        for n, cn in a.support.items():
            if n in b.support:
                out[n] = cn * b.support[n]
    return SparseElement(a.side, out, be)


def pair_counit(a: SparseElement):
    if a.side == CZ:
        return sum(a.support.values()) if a.support else a.backend.normalize(0)
    return a.support.get(0, a.backend.normalize(0))


def pair_antipode(a: SparseElement) -> SparseElement:
    return SparseElement(a.side, {-n: c for n, c in a.support.items()}, a.backend)


def pair_integral(a: SparseElement):
    """phi on either side: [n = 0]-weight on CZ, summation over Z on KZ."""
    if a.side == CZ:
        return a.support.get(0, a.backend.normalize(0))
    return sum(a.support.values()) if a.support else a.backend.normalize(0)


def pair_delta_slice(a: SparseElement, b: SparseElement, left: bool = False) -> dict:
    """Multiplier slice of the coproduct, as a map (n, m) -> scalar.

    With left=False: coproduct(a)(1 (x) b); with left=True: (a (x) 1)coproduct(b).
    Both land in the algebraic tensor square on either side.
    """
    a._chk(b)
    out = {}
    if a.side == CZ:
        # coproduct(e_n) = e_n (x) e_n
        if not left:
            for n, cn in a.support.items():
                for m, cm in b.support.items():
                    key = (n, n + m)
                    out[key] = out.get(key, 0) + cn * cm
        else:
            for m, cm in b.support.items():
                for n, cn in a.support.items():
                    key = (n + m, m)
                    out[key] = out.get(key, 0) + cn * cm
    else:
        # coproduct(f)(n, m) = f(n + m)
        if not left:
            for m, cm in b.support.items():
                for s, cs in a.support.items():
                    key = (s - m, m)
                    out[key] = out.get(key, 0) + cs * cm
        else:
            for n, cn in a.support.items():
                for s, cs in b.support.items():
                    key = (n, s - n)
                    out[key] = out.get(key, 0) + cn * cs
    be = a.backend
    return {k: v for k, v in out.items() if not be.is_zero(be.normalize(v))}


def pair_pairing(a: SparseElement, f: SparseElement):
    """<e_n, f> = f(-n), extended bilinearly."""
    if a.side != CZ or f.side != KZ:
        raise ValueError("pairing takes (CZ element, KZ element)")
    be = a.backend
    acc = be.normalize(0)
    for n, c in a.support.items():
        acc = acc + c * f.support.get(-n, be.normalize(0))
    return acc


def pair_fourier(a: SparseElement) -> SparseElement:
    """Fourier transform across the pairing.

    CZ side: F(e_n) = delta_n.  KZ side: F(f) = sum_n f(-n) e_n, the unique
    CZ element matching the functional phi(. f) under the pairing.
    """
    if a.side == CZ:
        return SparseElement(KZ, dict(a.support), a.backend)
    return SparseElement(CZ, {-n: c for n, c in a.support.items()}, a.backend)


def _cointegrals(side: str, backend: Backend) -> list:
    """Basis of the h supported on [-5, 5] with f h = eps(f) h for every basis
    element f indexed in [-5, 5], by exact nullspace of those equations."""
    window = range(-5, 6)
    bases = [basis(side, n, backend) for n in window]
    rows = []
    for f in bases:
        # column n holds f b_n - eps(f) b_n; one equation per index it reaches
        cols = [pair_mult(f, b) - pair_counit(f) * b for b in bases]
        for k in sorted(set().union(*(c.support for c in cols))):
            rows.append([c.support.get(k, 0) for c in cols])
    return [SparseElement(side, dict(zip(window, v)), backend) for v in linalg.nullspace(rows, backend)]


def _unit(side: str, backend: Backend):
    """The u supported on [-5, 5] with u b = b for every basis element b
    indexed in [-6, 6], by exact solve; None when the system is inconsistent."""
    window = range(-5, 6)
    bases = [basis(side, n, backend) for n in window]
    rows, rhs = [], []
    for m in range(-6, 7):
        b = basis(side, m, backend)
        cols = [pair_mult(u, b) for u in bases]
        for k in sorted(set().union(*(c.support for c in cols)) | {m}):
            rows.append([c.support.get(k, 0) for c in cols])
            rhs.append(1 if k == m else 0)
    try:
        return SparseElement(side, dict(zip(window, linalg.solve(rows, rhs, backend))), backend)
    except linalg.InconsistentSystemError:
        return None


def laurent_type_certificates(backend: Backend = EXACT) -> list:
    """Certify: CZ is compact-type but not discrete-type, KZ the reverse.

    Each side is decided on a finite support window: e_1 h = h shifts a
    finite support onto itself, so CZ has no cointegral there, and
    u delta_6 = delta_6 needs u(6) = 1, outside the window of u, so KZ has
    no unit."""
    suite = "laurent-types"
    # each system is solved once, by the first case that needs it
    unit, cointegrals = cache(partial(_unit, backend=backend)), cache(partial(_cointegrals, backend=backend))
    return [
        check(suite, "CZ has unit e_0", _solution_failures("unit", unit, CZ, basis(CZ, 0, backend))),
        check(
            suite,
            "CZ has no nonzero cointegral (support shift argument: supp(e_1 h) = supp(h) + 1 forces supp(h) empty)",
            _solution_failures("cointegrals", cointegrals, CZ, []),
        ),
        check(
            suite,
            "KZ has cointegral delta_0",
            _solution_failures("cointegrals", cointegrals, KZ, [basis(KZ, 0, backend)]),
        ),
        check(
            suite,
            "KZ has no unit (constant function 1 is not finitely supported)",
            _solution_failures("unit", unit, KZ, None),
        ),
        check(suite, "types are dual to each other", _type_duality_failures(unit, cointegrals)),
    ]


def _solution_failures(name, solve, side, want):
    """The witness "<name> <found>" unless solve(side) finds want."""
    found = solve(side)
    if not found == want:
        yield "%s %r" % (name, found)


def _type_duality_failures(unit, cointegrals):
    cz, kz = ((unit(side) is not None, bool(cointegrals(side))) for side in (CZ, KZ))
    if not cz == kz[::-1]:
        yield "(compact, discrete) is %r on CZ, %r on KZ" % (cz, kz)
