"""Finite-dimensional algebraic quantum groups as structure tensors.

A ``FiniteQuantumGroup`` is a finite-dimensional Hopf (*-)algebra with
faithful left and right invariant functionals, described by explicit
structure constants over an exact (or float) scalar backend.  This module
implements the axiom checker, the dual construction, the Fourier transform
and its inverse, convolution, the Plancherel identity, cointegrals, the
compact/discrete type classification, group-like projections and the
modular element.

The dual is the transposed structure (product and coproduct exchanged,
unit and counit exchanged, on the basis dual to a_i) re-expressed by
``transport`` on the basis w_i = phi(. a_i).

Conventions (basis a_0 .. a_{d-1}):
  mult[i][j][k]            a_i a_j = sum_k mult[i][j][k] a_k
  comult[i] = [(j,k,c)..]  coproduct(a_i) = sum c a_j (x) a_k
  antipode[i][k]           S(a_i) = sum_k antipode[i][k] a_k
  star[i][k]               (a_i)* = sum_k star[i][k] a_k  (antilinear overall)
  unit, phi, psi           coordinate / value vectors
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Optional

from . import linalg
from .report import check
from .scalars import EXACT, Backend


class StructureError(ValueError):
    """The given tensors do not describe the required structure."""


class FaithfulnessError(StructureError):
    """An integral's Gram matrix is singular."""


class OwnerMismatchError(ValueError):
    """Elements/functionals from different quantum groups were mixed."""


@lru_cache(maxsize=None)
def _basis(d: int, i: int) -> tuple:
    """Coordinates of the i-th basis vector a_i of a d-dimensional algebra."""
    return tuple(1 if t == i else 0 for t in range(d))


@dataclass
class FiniteQuantumGroup:
    """A finite quantum group given by its structure tensors (see above).

    The group builds four caches on first use and keeps them: ``gram_phi``,
    ``gram_psi``, ``Sinv`` (the inverse antipode) and ``mult_index`` (the
    nonzero structure constants of ``mult`` by row).  The structure tensors
    are therefore read-only once the group has been used.
    """

    dim: int
    basis_labels: list
    mult: list  # d x d x d
    comult: list  # d lists of (j, k, scalar)
    counit: list
    antipode: list  # d x d
    star: Optional[list]  # d x d, None if no *-structure
    unit: Optional[list]
    left_integral: list
    right_integral: list
    backend: Backend = field(default=EXACT)
    name: str = "A"

    def __post_init__(self):
        nz = self.backend.normalize
        self.mult = [[[nz(x) for x in row] for row in plane] for plane in self.mult]
        self.comult = [[(j, k, nz(c)) for j, k, c in terms] for terms in self.comult]
        self.counit = [nz(x) for x in self.counit]
        self.antipode = [[nz(x) for x in row] for row in self.antipode]
        if self.star is not None:
            self.star = [[nz(x) for x in row] for row in self.star]
        if self.unit is not None:
            self.unit = [nz(x) for x in self.unit]
        self.left_integral = [nz(x) for x in self.left_integral]
        self.right_integral = [nz(x) for x in self.right_integral]
        self._cache = {}

    # -- basics ------------------------------------------------------------

    @property
    def is_star(self) -> bool:
        return self.star is not None

    def zero_scalar(self):
        return self.backend.normalize(0)

    def element(self, coords) -> "Element":
        return Element(self, [self.backend.normalize(c) for c in coords])

    def basis_element(self, i: int) -> "Element":
        return self.element(_basis(self.dim, i))

    def functional(self, values) -> "Functional":
        return Functional(self, [self.backend.normalize(v) for v in values])

    def zero_element(self) -> "Element":
        return self.element([0] * self.dim)

    def one(self) -> "Element":
        if self.unit is None:
            raise StructureError("no unit")
        return Element(self, list(self.unit))

    # -- tensor contractions -----------------------------------------------

    def mult_index(self):
        """nz[i][j] = [(k, mult[i][j][k]), ...] over the nonzero constants, k rising."""
        if "mult_index" not in self._cache:
            be = self.backend
            self._cache["mult_index"] = [
                [[(k, c) for k, c in enumerate(row) if not be.is_zero(c)] for row in plane] for plane in self.mult
            ]
        return self._cache["mult_index"]

    def mul_coords(self, x, y):
        be = self.backend
        nz = self.mult_index()
        ys = [(j, yj) for j, yj in enumerate(y) if not be.is_zero(yj)]
        out = [self.zero_scalar()] * self.dim
        for i, xi in enumerate(x):
            if be.is_zero(xi):
                continue
            for j, yj in ys:
                f = xi * yj
                for k, c in nz[i][j]:
                    out[k] = out[k] + f * c
        return out

    def comult_dense(self, coords):
        d = self.dim
        out = [[self.zero_scalar()] * d for _ in range(d)]
        for i, ci in enumerate(coords):
            if self.backend.is_zero(ci):
                continue
            for j, k, c in self.comult[i]:
                out[j][k] = out[j][k] + ci * c
        return out

    def antipode_coords(self, coords):
        return linalg.vec_mat(coords, self.antipode)

    def antipode_inv_matrix(self):
        if "Sinv" not in self._cache:
            self._cache["Sinv"] = linalg.inverse(self.antipode, self.backend)
        return self._cache["Sinv"]

    def antipode_inv_coords(self, coords):
        return linalg.vec_mat(coords, self.antipode_inv_matrix())

    def star_coords(self, coords):
        if not self.is_star:
            raise StructureError("no *-structure")
        return linalg.vec_mat([self.backend.conj(c) for c in coords], self.star)

    def counit_of(self, coords):
        return sum(c * e for c, e in zip(coords, self.counit))

    def phi_of(self, coords):
        return sum(c * v for c, v in zip(coords, self.left_integral))

    def psi_of(self, coords):
        return sum(c * v for c, v in zip(coords, self.right_integral))

    def _gram(self, integral):
        zero = self.zero_scalar()
        return [[sum((c * integral[k] for k, c in row), zero) for row in plane] for plane in self.mult_index()]

    def gram_phi(self):
        """P[i][j] = phi(a_i a_j); the pairing matrix of the dual basis."""
        if "gram_phi" not in self._cache:
            self._cache["gram_phi"] = self._gram(self.left_integral)
        return self._cache["gram_phi"]

    def gram_psi(self):
        if "gram_psi" not in self._cache:
            self._cache["gram_psi"] = self._gram(self.right_integral)
        return self._cache["gram_psi"]


@dataclass
class Element:
    owner: FiniteQuantumGroup
    coords: list

    def _chk(self, other):
        if other.owner is not self.owner:
            raise OwnerMismatchError("elements belong to different quantum groups")

    def __add__(self, other):
        self._chk(other)
        return Element(self.owner, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._chk(other)
        return Element(self.owner, [a - b for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._chk(other)
            return Element(self.owner, self.owner.mul_coords(self.coords, other.coords))
        return Element(self.owner, [c * other for c in self.coords])

    def __rmul__(self, other):
        return Element(self.owner, [other * c for c in self.coords])

    def __neg__(self):
        return Element(self.owner, [-c for c in self.coords])

    def star(self) -> "Element":
        return Element(self.owner, self.owner.star_coords(self.coords))

    def __eq__(self, other):
        if not isinstance(other, Element) or other.owner is not self.owner:
            return NotImplemented
        be = self.owner.backend
        return all(be.is_zero(a - b) for a, b in zip(self.coords, other.coords))

    def is_zero(self) -> bool:
        be = self.owner.backend
        return all(be.is_zero(c) for c in self.coords)


@dataclass
class Functional:
    """A linear functional, stored by its values on the basis."""

    owner: FiniteQuantumGroup
    values: list

    def __call__(self, x: Element):
        if x.owner is not self.owner:
            raise OwnerMismatchError("functional applied to a foreign element")
        return sum(v * c for v, c in zip(self.values, x.coords))

    def of_coords(self, coords):
        return sum(v * c for v, c in zip(self.values, coords))

    def _chk(self, other):
        if other.owner is not self.owner:
            raise OwnerMismatchError("functionals belong to different quantum groups")

    def __add__(self, other):
        self._chk(other)
        return Functional(self.owner, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._chk(other)
        return Functional(self.owner, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        """Dual-algebra product: (w w')(x) = (w (x) w')(coproduct(x))."""
        if not isinstance(other, Functional):
            return Functional(self.owner, [v * other for v in self.values])
        self._chk(other)
        A = self.owner
        out = []
        for i in range(A.dim):
            acc = A.zero_scalar()
            for j, k, c in A.comult[i]:
                acc = acc + c * self.values[j] * other.values[k]
            out.append(acc)
        return Functional(A, out)

    def __rmul__(self, other):
        return Functional(self.owner, [other * v for v in self.values])

    def __neg__(self):
        return Functional(self.owner, [-v for v in self.values])

    def star(self) -> "Functional":
        """Dual involution: w*(a) = conj(w(S(a)*))."""
        A = self.owner
        out = []
        for m in range(A.dim):
            ss = A.star_coords(A.antipode[m])
            out.append(A.backend.conj(self.of_coords(ss)))
        return Functional(A, out)

    def __eq__(self, other):
        if not isinstance(other, Functional) or other.owner is not self.owner:
            return NotImplemented
        be = self.owner.backend
        return all(be.is_zero(a - b) for a, b in zip(self.values, other.values))

    def is_zero(self) -> bool:
        be = self.owner.backend
        return all(be.is_zero(v) for v in self.values)


@dataclass
class DualResult:
    dual: FiniteQuantumGroup
    pairing: list  # P[i][j] = phi(a_i a_j) = <a_i, w_j>


# ---------------------------------------------------------------------------
# axiom verification


def _flat(t):
    while t and isinstance(t[0], (list, tuple)):
        t = [x for row in t for x in row]
    return list(t)


def _tensors_eq(be, t1, t2):
    """Entrywise equality of nested lists, or of dicts of entries by index in
    which an absent key is a zero entry."""
    if isinstance(t1, dict):
        zero = be.normalize(0)
        keys = t1.keys() | t2.keys()
        f1, f2 = [t1.get(key, zero) for key in keys], [t2.get(key, zero) for key in keys]
    else:
        f1, f2 = _flat(t1), _flat(t2)
    if be.exact:  # exact == is equality of values, across orders
        return f1 == f2
    return len(f1) == len(f2) and all(be.is_zero(a - b) for a, b in zip(f1, f2))


def _accumulate(acc, key, x):
    """acc[key] += x in a dict of entries by index (an absent key is zero)."""
    acc[key] = acc[key] + x if key in acc else x


def _associativity(A):
    """(a_i a_j) a_k = a_i (a_j a_k), composed from the nonzero constants"""
    nz = A.mult_index()
    for i, j, k in product(range(A.dim), repeat=3):
        lhs, rhs = {}, {}
        for l, c in nz[i][j]:
            for n, c2 in nz[l][k]:
                _accumulate(lhs, n, c * c2)
        for l, c in nz[j][k]:
            for n, c2 in nz[i][l]:
                _accumulate(rhs, n, c * c2)
        yield "basis (%d,%d,%d)" % (i, j, k), lhs, rhs


def _unit_law(A):
    for i in range(A.dim):
        e = _basis(A.dim, i)
        yield "basis %d" % i, A.mul_coords(A.unit, e), e
        yield "basis %d" % i, A.mul_coords(e, A.unit), e


def _coassociativity(A):
    """(coproduct (x) id) coproduct = (id (x) coproduct) coproduct"""
    for i in range(A.dim):
        lhs, rhs = {}, {}
        for j, k, c in A.comult[i]:
            for a, b, c2 in A.comult[j]:
                _accumulate(lhs, (a, b, k), c * c2)
            for a, b, c2 in A.comult[k]:
                _accumulate(rhs, (j, a, b), c * c2)
        yield "basis %d" % i, lhs, rhs


def _counit_law(A):
    d = A.dim
    for i in range(d):
        left = [A.zero_scalar()] * d
        right = [A.zero_scalar()] * d
        for j, k, c in A.comult[i]:
            right[j] = right[j] + c * A.counit[k]
            left[k] = left[k] + c * A.counit[j]
        yield "basis %d" % i, left, _basis(d, i)
        yield "basis %d" % i, right, _basis(d, i)


def _antipode_law(A):
    """m(S (x) id)coproduct(a) = eps(a) 1 = m(id (x) S)coproduct(a)"""
    d = A.dim
    for i in range(d):
        left = [A.zero_scalar()] * d
        right = [A.zero_scalar()] * d
        for j, k, c in A.comult[i]:
            pj = A.mul_coords(A.antipode[j], _basis(d, k))
            pk = A.mul_coords(_basis(d, j), A.antipode[k])
            left = [x + c * y for x, y in zip(left, pj)]
            right = [x + c * y for x, y in zip(right, pk)]
        target = [A.counit[i] * u for u in A.unit]
        yield "basis %d" % i, left, target
        yield "basis %d" % i, right, target


def _invariance(A, left):
    """(id (x) phi)coproduct(a) = phi(a) 1 for the left integral phi, or
    (psi (x) id)coproduct(a) = psi(a) 1 for the right integral psi."""
    d = A.dim
    integral = A.left_integral if left else A.right_integral
    for i in range(d):
        acc = [A.zero_scalar()] * d
        for j, k, c in A.comult[i]:
            if left:
                acc[j] = acc[j] + c * integral[k]
            else:
                acc[k] = acc[k] + c * integral[j]
        yield "basis %d" % i, acc, [integral[i] * u for u in A.unit]


def _faithfulness(A, gram):
    """An integral is faithful when its Gram matrix has nullity 0."""
    yield "singular Gram matrix", [len(linalg.nullspace(gram, A.backend))], [0]


def _star_involution(A):
    """(a*)* = a"""
    for i in range(A.dim):
        yield "basis %d" % i, A.star_coords(A.star[i]), _basis(A.dim, i)


def _star_antihomomorphism(A):
    """(ab)* = b* a*"""
    for i, j in product(range(A.dim), repeat=2):
        yield "basis (%d,%d)" % (i, j), A.star_coords(A.mult[i][j]), A.mul_coords(A.star[j], A.star[i])


def _comult_star_homomorphism(A):
    be = A.backend
    d = A.dim
    for i in range(d):
        rhs = [[A.zero_scalar()] * d for _ in range(d)]
        for j, k, c in A.comult[i]:
            sj, sk = A.star[j], A.star[k]
            cc = be.conj(c)
            for a in range(d):
                if be.is_zero(sj[a]):
                    continue
                for b in range(d):
                    rhs[a][b] = rhs[a][b] + cc * sj[a] * sk[b]
        yield "basis %d" % i, A.comult_dense(A.star[i]), rhs


def _s_star_s_star(A):
    for i in range(A.dim):
        v = A.antipode_coords(A.star_coords(A.antipode_coords(A.star[i])))
        yield "basis %d" % i, v, _basis(A.dim, i)


# The defining identities in report order: (case, the attribute of A that must
# not be None for the identity to apply, cases), where cases(A) yields
# (witness, lhs, rhs) basis-level cases.
_AXIOMS = (
    ("associativity", None, _associativity),
    ("unit law", "unit", _unit_law),
    ("coassociativity", None, _coassociativity),
    ("counit law", None, _counit_law),
    ("antipode law", "unit", _antipode_law),
    ("left invariance", "unit", lambda A: _invariance(A, left=True)),
    ("right invariance", "unit", lambda A: _invariance(A, left=False)),
    ("faithfulness of phi", None, lambda A: _faithfulness(A, A.gram_phi())),
    ("faithfulness of psi", None, lambda A: _faithfulness(A, A.gram_psi())),
    ("star involution", "star", _star_involution),
    ("star antihomomorphism", "star", _star_antihomomorphism),
    ("coproduct *-homomorphism", "star", _comult_star_homomorphism),
    ("S*S* = id", "star", _s_star_s_star),
)


def _failures(A, cases):
    """Witnesses of the cases whose two sides differ, decided lazily."""
    be = A.backend
    return (witness for witness, lhs, rhs in cases(A) if not _tensors_eq(be, lhs, rhs))


def verify_axioms(A: FiniteQuantumGroup) -> list:
    """Check every defining identity; failures are reported, not raised."""
    suite = "axioms:" + A.name
    return [
        check(suite, case, _failures(A, cases))
        for case, needs, cases in _AXIOMS
        if needs is None or getattr(A, needs) is not None
    ]


# ---------------------------------------------------------------------------
# dual construction


def _transpose(A: FiniteQuantumGroup) -> FiniteQuantumGroup:
    """The dual of A on the basis e^0 .. e^{d-1} dual to a_0 .. a_{d-1}.

    Every structure map is the transpose of its partner: the product is dual
    to the coproduct and the coproduct to the product, counit and unit swap,
    the antipode is the transpose of S and w*(a) = conj(w(S(a)*)).  The right
    integral sends phi(. a) to eps(a), the left one psi(b .) to eps(b).
    """
    be = A.backend
    d = A.dim
    try:
        gram_phi_inv = linalg.inverse(A.gram_phi(), be)
    except linalg.SingularMatrixError as exc:
        raise FaithfulnessError("left integral is not faithful") from exc
    try:
        gram_psi_t_inv = linalg.inverse(linalg.transpose(A.gram_psi()), be)
    except linalg.SingularMatrixError as exc:
        raise FaithfulnessError("right integral is not faithful") from exc
    zero = A.zero_scalar()
    mult = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for k, terms in enumerate(A.comult):
        for i, j, c in terms:
            mult[i][j][k] = mult[i][j][k] + c
    comult = [[] for _ in range(d)]
    for i, plane in enumerate(A.mult_index()):
        for j, row in enumerate(plane):
            for k, c in row:
                comult[k].append((i, j, c))
    star = None
    if A.is_star:
        star = linalg.transpose([[be.conj(x) for x in A.star_coords(row)] for row in A.antipode])
    return FiniteQuantumGroup(
        dim=d,
        basis_labels=list(A.basis_labels),
        mult=mult,
        comult=comult,
        counit=A.unit,
        antipode=linalg.transpose(A.antipode),
        star=star,
        unit=A.counit,
        left_integral=linalg.vec_mat(A.counit, gram_psi_t_inv),
        right_integral=linalg.vec_mat(A.counit, gram_phi_inv),
        backend=be,
        name=A.name,
    )


def build_dual(A: FiniteQuantumGroup) -> DualResult:
    """The dual quantum group on the basis w_i = phi(. a_i) = sum_k P[k][i] e^k."""
    if A.unit is None:
        raise StructureError("the dual construction needs a unit")
    P = A.gram_phi()
    dual = transport(_transpose(A), linalg.transpose(P), name="dual(%s)" % A.name)
    dual.basis_labels = ["w[%s]" % lbl for lbl in A.basis_labels]
    return DualResult(dual=dual, pairing=P)


def transport(A: FiniteQuantumGroup, M, name=None) -> FiniteQuantumGroup:
    """Re-express A on the basis b_x = sum_i M[x][i] a_i."""
    be = A.backend
    d = A.dim
    Minv = linalg.inverse(M, be)
    mult = [[linalg.vec_mat(A.mul_coords(M[x], M[y]), Minv) for y in range(d)] for x in range(d)]
    comult = []
    for x in range(d):
        D = A.comult_dense(M[x])
        C = linalg.mat_mul(linalg.mat_mul(linalg.transpose(Minv), D), Minv)
        comult.append([(j, k, C[j][k]) for j in range(d) for k in range(d) if not be.is_zero(C[j][k])])
    counit = [A.counit_of(M[x]) for x in range(d)]
    antipode = [linalg.vec_mat(A.antipode_coords(M[x]), Minv) for x in range(d)]
    star = None
    if A.is_star:
        star = [linalg.vec_mat(A.star_coords(M[x]), Minv) for x in range(d)]
    unit = linalg.vec_mat(A.unit, Minv) if A.unit is not None else None
    phi = [A.phi_of(M[x]) for x in range(d)]
    psi = [A.psi_of(M[x]) for x in range(d)]
    return FiniteQuantumGroup(
        dim=d,
        basis_labels=list(A.basis_labels),
        mult=mult,
        comult=comult,
        counit=counit,
        antipode=antipode,
        star=star,
        unit=unit,
        left_integral=phi,
        right_integral=psi,
        backend=be,
        name=name or A.name,
    )


def tensors_equal(A: FiniteQuantumGroup, B: FiniteQuantumGroup) -> bool:
    """Structure-tensor equality (same backend assumed)."""
    return next(tensor_differences(A, B), None) is None


def tensor_differences(A: FiniteQuantumGroup, B: FiniteQuantumGroup):
    """The structure tensors in which A and B differ, first difference first:
    the dimension, mult, comult at basis i, counit, and so on."""
    if A.dim != B.dim:
        yield "dimension %d != %d" % (A.dim, B.dim)
        return
    be = A.backend
    d = A.dim
    if not _tensors_eq(be, A.mult, B.mult):
        yield "mult"
    for i in range(d):
        if not _tensors_eq(be, A.comult_dense(_basis(d, i)), B.comult_dense(_basis(d, i))):
            yield "comult at basis %d" % i
    for name in ("counit", "antipode", "left_integral", "right_integral", "unit", "star"):
        x, y = getattr(A, name), getattr(B, name)
        if (x is None) != (y is None) or (x is not None and not _tensors_eq(be, x, y)):
            yield name.replace("_", " ")


# ---------------------------------------------------------------------------
# Fourier transform and friends


def fourier(A: FiniteQuantumGroup, a: Element) -> Functional:
    """F(a) = phi(. a), returned by its values on the basis."""
    if a.owner is not A:
        raise OwnerMismatchError("element does not belong to this quantum group")
    P = A.gram_phi()
    return Functional(A, linalg.mat_vec(P, a.coords))


def inverse_fourier(A: FiniteQuantumGroup, w: Functional) -> Element:
    """The unique a with phi(. a) = w, by exact solve against the Gram matrix."""
    if w.owner is not A:
        raise OwnerMismatchError("functional does not belong to this quantum group")
    try:
        coords = linalg.solve(A.gram_phi(), w.values, A.backend)
    except linalg.SingularMatrixError as exc:
        raise FaithfulnessError("left integral is not faithful") from exc
    return Element(A, coords)


def psi_hat(A: FiniteQuantumGroup, w: Functional):
    """Dual right integral: psi_hat(phi(. a)) = eps(a)."""
    return A.counit_of(inverse_fourier(A, w).coords)


def epsilon_hat(A: FiniteQuantumGroup, w: Functional):
    """Dual counit: eps_hat(w) = w(1)."""
    return sum(u * v for u, v in zip(A.unit, w.values))


def convolve(A: FiniteQuantumGroup, a: Element, b: Element) -> Element:
    """a*b = phi(S^{-1}(b_(1)) a) b_(2)."""
    if a.owner is not A or b.owner is not A:
        raise OwnerMismatchError("elements do not belong to this quantum group")
    be = A.backend
    d = A.dim
    Pa = linalg.mat_vec(A.gram_phi(), a.coords)  # Pa[m] = phi(a_m a)
    Sinv = A.antipode_inv_matrix()
    out = [A.zero_scalar()] * d
    for i, bi in enumerate(b.coords):
        if be.is_zero(bi):
            continue
        for j, k, c in A.comult[i]:
            scal = sum(Sinv[j][m] * Pa[m] for m in range(d))
            out[k] = out[k] + bi * c * scal
    return Element(A, out)


def convolve_alt(A: FiniteQuantumGroup, a: Element, b: Element) -> Element:
    """The equivalent expression a*b = phi(S^{-1}(b) a_(2)) a_(1)."""
    if a.owner is not A or b.owner is not A:
        raise OwnerMismatchError("elements do not belong to this quantum group")
    be = A.backend
    d = A.dim
    sb = A.antipode_inv_coords(b.coords)
    P = A.gram_phi()
    out = [A.zero_scalar()] * d
    for i, ai in enumerate(a.coords):
        if be.is_zero(ai):
            continue
        for j, k, c in A.comult[i]:
            scal = sum(sb[m] * P[m][k] for m in range(d))
            out[j] = out[j] + ai * c * scal
    return Element(A, out)


def plancherel_check(A: FiniteQuantumGroup, a: Element, check_positivity=True, tolerance=1e-9):
    """Check psi_hat(w* w) = phi(a* a) for w = F(a); returns CheckReports."""
    if not A.is_star:
        raise StructureError("Plancherel needs a *-structure")
    suite = "plancherel:" + A.name
    w = fourier(A, a)
    lhs = psi_hat(A, w.star() * w)
    rhs = A.phi_of((a.star() * a).coords)
    unequal = not A.backend.is_zero(lhs - rhs)
    reports = [check(suite, "psi_hat(w*w) = phi(a*a)", ["lhs=%r rhs=%r" % (lhs, rhs)] if unequal else [])]
    if check_positivity:
        z = A.backend.to_complex(rhs)
        negative = z.real < -tolerance or abs(z.imag) > tolerance
        reports.append(check(suite, "phi(a*a) numerically positive", ["value=%r" % (z,)] if negative else []))
    return reports


def find_cointegral(A: FiniteQuantumGroup):
    """Basis of {h : a h = eps(a) h for all a}, by exact nullspace."""
    d = A.dim
    rows = []
    for i in range(d):
        for k in range(d):
            row = []
            for j in range(d):
                v = A.mult[i][j][k]
                if k == j:
                    v = v - A.counit[i]
                row.append(v)
            rows.append(row)
    return [Element(A, v) for v in linalg.nullspace(rows, A.backend)]


def classify_type(A: FiniteQuantumGroup) -> dict:
    compact = A.unit is not None and next(_failures(A, _unit_law), None) is None
    discrete = bool(find_cointegral(A))
    return {"compact": compact, "discrete": discrete}


def dual_type_check(A: FiniteQuantumGroup) -> list:
    """Theorem: compact => phi is a cointegral in the dual; discrete => eps is a dual unit."""
    types = classify_type(A)
    if not types["compact"]:
        raise StructureError("dual_type_check requires compact type")
    suite = "dual-type:" + A.name
    Phi = fourier(A, A.one())  # the functional phi itself
    dual_basis = [("dual basis %d" % i, fourier(A, A.basis_element(i))) for i in range(A.dim)]
    reports = [
        check(
            suite,
            "w phi = eps_hat(w) phi",
            (wit for wit, w in dual_basis if not w * Phi == epsilon_hat(A, w) * Phi),
        )
    ]
    if types["discrete"]:
        eps = Functional(A, list(A.counit))
        reports.append(
            check(
                suite,
                "eps is a unit of the dual product",
                (wit for wit, w in dual_basis if not (eps * w == w and w * eps == w)),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# group-like projections and the modular element


def is_group_like_projection(A: FiniteQuantumGroup, h: Element) -> bool:
    """h != 0, h^2 = h = h*, and coproduct(h)(1 (x) h) = h (x) h, all exact."""
    return next(group_like_failures(A, h), None) is None


def group_like_failures(A: FiniteQuantumGroup, h: Element):
    """The group-like identities h breaks, first one first: h = 0, h^2 != h,
    h* != h, or a row where coproduct(h)(1 (x) h) differs from h (x) h."""
    if not A.is_star:
        raise StructureError("group-like projections need a *-structure")
    if h.owner is not A:
        raise OwnerMismatchError("element does not belong to this quantum group")
    be = A.backend
    if h.is_zero():
        yield "h = 0"
        return
    if not h * h == h:
        yield "h^2 != h"
    if not h.star() == h:
        yield "h* != h"
    d = A.dim
    D = A.comult_dense(h.coords)
    for j in range(d):
        # row j of (a_j (x) a_k)(1 (x) h) = a_j (x) a_k h, summed over k
        row = [A.zero_scalar()] * d
        for k in range(d):
            if be.is_zero(D[j][k]):
                continue
            prod = A.mul_coords(_basis(d, k), h.coords)
            for l in range(d):
                row[l] = row[l] + D[j][k] * prod[l]
        if not _tensors_eq(be, row, [h.coords[j] * hl for hl in h.coords]):
            yield "coproduct(h)(1 (x) h) differs from h (x) h in row %d" % j


def fourier_group_like(A: FiniteQuantumGroup, h: Element) -> Functional:
    """F(h) under the phi(h)=1 normalization; verified group-like in the dual."""
    if not is_group_like_projection(A, h):
        raise StructureError("not a group-like projection")
    witness = next(dual_group_like_failures(A, build_dual(A).dual, h), None)
    if witness is not None:
        raise StructureError("Fourier transform failed the dual group-like check: %s" % witness)
    ph = A.phi_of(h.coords)
    return Functional(A, [v / ph for v in fourier(A, h).values])


def dual_group_like_failures(A: FiniteQuantumGroup, dual: FiniteQuantumGroup, h: Element):
    """The group-like identities that F(h), under the phi(h)=1 normalization,
    breaks in ``dual = build_dual(A).dual``, named as in ``group_like_failures``."""
    be = A.backend
    ph = A.phi_of(h.coords)
    if be.is_zero(ph):
        yield "phi(h) = 0"
        return
    lam = be.normalize(1) / ph
    # F(h) / phi(h) = sum (h_i / phi(h)) w_i in the dual basis w_i = phi(. a_i)
    for witness in group_like_failures(dual, dual.element([lam * c for c in h.coords])):
        yield "F(h) in the dual: " + witness


def modular_element(A: FiniteQuantumGroup) -> Element:
    """The unique invertible delta with (phi (x) id)coproduct(a) = phi(a) delta."""
    be = A.backend
    d = A.dim
    rows, rhs = [], []
    for i in range(d):
        L = [A.zero_scalar()] * d
        for j, k, c in A.comult[i]:
            L[k] = L[k] + c * A.left_integral[j]
        for k in range(d):
            row = [A.zero_scalar()] * d
            row[k] = A.left_integral[i]
            rows.append(row)
            rhs.append(L[k])
    try:
        coords = linalg.solve(rows, rhs, be)
    except (linalg.SingularMatrixError, linalg.InconsistentSystemError) as exc:
        raise StructureError("no modular element solves the defining system") from exc
    # invertibility: left multiplication by delta must be invertible
    Lmat = [A.mul_coords(coords, _basis(d, i)) for i in range(d)]
    try:
        linalg.inverse(linalg.transpose(Lmat), be)
    except linalg.SingularMatrixError as exc:
        raise StructureError("modular element is not invertible") from exc
    return Element(A, coords)
