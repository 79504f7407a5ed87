"""Concrete finite quantum groups: function algebras, group algebras and a
non-unimodular 4-dimensional fixture.

Finite groups are given by Cayley tables (validated on construction), not by
presentations.  Built-in tables are available by name: "trivial", "Z2",
"Z3", "Z4", "Z2xZ2", "S3".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .core import FiniteQuantumGroup, StructureError
from .scalars import EXACT, Backend


@dataclass
class FiniteGroupTable:
    order: int
    cayley: list  # cayley[i][j] = index of g_i g_j
    labels: list
    identity: int = 0
    inverse: list = None

    def __post_init__(self):
        n = self.order
        if len(self.cayley) != n or any(len(r) != n for r in self.cayley):
            raise StructureError("Cayley table has the wrong shape")
        if any(not 0 <= x < n for r in self.cayley for x in r):
            raise StructureError("Cayley table entry out of range")
        e = next(
            (i for i in range(n) if all(self.cayley[i][j] == j and self.cayley[j][i] == j for j in range(n))),
            None,
        )
        if e is None:
            raise StructureError("no identity element")
        self.identity = e
        inv = []
        for i in range(n):
            ji = next((j for j in range(n) if self.cayley[i][j] == e and self.cayley[j][i] == e), None)
            if ji is None:
                raise StructureError("element %d has no inverse" % i)
            inv.append(ji)
        self.inverse = inv
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.cayley[self.cayley[i][j]][k] != self.cayley[i][self.cayley[j][k]]:
                        raise StructureError("Cayley table is not associative at (%d,%d,%d)" % (i, j, k))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupTable":
        return cls(n, [[(i + j) % n for j in range(n)] for i in range(n)], [str(i) for i in range(n)])

    @classmethod
    def product(cls, g: "FiniteGroupTable", h: "FiniteGroupTable") -> "FiniteGroupTable":
        n, m = g.order, h.order
        idx = lambda a, b: a * m + b
        table = [
            [idx(g.cayley[a][c], h.cayley[b][d]) for c in range(n) for d in range(m)]
            for a in range(n)
            for b in range(m)
        ]
        labels = ["(%s,%s)" % (g.labels[a], h.labels[b]) for a in range(n) for b in range(m)]
        return cls(n * m, table, labels)

    @classmethod
    def symmetric3(cls) -> "FiniteGroupTable":
        import itertools

        perms = list(itertools.permutations(range(3)))
        compose = lambda p, q: tuple(p[q[i]] for i in range(3))
        table = [[perms.index(compose(p, q)) for q in perms] for p in perms]
        return cls(6, table, ["".join(map(str, p)) for p in perms])

    @classmethod
    def builtin(cls, name: str) -> "FiniteGroupTable":
        name = name.strip()
        if name == "trivial":
            return cls.cyclic(1)
        if name in ("Z2", "Z3", "Z4", "Z5", "Z6"):
            return cls.cyclic(int(name[1:]))
        if name == "Z2xZ2":
            return cls.product(cls.cyclic(2), cls.cyclic(2))
        if name == "S3":
            return cls.symmetric3()
        raise KeyError("unknown builtin group %r" % name)


BUILTIN_GROUPS = ("trivial", "Z2", "Z3", "Z4", "Z2xZ2", "S3")


def function_algebra(G: FiniteGroupTable, backend: Backend = EXACT) -> FiniteQuantumGroup:
    """Functions on G: pointwise product, coproduct dual to the group law.

    phi = psi = counting sum, which matches the dual-integral normalization
    used throughout.
    """
    n = G.order
    mult = [[[1 if (i == j and k == i) else 0 for k in range(n)] for j in range(n)] for i in range(n)]
    comult = [
        [(h, k, 1) for h in range(n) for k in range(n) if G.cayley[h][k] == g] for g in range(n)
    ]
    counit = [1 if g == G.identity else 0 for g in range(n)]
    antipode = [[1 if k == G.inverse[g] else 0 for k in range(n)] for g in range(n)]
    star = [[1 if k == g else 0 for k in range(n)] for g in range(n)]
    return FiniteQuantumGroup(
        dim=n,
        basis_labels=["d[%s]" % l for l in G.labels],
        mult=mult,
        comult=comult,
        counit=counit,
        antipode=antipode,
        star=star,
        unit=[1] * n,
        left_integral=[1] * n,
        right_integral=[1] * n,
        backend=backend,
        name="Fun[%d]" % n,
    )


def group_algebra(G: FiniteGroupTable, backend: Backend = EXACT) -> FiniteQuantumGroup:
    """The group algebra of G: basis lambda_g, group-like coproduct.

    phi(lambda_g) = psi(lambda_g) = [g = e].
    """
    n = G.order
    mult = [[[1 if k == G.cayley[i][j] else 0 for k in range(n)] for j in range(n)] for i in range(n)]
    comult = [[(g, g, 1)] for g in range(n)]
    counit = [1] * n
    antipode = [[1 if k == G.inverse[g] else 0 for k in range(n)] for g in range(n)]
    star = [[1 if k == G.inverse[g] else 0 for k in range(n)] for g in range(n)]
    unit = [1 if g == G.identity else 0 for g in range(n)]
    integral = [1 if g == G.identity else 0 for g in range(n)]
    return FiniteQuantumGroup(
        dim=n,
        basis_labels=["l[%s]" % l for l in G.labels],
        mult=mult,
        comult=comult,
        counit=counit,
        antipode=antipode,
        star=star,
        unit=unit,
        left_integral=list(integral),
        right_integral=list(integral),
        backend=backend,
        name="C[%d]" % n,
    )


def _solve_integrals(dim, comult, unit, backend, left=True):
    """Invariance equations as a homogeneous system; 1-dim nullspace expected."""
    rows = []
    for i in range(dim):
        acc = [[backend.normalize(0)] * dim for _ in range(dim)]  # acc[j][phi-index k]
        for j, k, c in comult[i]:
            if left:
                acc[j][k] = acc[j][k] + c
            else:
                acc[k][j] = acc[k][j] + c
        for j in range(dim):
            row = list(acc[j])
            row[i] = row[i] - unit[j]  # move phi(a_i) unit_j to the left side
            rows.append(row)
    basis = linalg.nullspace(rows, backend)
    if len(basis) != 1:
        raise StructureError("integral space has dimension %d" % len(basis))
    v = basis[0]
    lead = next(x for x in v if not backend.is_zero(x))
    return [x / lead for x in v]


def sweedler_fixture(backend: Backend = EXACT) -> FiniteQuantumGroup:
    """A 4-dimensional non-unimodular fixture: grouplike g with g^2 = 1 and x
    with x^2 = 0, gx = -xg, coproduct(x) = x(x)1 + g(x)x.

    Its left and right invariant functionals differ and the modular element
    is g, exercising paths the (co)commutative group fixtures cannot.
    The involution is x* = -x, which makes phi self-adjoint.
    """
    # basis 0:1, 1:g, 2:x, 3:gx
    d = 4

    def e(k, s=1):
        v = [0] * d
        v[k] = s
        return v

    mult = [[None] * d for _ in range(d)]
    mult[0] = [e(0), e(1), e(2), e(3)]
    mult[1] = [e(1), e(0), e(3), e(2)]
    mult[2] = [e(2), e(3, -1), e(0, 0), e(0, 0)]
    mult[3] = [e(3), e(2, -1), e(0, 0), e(0, 0)]
    comult = [
        [(0, 0, 1)],
        [(1, 1, 1)],
        [(2, 0, 1), (1, 2, 1)],
        [(3, 1, 1), (0, 3, 1)],
    ]
    counit = [1, 1, 0, 0]
    antipode = [e(0), e(1), e(3, -1), e(2)]
    star = [e(0), e(1), e(2, -1), e(3)]
    unit = e(0)
    phi = _solve_integrals(d, comult, unit, backend, left=True)
    psi = _solve_integrals(d, comult, unit, backend, left=False)
    return FiniteQuantumGroup(
        dim=d,
        basis_labels=["1", "g", "x", "gx"],
        mult=mult,
        comult=comult,
        counit=counit,
        antipode=antipode,
        star=star,
        unit=unit,
        left_integral=phi,
        right_integral=psi,
        backend=backend,
        name="H4",
    )


def subgroup_indicator(A: FiniteQuantumGroup, G: FiniteGroupTable, members) -> "Element":
    """Indicator of a subset of G as an element of function_algebra(G)."""
    return A.element([1 if g in set(members) else 0 for g in range(G.order)])


def subgroups_of(G: FiniteGroupTable):
    """All subgroups, as sorted tuples of element indices (brute force)."""
    import itertools

    n = G.order
    found = set()
    for r in range(1, n + 1):
        if n % r:
            continue
        for combo in itertools.combinations(range(n), r):
            s = set(combo)
            if G.identity not in s:
                continue
            if all(G.cayley[a][b] in s for a in s for b in s) and all(G.inverse[a] in s for a in s):
                found.add(tuple(sorted(s)))
    return sorted(found, key=lambda t: (len(t), t))


def standard_fixtures(backend: Backend = EXACT):
    """The fixture family used by the property and acceptance suites."""
    out = []
    for gname in ("Z2", "Z3", "Z4", "Z2xZ2", "S3"):
        G = FiniteGroupTable.builtin(gname)
        fa = function_algebra(G, backend)
        fa.name = "Fun(%s)" % gname
        ga = group_algebra(G, backend)
        ga.name = "C[%s]" % gname
        out.append((fa.name, fa))
        out.append((ga.name, ga))
    out.append(("H4", sweedler_fixture(backend)))
    return out
