"""Exact dense linear algebra over a field given by a scalar backend.

Everything here is plain Gaussian elimination with the first nonzero pivot
in row order (no magnitude heuristics; the exact backend divides exactly, so
pivot choice only affects the float backend marginally).  Matrices are lists
of lists of backend scalars; dimensions stay tiny (<= ~36 rows) throughout
the package, so no effort is spent on asymptotics.

The products skip exact-zero entries: structure tensors and basis vectors
are mostly zeros, and every zero skipped is a multiplication and an addition
saved.
"""

from __future__ import annotations

from .scalars import EXACT


class SingularMatrixError(ValueError):
    pass


class InconsistentSystemError(ValueError):
    pass


def _echelon(m, backend):
    """In-place row echelon form; returns list of pivot column indices."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not backend.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(rows):
            if i != r and not backend.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def solve(a, b, backend=EXACT):
    """Solve A x = b exactly; A may be rectangular (rows >= cols).

    Raises InconsistentSystemError if no solution exists and
    SingularMatrixError if the solution is not unique.
    """
    n = len(a[0])
    m = [[backend.normalize(x) for x in row] + [backend.normalize(bb)] for row, bb in zip(a, b)]
    pivots = _echelon(m, backend)
    if n in pivots:
        raise InconsistentSystemError("no solution")
    if len(pivots) < n:
        raise SingularMatrixError("solution not unique")
    x = [None] * n
    for r, c in enumerate(pivots):
        x[c] = m[r][n]
    return x


def inverse(a, backend=EXACT):
    n = len(a)
    zero, one = backend.normalize(0), backend.normalize(1)
    m = [
        [backend.normalize(x) for x in row] + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(a)
    ]
    pivots = _echelon(m, backend)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix not invertible")
    return [row[n:] for row in m]


def nullspace(a, backend=EXACT):
    """Basis of {x : A x = 0}; free variables set to 1 in turn."""
    if not a:
        return []
    n = len(a[0])
    m = [[backend.normalize(x) for x in row] for row in a]
    pivots = _echelon(m, backend)
    free = [c for c in range(n) if c not in pivots]
    zero, one = backend.normalize(0), backend.normalize(1)
    basis = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _support(v):
    """Indices of v's nonzero entries.  If there are none, the first index, so
    that a product with an all-zero v is a zero of the operands' kind (a
    complex zero on the float backend, not the int 0 of an empty sum)."""
    return [k for k, x in enumerate(v) if x != 0] or ([0] if v else [])


def mat_mul(a, b):
    return [vec_mat(row, b) for row in a]


def mat_vec(a, v):
    ks = _support(v)
    return [sum(row[k] * v[k] for k in ks) for row in a]


def vec_mat(v, a):
    terms = [(v[k], a[k]) for k in _support(v)]
    return [sum(x * row[j] for x, row in terms) for j in range(len(a[0]))]


def transpose(a):
    return [list(col) for col in zip(*a)]
