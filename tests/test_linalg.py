"""Exact Gaussian elimination: solve, inverse, nullspace; matrix products."""

import random
from fractions import Fraction

import pytest

from qgfourier import core, linalg
from qgfourier.scalars import EXACT, FLOAT, Cyclotomic, zeta


def test_solve_exact():
    a = [[2, 1], [1, 3]]
    x = linalg.solve(a, [5, 10], EXACT)
    assert x == [Fraction(1), Fraction(3)]


def test_solve_rectangular_consistent():
    # three equations, two unknowns, consistent
    a = [[1, 0], [0, 1], [1, 1]]
    assert linalg.solve(a, [2, 3, 5], EXACT) == [Fraction(2), Fraction(3)]


def test_solve_inconsistent():
    with pytest.raises(linalg.InconsistentSystemError):
        linalg.solve([[1, 0], [1, 0]], [1, 2], EXACT)


def test_solve_underdetermined():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve([[1, 1], [2, 2]], [1, 2], EXACT)


def test_inverse_round_trip():
    a = [[1, 2, 0], [0, 1, 4], [1, 0, 1]]
    inv = linalg.inverse(a, EXACT)
    prod = linalg.mat_mul(a, inv)
    assert prod == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_inverse_with_cyclotomic_entries():
    w = zeta(3)
    a = [[1, 1], [1, w]]
    inv = linalg.inverse(a, EXACT)
    prod = linalg.mat_mul(a, inv)
    assert all(EXACT.is_zero(prod[i][j] - (1 if i == j else 0)) for i in range(2) for j in range(2))


def test_singular_inverse():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse([[1, 2], [2, 4]], EXACT)


def test_nullspace():
    basis = linalg.nullspace([[1, 2, 3]], EXACT)
    assert len(basis) == 2
    for v in basis:
        assert sum(c * x for c, x in zip([1, 2, 3], v)) == 0
    assert linalg.nullspace([[1, 0], [0, 1]], EXACT) == []


# -- products -----------------------------------------------------------------


def _dense_mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


_ENTRIES = {
    "exact": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    "float": lambda rng: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
    "cyclotomic": lambda rng: rng.choice([Fraction(rng.randint(-2, 2)), zeta(3, rng.randint(0, 2)), zeta(4) - 1]),
}
_ZEROS = {"exact": Fraction(0), "float": 0j, "cyclotomic": Cyclotomic(6, [0, 0])}


def _sparse(rng, kind, rows, cols):
    """A matrix whose entries are zero with probability 1/2, with one all-zero row."""
    m = [[_ENTRIES[kind](rng) if rng.random() < 0.5 else _ZEROS[kind] for _ in range(cols)] for _ in range(rows)]
    m[rng.randrange(rows)] = [_ZEROS[kind]] * cols
    return m


def _same(kind, x, y):
    return abs(x - y) < 1e-12 if kind == "float" else x == y


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
def test_products_match_dense_reference(kind):
    rng = random.Random(kind)
    for _ in range(20):
        n, m, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = _sparse(rng, kind, n, m), _sparse(rng, kind, m, k)
        v = rng.choice([[_ZEROS[kind]] * m, _sparse(rng, kind, 2, m)[0]])
        want = _dense_mat_mul(a, b)
        got = linalg.mat_mul(a, b)
        assert all(_same(kind, x, y) for gr, wr in zip(got, want) for x, y in zip(gr, wr))
        assert [len(r) for r in got] == [k] * n
        col = [[x] for x in v]
        assert all(_same(kind, x, y[0]) for x, y in zip(linalg.mat_vec(a, v), _dense_mat_mul(a, col)))
        assert all(_same(kind, x, y) for x, y in zip(linalg.vec_mat(v, b), _dense_mat_mul([v], b)[0]))


def test_all_zero_products_keep_the_scalar_kind():
    # an all-zero vector or row gives zeros of the operands' kind, not int 0
    assert all(type(x) is complex for x in linalg.vec_mat([0j, 0j], [[1j, 2], [3, 4j]]))
    assert all(type(x) is complex for x in linalg.mat_vec([[1j, 2], [3, 4j]], [0j, 0j]))
    assert type(linalg.mat_mul([[0j, 0j]], [[1j], [2j]])[0][0]) is complex
    assert linalg.vec_mat([Fraction(0)], [[Fraction(2, 3)]]) == [Fraction(0)]
    assert type(linalg.vec_mat([Fraction(0)], [[Fraction(2, 3)]])[0]) is Fraction


@pytest.mark.parametrize(
    "t1, t2",
    [
        ([1, Fraction(1, 2)], [zeta(4) ** 4, Cyclotomic(6, [Fraction(1, 2), 0])]),
        ([[1, 0], [0, 1]], [[zeta(4) ** 4, zeta(3) - zeta(3)], [0, zeta(5) ** 5]]),
        ([zeta(3)], [zeta(12) ** 4]),
        ([1, 2], [1, zeta(3)]),
        ([zeta(3)], [zeta(3, 2)]),
        ([1, 2], [1]),
        ([[1, 0], [0]], [[1], [0, 0]]),
        ([], [Fraction(0)]),
    ],
)
def test_exact_tensor_equality_agrees_with_subtraction(t1, t2):
    flat1 = [x for t in t1 for x in (t if isinstance(t, list) else [t])]
    flat2 = [x for t in t2 for x in (t if isinstance(t, list) else [t])]
    want = len(flat1) == len(flat2) and all(EXACT.is_zero(x - y) for x, y in zip(flat1, flat2))
    assert core._tensors_eq(EXACT, t1, t2) is want
    assert core._tensors_eq(EXACT, t2, t1) is want
