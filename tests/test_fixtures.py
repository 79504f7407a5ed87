"""Group tables and the concrete quantum-group fixtures."""

from fractions import Fraction

import pytest

from qgfourier import core, fixtures
from qgfourier.core import StructureError


def test_builtin_groups():
    for name, order in (("trivial", 1), ("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z2xZ2", 4), ("S3", 6)):
        G = fixtures.FiniteGroupTable.builtin(name)
        assert G.order == order
    with pytest.raises(KeyError):
        fixtures.FiniteGroupTable.builtin("Q8")


def test_cayley_validation():
    with pytest.raises(StructureError):
        fixtures.FiniteGroupTable(2, [[0, 1]], ["e", "a"])  # wrong shape
    with pytest.raises(StructureError):
        fixtures.FiniteGroupTable(2, [[0, 1], [1, 5]], ["e", "a"])  # out of range
    with pytest.raises(StructureError):
        fixtures.FiniteGroupTable(2, [[1, 0], [0, 0]], ["e", "a"])  # no identity


def test_subgroups_of_s3():
    G = fixtures.FiniteGroupTable.builtin("S3")
    subs = fixtures.subgroups_of(G)
    by_order = {}
    for s in subs:
        by_order.setdefault(len(s), []).append(s)
    assert sorted(by_order) == [1, 2, 3, 6]
    assert len(by_order[2]) == 3  # one per transposition
    assert len(by_order[3]) == 1  # the rotations


def test_function_algebra_shapes():
    G = fixtures.FiniteGroupTable.builtin("Z3")
    A = fixtures.function_algebra(G)
    # pointwise product: delta_g^2 = delta_g, delta_g delta_h = 0
    assert A.basis_element(1) * A.basis_element(1) == A.basis_element(1)
    assert (A.basis_element(1) * A.basis_element(2)).is_zero()
    # counting integral
    assert A.phi_of(A.one().coords) == Fraction(3)


def test_group_algebra_shapes():
    G = fixtures.FiniteGroupTable.builtin("Z3")
    B = fixtures.group_algebra(G)
    assert B.basis_element(1) * B.basis_element(2) == B.basis_element(0)
    assert B.one() == B.basis_element(G.identity)
    assert B.phi_of(B.basis_element(1).coords) == 0
    assert B.phi_of(B.one().coords) == 1


def test_sweedler_structure():
    H = fixtures.sweedler_fixture()
    one, g, x, gx = (H.basis_element(i) for i in range(4))
    assert g * g == one
    assert (x * x).is_zero()
    assert g * x == gx
    assert x * g == -gx
    # solved integrals: phi picks out gx, psi picks out x
    assert H.left_integral == [0, 0, 0, 1]
    assert H.right_integral == [0, 0, 1, 0]
    assert x.star() == -x
    assert core.modular_element(H) == g


def test_standard_fixture_family():
    fams = fixtures.standard_fixtures()
    names = [n for n, _ in fams]
    assert len(fams) == 11
    assert "Fun(S3)" in names and "C[Z4]" in names and "H4" in names
