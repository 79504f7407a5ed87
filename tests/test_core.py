"""Structure tensors, duality and the Fourier transform on finite fixtures."""

import random
from fractions import Fraction

import pytest

from qgfourier import core, fixtures
from qgfourier.report import passed
from qgfourier.scalars import EXACT, FLOAT

FIXTURES = fixtures.standard_fixtures(EXACT)


@pytest.mark.parametrize("name,A", FIXTURES, ids=[n for n, _ in FIXTURES])
def test_axioms_hold(name, A):
    reports = core.verify_axioms(A)
    assert passed(reports), [r.case for r in reports if not r.ok]


def test_axiom_checker_catches_corruption():
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z2"))
    A.mult[0][1][0] = Fraction(1)  # delta_0 * delta_1 must be 0
    reports = core.verify_axioms(A)
    assert not passed(reports)
    assert any(r.case == "associativity" or r.case == "star antihomomorphism" for r in reports if not r.ok)


AXIOM_CASES = [
    "associativity",
    "unit law",
    "coassociativity",
    "counit law",
    "antipode law",
    "left invariance",
    "right invariance",
    "faithfulness of phi",
    "faithfulness of psi",
    "star involution",
    "star antihomomorphism",
    "coproduct *-homomorphism",
    "S*S* = id",
]

# one corrupted entry of Fun(S3) per identity family, and the first witness
# of every identity it breaks
CORRUPTIONS = {
    "mult": (
        lambda A: A.mult[1][2].__setitem__(0, Fraction(1)),
        {
            "associativity": "basis (0,1,2)",
            "unit law": "basis 1",
            "antipode law": "basis 4",
            "star antihomomorphism": "basis (1,2)",
        },
    ),
    "comult": (
        lambda A: A.comult[3].append((0, 0, Fraction(1))),
        {
            "coassociativity": "basis 0",
            "counit law": "basis 3",
            "antipode law": "basis 3",
            "left invariance": "basis 3",
            "right invariance": "basis 3",
        },
    ),
    "counit": (
        lambda A: A.counit.__setitem__(2, Fraction(1)),
        {"counit law": "basis 0", "antipode law": "basis 2"},
    ),
    "antipode": (
        lambda A: A.antipode[4].__setitem__(4, Fraction(1)),
        {"antipode law": "basis 3", "S*S* = id": "basis 3"},
    ),
    "star": (
        lambda A: A.star[5].__setitem__(1, Fraction(1)),
        {
            "star involution": "basis 5",
            "star antihomomorphism": "basis (1,5)",
            "coproduct *-homomorphism": "basis 0",
            "S*S* = id": "basis 5",
        },
    ),
    "integral": (
        lambda A: A.left_integral.__setitem__(0, Fraction(0)),
        {"left invariance": "basis 0", "faithfulness of phi": "singular Gram matrix"},
    ),
}


@pytest.mark.parametrize("family", CORRUPTIONS)
def test_corruption_reports_first_witness(family):
    corrupt, failing = CORRUPTIONS[family]
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("S3"))
    corrupt(A)
    got = [(r.case, r.status, r.witness) for r in core.verify_axioms(A)]
    want = [(c, "fail", failing[c]) if c in failing else (c, "pass", None) for c in AXIOM_CASES]
    assert got == want


def test_fourier_inversion_round_trip():
    A = fixtures.sweedler_fixture()
    rng = random.Random(7)
    for _ in range(20):
        a = A.element([rng.randint(-3, 3) for _ in range(A.dim)])
        assert core.inverse_fourier(A, core.fourier(A, a)) == a


def test_owner_mismatch_is_rejected():
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z2"))
    B = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z2"))
    with pytest.raises(core.OwnerMismatchError):
        A.basis_element(0) + B.basis_element(0)
    with pytest.raises(core.OwnerMismatchError):
        core.fourier(A, B.basis_element(0))
    with pytest.raises(core.OwnerMismatchError):
        core.fourier(A, A.basis_element(0))(B.basis_element(1))


def test_dual_of_group_algebra_is_function_algebra():
    G = fixtures.FiniteGroupTable.builtin("Z3")
    dual = core.build_dual(fixtures.group_algebra(G)).dual
    # dual basis w_g evaluates lambda-combinations at g^-1
    M = [[1 if i == G.inverse[g] else 0 for i in range(3)] for g in range(3)]
    assert core.tensors_equal(core.transport(dual, M), fixtures.function_algebra(G))


def test_dual_axioms_hold():
    for name, A in FIXTURES:
        assert passed(core.verify_axioms(core.build_dual(A).dual)), name


def test_convolution_matches_classical_formula():
    G = fixtures.FiniteGroupTable.builtin("S3")
    A = fixtures.function_algebra(G)
    rng = random.Random(3)
    for _ in range(5):
        a = A.element([rng.randint(-3, 3) for _ in range(6)])
        b = A.element([rng.randint(-3, 3) for _ in range(6)])
        want = A.element(
            [
                sum(a.coords[s] * b.coords[G.cayley[G.inverse[s]][t]] for s in range(6))
                for t in range(6)
            ]
        )
        assert core.convolve(A, a, b) == want
        assert core.convolve_alt(A, a, b) == want


def test_plancherel_on_sweedler():
    A = fixtures.sweedler_fixture()
    a = A.element([1, -2, 3, 0])
    # no positive integral exists on this fixture, so skip the sign check
    assert passed(core.plancherel_check(A, a, check_positivity=False))


def test_cointegral_spans():
    G = fixtures.FiniteGroupTable.builtin("Z4")
    A = fixtures.function_algebra(G)
    (h,) = core.find_cointegral(A)
    assert h == A.basis_element(G.identity) * h.coords[G.identity]
    B = fixtures.group_algebra(G)
    (k,) = core.find_cointegral(B)
    lead = k.coords[0]
    assert k == B.element([lead] * 4)


def test_classify_and_dual_type():
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("S3"))
    t = core.classify_type(A)
    assert t == {"compact": True, "discrete": True}
    assert passed(core.dual_type_check(A))


def test_modular_elements():
    H = fixtures.sweedler_fixture()
    delta = core.modular_element(H)
    assert delta == H.basis_element(1)  # the grouplike g
    A = fixtures.group_algebra(fixtures.FiniteGroupTable.builtin("S3"))
    assert core.modular_element(A) == A.one()


def test_group_like_projections():
    G = fixtures.FiniteGroupTable.builtin("S3")
    A = fixtures.function_algebra(G)
    sub = fixtures.subgroup_indicator(A, G, [0, 1])  # identity + a transposition
    assert core.is_group_like_projection(A, sub)
    full = A.one()
    assert core.is_group_like_projection(A, full)
    assert not core.is_group_like_projection(A, A.zero_element())
    w = core.fourier_group_like(A, full)
    assert not w.is_zero()
    # a singleton coset off the identity is idempotent but not group-like
    with pytest.raises(core.StructureError):
        core.fourier_group_like(A, A.basis_element(1))


def test_float_backend_round_trip():
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z4"), FLOAT)
    rng = random.Random(11)
    for _ in range(10):
        a = A.element([complex(rng.randint(-3, 3)) for _ in range(4)])
        back = core.inverse_fourier(A, core.fourier(A, a))
        assert all(abs(x - y) <= 1e-9 for x, y in zip(back.coords, a.coords))
