"""Structure tensors, duality and the Fourier transform on finite fixtures."""

import random
from fractions import Fraction

import pytest

from qgfourier import core, exchange, fixtures, linalg, suites
from qgfourier.report import passed
from qgfourier.scalars import EXACT, FLOAT, Cyclotomic, zeta

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

# one corrupted entry per identity family, on Fun(S3), C[S3] and H4: the
# fixture, the corruption and the first witness of every identity it breaks
CORRUPTIONS = {
    "mult": (
        "Fun(S3)",
        lambda A: A.mult[1][2].__setitem__(0, Fraction(1)),
        {
            "associativity": "basis (0,1,2)",
            "unit law": "basis 1",
            "antipode law": "basis 4",
            "star antihomomorphism": "basis (1,2)",
        },
    ),
    "comult": (
        "Fun(S3)",
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
        "Fun(S3)",
        lambda A: A.counit.__setitem__(2, Fraction(1)),
        {"counit law": "basis 0", "antipode law": "basis 2"},
    ),
    "antipode": (
        "Fun(S3)",
        lambda A: A.antipode[4].__setitem__(4, Fraction(1)),
        {"antipode law": "basis 3", "S*S* = id": "basis 3"},
    ),
    "star": (
        "Fun(S3)",
        lambda A: A.star[5].__setitem__(1, Fraction(1)),
        {
            "star involution": "basis 5",
            "star antihomomorphism": "basis (1,5)",
            "coproduct *-homomorphism": "basis 0",
            "S*S* = id": "basis 5",
        },
    ),
    "integral": (
        "Fun(S3)",
        lambda A: A.left_integral.__setitem__(0, Fraction(0)),
        {"left invariance": "basis 0", "faithfulness of phi": "singular Gram matrix"},
    ),
    "C[S3] mult": (
        "C[S3]",
        lambda A: A.mult[1][2].__setitem__(0, Fraction(1)),
        {"associativity": "basis (1,1,2)", "star antihomomorphism": "basis (1,2)"},
    ),
    "C[S3] comult": (
        "C[S3]",
        lambda A: A.comult[3].append((0, 0, Fraction(1))),
        {
            "coassociativity": "basis 3",
            "counit law": "basis 3",
            "antipode law": "basis 3",
            "left invariance": "basis 3",
            "right invariance": "basis 3",
            "coproduct *-homomorphism": "basis 3",
        },
    ),
    "C[S3] antipode": (
        "C[S3]",
        lambda A: A.antipode[4].__setitem__(4, Fraction(1)),
        {"antipode law": "basis 4", "S*S* = id": "basis 3"},
    ),
    "H4 mult": (
        "H4",
        lambda A: A.mult[2][2].__setitem__(0, Fraction(1)),  # x^2 = 1
        {"associativity": "basis (1,2,2)"},
    ),
    "H4 comult": (
        "H4",
        lambda A: A.comult[2].append((0, 0, Fraction(1))),
        {
            "coassociativity": "basis 2",
            "counit law": "basis 2",
            "antipode law": "basis 2",
            "coproduct *-homomorphism": "basis 2",
        },
    ),
    "H4 antipode": (
        "H4",
        lambda A: A.antipode[2].__setitem__(2, Fraction(1)),
        {"antipode law": "basis 2", "S*S* = id": "basis 2"},
    ),
    # two coproduct terms that cancel: every identity still holds
    "comult cancelling": (
        "Fun(S3)",
        lambda A: A.comult[3].extend([(1, 2, Fraction(1)), (1, 2, Fraction(-1))]),
        {},
    ),
}


@pytest.mark.parametrize("family", CORRUPTIONS)
def test_corruption_reports_first_witness(family):
    name, corrupt, failing = CORRUPTIONS[family]
    A = dict(fixtures.standard_fixtures())[name]
    corrupt(A)
    got = [(r.case, r.status, r.witness) for r in core.verify_axioms(A)]
    want = [(c, "fail", failing[c]) if c in failing else (c, "pass", None) for c in AXIOM_CASES]
    assert got == want


def test_cancelling_terms_compare_equal_to_absent_entries():
    name, corrupt, _ = CORRUPTIONS["comult cancelling"]
    A = dict(fixtures.standard_fixtures())[name]
    corrupt(A)
    (lhs, rhs) = next((l, r) for w, l, r in core._coassociativity(A) if w == "basis 3")
    cancelled = [key for key, c in lhs.items() if c == 0 and key not in rhs]
    assert cancelled and core._tensors_eq(EXACT, lhs, rhs) and core._tensors_eq(EXACT, rhs, lhs)
    assert core._tensors_eq(FLOAT, {(0, 1): 0j}, {}) and core._tensors_eq(EXACT, {}, {(0, 1): Fraction(0)})
    assert not core._tensors_eq(EXACT, {(0, 1): Fraction(1)}, {})


def _dense_mul_coords(A, x, y):
    """The dense triple loop over mult that the nonzero index replaced."""
    d = A.dim
    out = [A.zero_scalar()] * d
    for i in range(d):
        if A.backend.is_zero(x[i]):
            continue
        for j in range(d):
            if A.backend.is_zero(y[j]):
                continue
            f = x[i] * y[j]
            row = A.mult[i][j]
            for k in range(d):
                if not A.backend.is_zero(row[k]):
                    out[k] = out[k] + f * row[k]
    return out


def _dense_gram(A, integral):
    d = A.dim
    return [[sum(c * v for c, v in zip(A.mult[i][j], integral)) for j in range(d)] for i in range(d)]


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_products_match_the_dense_reference(backend):
    # exact results are equal values; float results are bit-identical, since
    # the terms are added in the same order
    def same(got, want):
        if backend.exact:
            return got == want
        return [repr(v) for v in got] == [repr(v) for v in want]

    rng = random.Random(5)

    def scalar():
        if rng.random() < 0.3:
            return 0
        if backend.exact:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    for name, A in fixtures.standard_fixtures(backend):
        for B in (A, core.build_dual(A).dual):
            gram_phi, gram_psi = B.gram_phi(), B.gram_psi()
            assert all(same(g, w) for g, w in zip(gram_phi, _dense_gram(B, B.left_integral))), B.name
            assert all(same(g, w) for g, w in zip(gram_psi, _dense_gram(B, B.right_integral))), B.name
            for _ in range(10):
                x = B.element([scalar() for _ in range(B.dim)]).coords
                y = B.element([scalar() for _ in range(B.dim)]).coords
                assert same(B.mul_coords(x, y), _dense_mul_coords(B, x, y)), B.name


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


@pytest.mark.parametrize("name", ["H4", "C[S3]"])
def test_dual_on_dense_gram_matrix(name):
    # every standard fixture's Gram matrix is a permutation or diagonal
    # matrix; on the basis b_x = a_x + sum_i a_i every entry is nonzero
    base = dict(FIXTURES)[name]
    d = base.dim
    A = core.transport(base, [[2 if x == i else 1 for i in range(d)] for x in range(d)])
    assert all(x != 0 for row in A.gram_phi() for x in row)
    d1 = core.build_dual(A)
    assert passed(core.verify_axioms(d1.dual))
    d2 = core.build_dual(d1.dual)
    # a_k -> evaluation at a_k has bidual coordinates M = P (P_hat^T)^-1
    M = linalg.mat_mul(d1.pairing, linalg.inverse(linalg.transpose(d2.pairing)))
    assert core.tensors_equal(core.transport(d2.dual, M), A)


def test_dual_refuses_missing_unit_and_unfaithful_integrals():
    def fun_s3(**changes):
        A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("S3"))
        for attr, value in changes.items():
            setattr(A, attr, value)
        return A

    with pytest.raises(core.StructureError, match="needs a unit"):
        core.build_dual(fun_s3(unit=None))
    with pytest.raises(core.FaithfulnessError, match="left integral"):
        core.build_dual(fun_s3(left_integral=[Fraction(0)] * 6))
    with pytest.raises(core.FaithfulnessError, match="right integral"):
        core.build_dual(fun_s3(right_integral=[Fraction(0)] * 6))


def test_tensor_comparison_needs_equal_lengths():
    assert not core._tensors_eq(EXACT, [1, 2], [1])
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z2"))
    B = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z2"))
    assert core.tensors_equal(A, B)
    B.counit.append(Fraction(0))
    assert not core.tensors_equal(A, B)


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
    assert not core.is_group_like_projection(A, A.element([0] * A.dim))
    w = core.fourier_group_like(A, full)
    assert not w.is_zero()
    # a singleton coset off the identity is idempotent but not group-like
    with pytest.raises(core.StructureError):
        core.fourier_group_like(A, A.basis_element(1))


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_grouplike_suite_builds_one_dual_and_checks_each_element_once(monkeypatch, backend):
    built, checked = [], []
    build_dual, group_like_failures = core.build_dual, core.group_like_failures
    monkeypatch.setattr(core, "build_dual", lambda A: built.append(A) or build_dual(A))
    monkeypatch.setattr(core, "group_like_failures", lambda A, h: checked.append(A) or group_like_failures(A, h))
    assert passed(suites.suite_grouplike(backend, primes=()))
    # Fun(S3): six subgroup indicators, the singleton and h = 1, each checked
    # once; and the transform of each subgroup indicator in the dual
    assert len(built) == 1 and checked.count(built[0]) == 8 and len(checked) == 14


def test_dual_group_like_failures_name_the_identity():
    A = dict(FIXTURES)["Fun(S3)"]
    dual = core.build_dual(A).dual
    # a singleton off the identity is a projection of A, but its transform
    # is not group-like in the dual
    assert list(core.dual_group_like_failures(A, dual, A.basis_element(1))) == [
        "F(h) in the dual: h^2 != h",
        "F(h) in the dual: coproduct(h)(1 (x) h) differs from h (x) h in row 1",
    ]
    assert list(core.dual_group_like_failures(A, dual, A.element([0] * A.dim))) == ["phi(h) = 0"]
    assert list(core.dual_group_like_failures(A, dual, A.one())) == []


def test_float_backend_round_trip():
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z4"), FLOAT)
    rng = random.Random(11)
    for _ in range(10):
        a = A.element([complex(rng.randint(-3, 3)) for _ in range(4)])
        back = core.inverse_fourier(A, core.fourier(A, a))
        assert all(abs(x - y) <= 1e-9 for x, y in zip(back.coords, a.coords))


# -- one Gram inverse per group ----------------------------------------------
#
# The references below are the formulas the cached Gram inverse replaced: an
# exact solve against P on every inverse transform and psi_hat, and the d-term
# sums recomputed inside the comultiplication loop of both convolutions.


def _mat_vec_fourier(A, a):
    return linalg.mat_vec(A.gram_phi(), a.coords)


def _solve_inverse_fourier(A, w):
    return linalg.solve(A.gram_phi(), w.values, A.backend)


def _solve_psi_hat(A, w):
    return A.counit_of(_solve_inverse_fourier(A, w))


def _in_loop_convolve(A, a, b):
    d = A.dim
    Pa = linalg.mat_vec(A.gram_phi(), a.coords)
    Sinv = A.antipode_inv_matrix()
    out = [A.zero_scalar()] * d
    for i, bi in enumerate(b.coords):
        if A.backend.is_zero(bi):
            continue
        for j, k, c in A.comult[i]:
            scal = sum(Sinv[j][m] * Pa[m] for m in range(d))
            out[k] = out[k] + bi * c * scal
    return out


def _in_loop_convolve_alt(A, a, b):
    d = A.dim
    sb = A.antipode_inv_coords(b.coords)
    P = A.gram_phi()
    out = [A.zero_scalar()] * d
    for i, ai in enumerate(a.coords):
        if A.backend.is_zero(ai):
            continue
        for j, k, c in A.comult[i]:
            scal = sum(sb[m] * P[m][k] for m in range(d))
            out[j] = out[j] + ai * c * scal
    return out


_CYCLOTOMIC_INTEGRAL = 1 + 2 * zeta(729) - 3 * zeta(729, 5) + Fraction(1, 2) * zeta(729, 7)


def _gram_fixtures(backend):
    """Every standard fixture, H4 and C[S3] on a basis whose Gram matrix has
    no zero entry, and the one-dimensional group whose integrals are the
    cyclotomic value above at order 729."""
    out = fixtures.standard_fixtures(backend)
    for name, A in list(out):
        if name in ("H4", "C[S3]"):
            d = A.dim
            out.append((name + " dense", core.transport(A, [[2 if x == i else 1 for i in range(d)] for x in range(d)])))
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("trivial"), backend)
    A.left_integral = A.right_integral = [backend.normalize(_CYCLOTOMIC_INTEGRAL)]
    out.append(("cyclotomic", A))
    return out


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_gram_inverse_matches_the_per_call_references(backend):
    # exact values agree in their representation too: the same order and the
    # same terms; float values agree within the tolerance
    def same(got, want):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            if not backend.exact:
                assert abs(x - y) <= backend.tolerance * max(1, abs(y)), (x, y)
            elif isinstance(y, Cyclotomic):
                assert isinstance(x, Cyclotomic) and (x.order, x.terms) == (y.order, y.terms), (x, y)
            else:
                assert type(x) is type(y) and x == y, (x, y)
        return True

    rng = random.Random(14)

    def scalar(cyclotomic):
        if rng.random() < 0.3:
            return 0
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return q * zeta(729, rng.randrange(729)) + 1 if cyclotomic else q

    for name, A in _gram_fixtures(backend):
        for _ in range(6):
            a, b = (A.element([scalar(name == "cyclotomic") for _ in range(A.dim)]) for _ in range(2))
            w = core.fourier(A, a)
            assert same(w.values, _mat_vec_fourier(A, a)), name
            for v in (w, A.functional(b.coords)):
                assert same(core.inverse_fourier(A, v).coords, _solve_inverse_fourier(A, v)), name
                assert same([core.psi_hat(A, v)], [_solve_psi_hat(A, v)]), name
            assert same(core.convolve(A, a, b).coords, _in_loop_convolve(A, a, b)), name
            assert same(core.convolve_alt(A, a, b).coords, _in_loop_convolve_alt(A, a, b)), name


def test_a_group_eliminates_each_gram_matrix_once(monkeypatch):
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda m, backend: calls.append(len(m)) or echelon(m, backend))
    Z4 = fixtures.FiniteGroupTable.cyclic(4)
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.product(Z4, Z4))
    rng = random.Random(16)
    elements = [A.element([rng.randint(-3, 3) for _ in range(A.dim)]) for _ in range(100)]
    core.psi_hat(A, core.fourier(A, elements[0]))  # first use: P^-1, once
    assert len(calls) == 1
    calls.clear()
    for a in elements:
        w = core.fourier(A, a)
        assert core.inverse_fourier(A, w) == a
        core.psi_hat(A, w)
    assert calls == []
    # a cold request: the two faithfulness cases invert P and Q, and the dual
    # reuses both inverses (the per-call code eliminated 5 times)
    B = exchange.qgroup_from_obj(exchange.qgroup_to_obj(A))
    assert passed(core.verify_axioms(B))
    core.build_dual(B)
    assert calls == [16, 16]



def test_biduality_reuses_the_cached_gram_inverses(monkeypatch):
    calls = []
    inverse = linalg.inverse
    monkeypatch.setattr(linalg, "inverse", lambda m, backend=EXACT: calls.append(len(m)) or inverse(m, backend))
    for name, A in fixtures.standard_fixtures(EXACT):
        calls.clear()
        assert list(suites._biduality_failures(A)) == [], name
        # the two build_dual calls invert the Gram matrices of A and of its
        # dual once each; M and M^-1 are products of those inverses
        assert calls == [A.dim] * 4, name
