"""Property suites: every identity the package promises, as CheckReports.

These drive both the CLI ``check`` command and the acceptance tests.  All
randomness is seeded; exact-backend checks use exact equality, the float
backend compares within its tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from itertools import product

from . import core, fixtures, laurent, linalg, padic
from .report import check
from .scalars import EXACT, FLOAT, Backend, zeta


def _random_element(A, rng):
    return A.element([A.backend.random_scalar(rng) for _ in range(A.dim)])


def _sweep_elements(A, rng, n_random=100):
    for i in range(A.dim):
        yield A.basis_element(i)
    for _ in range(n_random):
        yield _random_element(A, rng)


# ---------------------------------------------------------------------------


def _sub_failures(run, *args):
    """A witness "<case>: <witness>" per failing report of run(*args), run lazily."""
    for r in run(*args):
        if not r.ok:
            yield "%s: %s" % (r.case, r.witness)


def suite_axioms(backend: Backend = EXACT, seed: int = 0) -> list:
    return [
        check("axioms", name, _sub_failures(core.verify_axioms, A)) for name, A in fixtures.standard_fixtures(backend)
    ]


def suite_inversion(backend: Backend = EXACT, seed: int = 0, n_random: int = 100) -> list:
    reports = []
    for name, A in fixtures.standard_fixtures(backend):
        rng = random.Random((seed, name).__repr__())
        failures = (
            "element %r" % (a.coords,)
            for a in _sweep_elements(A, rng, n_random)
            if not core.inverse_fourier(A, core.fourier(A, a)) == a
        )
        reports.append(check("inversion", name, failures))
    return reports


def suite_lemma_inverse(backend: Backend = EXACT, seed: int = 0) -> list:
    """psi_hat(w' F(a)) = w'(S^{-1}(a)) on all basis pairs."""
    return [
        check("inversion-lemma", name, _lemma_inverse_failures(A))
        for name, A in fixtures.standard_fixtures(backend)
    ]


def _lemma_inverse_failures(A):
    for i in range(A.dim):
        wprime = core.fourier(A, A.basis_element(i))
        for j in range(A.dim):
            a = A.basis_element(j)
            lhs = core.psi_hat(A, wprime * core.fourier(A, a))
            rhs = wprime.of_coords(A.antipode_inv_coords(a.coords))
            if not A.backend.is_zero(lhs - rhs):
                yield "basis pair (%d,%d)" % (i, j)


def suite_convolution(backend: Backend = EXACT, seed: int = 0, n_padic_pairs: int = 50) -> list:
    reports = [
        check("convolution", name, _convolution_failures(A))
        for name, A in fixtures.standard_fixtures(backend)
    ]

    # classical oracle on function algebras: (a*b)(t) = sum_s a(s) b(s^-1 t)
    for gname in ("Z2", "Z3", "S3"):
        rng = random.Random((seed, "conv", gname).__repr__())
        failures = _classical_convolution_failures(gname, rng, backend)
        reports.append(check("convolution", "classical-oracle:" + gname, failures))

    # p-adic convolution theorem
    for p in (2, 3):
        rng = random.Random((seed, "padic-conv", p).__repr__())
        failures = _padic_convolution_failures(p, rng, backend, n_padic_pairs // 2)
        reports.append(check("convolution", "padic:p=%d" % p, failures))
    return reports


def _convolution_failures(A):
    for i in range(A.dim):
        for j in range(A.dim):
            a, b = A.basis_element(i), A.basis_element(j)
            c1 = core.convolve(A, a, b)
            if not c1 == core.convolve_alt(A, a, b):
                yield "formulas disagree at (%d,%d)" % (i, j)
            elif not core.fourier(A, c1) == core.fourier(A, a) * core.fourier(A, b):
                yield "convolution theorem fails at (%d,%d)" % (i, j)


def _classical_convolution_failures(gname, rng, backend):
    G = fixtures.FiniteGroupTable.builtin(gname)
    A = fixtures.function_algebra(G, backend)
    for _ in range(20):
        a, b = _random_element(A, rng), _random_element(A, rng)
        want = [
            sum(a.coords[s] * b.coords[G.cayley[G.inverse[s]][t]] for s in range(G.order))
            for t in range(G.order)
        ]
        if not core.convolve(A, a, b) == A.element(want):
            yield "random pair %r, %r on %s" % (a.coords, b.coords, gname)


def _padic_convolution_failures(p, rng, backend, n_pairs):
    for i in range(n_pairs):
        f = padic.random_schwartz(p, rng, backend)
        g = padic.random_schwartz(p, rng, backend)
        lhs = padic.padic_fourier(padic.schwartz_convolve(f, g))
        rhs = padic.schwartz_mul(padic.padic_fourier(f), padic.padic_fourier(g))
        if not lhs == rhs:
            yield "draw %d: f=%r, g=%r" % (i, f, g)


def suite_plancherel(backend: Backend = EXACT, seed: int = 0, n_random: int = 100, tolerance: float = 1e-9) -> list:
    reports = []
    for name, A in fixtures.standard_fixtures(backend):
        if not A.is_star:
            continue
        positive = name != "H4"  # the non-unimodular fixture has no positive integral
        rng = random.Random((seed, "plancherel", name).__repr__())
        elements = _sweep_elements(A, rng, n_random)
        reports.append(check("plancherel", name, _plancherel_failures(A, elements, positive, tolerance)))

    # p-adic Plancherel with the self-dual Haar normalization
    for p in (2, 3):
        rng = random.Random((seed, "padic-plancherel", p).__repr__())
        reports.append(check("plancherel", "padic:p=%d" % p, _padic_plancherel_failures(p, rng, backend)))
    return reports


def _plancherel_failures(A, elements, positive, tolerance):
    for a in elements:
        for witness in _sub_failures(core.plancherel_check, A, a, positive, tolerance):
            yield "element %r, %s" % (a.coords, witness)


def _padic_plancherel_failures(p, rng, backend):
    for i in range(25):
        f = padic.random_schwartz(p, rng, backend)
        fh = padic.padic_fourier(f)
        lhs = padic.haar_integral(padic.schwartz_mul(fh, fh.conjugate()))
        rhs = padic.haar_integral(padic.schwartz_mul(f, f.conjugate()))
        if not f.backend.is_zero(lhs - rhs):
            yield "draw %d: f=%r" % (i, f)


def suite_biduality(backend: Backend = EXACT, seed: int = 0) -> list:
    return [check("biduality", name, _biduality_failures(A)) for name, A in fixtures.standard_fixtures(backend)]


def _biduality_failures(A):
    d1 = core.build_dual(A)
    d2 = core.build_dual(d1.dual)
    # canonical identification: a_k -> evaluation functional on the dual;
    # its coordinates in the bidual basis are M = P (P_hat^T)^{-1}
    M = linalg.mat_mul(d1.pairing, linalg.inverse(linalg.transpose(d2.pairing), A.backend))
    yield from core.tensor_differences(core.transport(d2.dual, M), A)


def suite_types(backend: Backend = EXACT, seed: int = 0) -> list:
    reports = []
    for gname in ("Z2", "Z3", "Z4", "Z2xZ2", "S3"):
        G = fixtures.FiniteGroupTable.builtin(gname)

        A = fixtures.function_algebra(G, backend)
        want = A.element([1 if g == G.identity else 0 for g in range(G.order)])
        reports.append(check("types", "cointegral Fun(%s) = span(delta_e)" % gname, _cointegral_failures(A, want)))

        B = fixtures.group_algebra(G, backend)
        want = B.element([1] * G.order)
        reports.append(check("types", "cointegral C[%s] = span(sum lambda_g)" % gname, _cointegral_failures(B, want)))

        for name, Q in (("Fun(%s)" % gname, A), ("C[%s]" % gname, B)):
            reports.append(check("types", "%s is compact and discrete" % name, _type_failures(Q)))
            reports.append(check("types", "dual-type:%s" % name, _sub_failures(core.dual_type_check, Q)))
    reports.extend(laurent.laurent_type_certificates(backend))
    return reports


def _cointegral_failures(A, want):
    coints = [c.coords for c in core.find_cointegral(A)]
    # one cointegral, and it and the nonzero want are linearly dependent
    if len(coints) != 1 or not linalg.nullspace([list(x) for x in zip(coints[0], want.coords)], A.backend):
        yield "cointegrals %r" % (coints,)


def _type_failures(A):
    t = core.classify_type(A)
    if not (t["compact"] and t["discrete"]):
        yield "type %r" % (t,)


def suite_grouplike(backend: Backend = EXACT, seed: int = 0, primes=(2, 3, 5, 7)) -> list:
    reports = []
    G = fixtures.FiniteGroupTable.builtin("S3")
    A = fixtures.function_algebra(G, backend)
    subs = fixtures.subgroups_of(G)
    orders = sorted({len(s) for s in subs})
    failures = [] if orders == [1, 2, 3, 6] else ["orders %r" % orders]
    reports.append(check("grouplike", "S3 has subgroups of orders 1,2,3,6", failures))
    dual = cache(lambda: core.build_dual(A).dual)  # built by the first case that needs it
    for s in subs:
        case = "subgroup of order %d (indices %s)" % (len(s), list(s))
        reports.append(check("grouplike", case, _subgroup_failures(A, dual, G, s)))
    # a non-subgroup coset: {g} for g != e is idempotent but not group-like
    g = next(i for i in range(G.order) if i != G.identity)
    reports.append(check("grouplike", "non-subgroup singleton fails", _singleton_failures(A, G, g)))
    # the unit is group-like
    reports.append(check("grouplike", "h = 1 passes", core.group_like_failures(A, A.one())))

    for p in primes:
        failures = _sub_failures(padic.padic_group_like_suite, p, range(-3, 4), backend)
        reports.append(check("grouplike", "padic suite p=%d, n in [-3,3]" % p, failures))
    return reports


def _subgroup_failures(A, dual, G, s):
    h = fixtures.subgroup_indicator(A, G, s)
    yield from core.group_like_failures(A, h)
    yield from core.dual_group_like_failures(A, dual(), h)


def _singleton_failures(A, G, g):
    if core.is_group_like_projection(A, fixtures.subgroup_indicator(A, G, [g])):
        yield "the indicator of {%d} is group-like" % g


def suite_padic(backend: Backend = EXACT, seed: int = 0, primes=(2, 3, 5, 7)) -> list:
    # golden identity: F(h_n) = p^-n h_-n exactly
    reports = [
        check("padic", "F(h_n) = p^-n h_-n, p=%d" % p, _golden_failures(p, backend)) for p in primes
    ]

    # Haar: measure of p^n Zp is p^-n; translation invariance; linearity
    for p in (2, 5):
        rng = random.Random((seed, "haar", p).__repr__())
        reports.append(check("padic", "Haar normalization and invariance, p=%d" % p, _haar_failures(p, rng, backend)))

    # double transform is reflection: F(F(f)) = f(-x)
    for p in (2, 3):
        rng = random.Random((seed, "reflect", p).__repr__())
        reports.append(check("padic", "double transform reflects, p=%d" % p, _reflection_failures(p, rng, backend)))

    reports.extend(suite_laurent(backend))
    return reports


def _golden_failures(p, backend):
    for n in range(-3, 4):
        got = padic.padic_fourier(padic.subgroup_indicator(p, n, backend))
        want = padic.schwartz_scale(
            Fraction(p) ** (-n) if backend.exact else float(Fraction(p) ** (-n)),
            padic.subgroup_indicator(p, -n, backend),
        )
        if not got == want:
            yield "n=%d" % n


def _haar_failures(p, rng, backend):
    for n in range(-3, 4):
        measure = padic.haar_integral(padic.subgroup_indicator(p, n, backend))
        if not measure == (Fraction(p) ** (-n) if backend.exact else complex(Fraction(p) ** (-n))):
            yield "measure of %d^%d Zp" % (p, n)
    for i in range(10):
        f = padic.random_schwartz(p, rng, backend)
        shift = Fraction(rng.randint(0, p**2 - 1), p ** rng.randint(0, 2))
        if not f.backend.is_zero(padic.haar_integral(f.translated(shift)) - padic.haar_integral(f)):
            yield "draw %d: f=%r translated by %s" % (i, f, shift)


def _reflection_failures(p, rng, backend):
    for _ in range(10):
        m = rng.randint(-2, 2)
        c = Fraction(rng.randint(0, p**3 - 1), p ** rng.randint(0, 2))
        cell = padic.indicator(padic.Ball.make(p, m, c), backend)
        got = padic.padic_fourier(padic.padic_fourier(cell))
        want = padic.indicator(padic.Ball.make(p, m, -c), backend)
        if not got == want:
            yield "cell %s + %d^%d Zp" % (c, p, m)


def suite_laurent(backend: Backend = EXACT) -> list:
    e = partial(laurent.basis, laurent.CZ, backend=backend)
    delta = partial(laurent.basis, laurent.KZ, backend=backend)
    window = range(-5, 6)
    return [
        check(
            "laurent",
            "F(e_n) = delta_n for |n| <= 10",
            ("n=%d" % n for n in range(-10, 11) if not laurent.pair_fourier(e(n)) == delta(n)),
        ),
        check(
            "laurent",
            "<e_n, f> = f(-n)",
            (
                "(n,m)=(%d,%d)" % (n, m)
                for n, m in product(window, repeat=2)
                if not laurent.pair_pairing(e(n), delta(m)) == backend.normalize(1 if m == -n else 0)
            ),
        ),
        check(
            "laurent",
            "phi(e_m e_n) = [m+n=0]",
            (
                "(m,n)=(%d,%d)" % (m, n)
                for m, n in product(window, repeat=2)
                if not backend.is_zero(
                    laurent.pair_integral(laurent.pair_mult(e(m), e(n))) - backend.normalize(1 if m + n == 0 else 0)
                )
            ),
        ),
        # duality of product and coproduct through the pairing, via slices
        check("laurent", "pairing intertwines products and coproducts", _intertwining_failures(e, delta, backend)),
    ]


def _intertwining_failures(e, delta, backend):
    window = range(-5, 6)
    for n, m in product(window, repeat=2):
        f, g = delta(n), delta(m)
        for a in window:
            # <coproduct(e_a), f (x) g> = f(-a) g(-a)
            if not backend.is_zero(laurent.pair_pairing(e(a), laurent.pair_mult(f, g)) - f(-a) * g(-a)):
                yield "<coproduct(e_%d), delta_%d (x) delta_%d>" % (a, n, m)
        # <e_n (x) e_m, coproduct(f)> = f(-n - m)
        lhs = laurent.pair_pairing(laurent.pair_mult(e(n), e(m)), delta(1))
        if not backend.is_zero(lhs - delta(1)(-n - m)):
            yield "<e_%d (x) e_%d, coproduct(delta_1)>" % (n, m)


def suite_oracle(seed: int = 0, tolerance: float = 1e-6) -> list:
    """Independent oracles: Riemann sums for the p-adic transform (float),
    character sums for the abelian DFT (exact)."""
    reports = []
    for p in (2, 3):
        rng = random.Random((seed, "oracle", p).__repr__())
        reports.append(check("oracle", "padic Riemann sum, p=%d" % p, _riemann_failures(p, rng, tolerance)))

    # abelian character-sum oracle, exact backend
    for gname, chars in _abelian_characters().items():
        rng = random.Random((seed, "dft", gname).__repr__())
        reports.append(check("oracle", "character-sum DFT on %s" % gname, _character_failures(gname, chars, rng)))
    return reports


def _riemann_failures(p, rng, tolerance):
    for i in range(25):
        f = padic.random_schwartz(p, rng, FLOAT)
        fh = padic.padic_fourier(f)
        for y in list(fh.cells.keys())[:6] + [Fraction(1, p**3), Fraction(p**3)]:
            got = fh.evaluate(y)
            want = padic.padic_fourier_oracle_value(f, y)
            if abs(got - want) > tolerance:
                yield "draw %d: f=%r, y=%s got=%r want=%r" % (i, f, y, got, want)


def _character_failures(gname, chars, rng):
    G = fixtures.FiniteGroupTable.builtin(gname)
    A = fixtures.function_algebra(G)
    for _ in range(10):
        a = _random_element(A, rng)
        for k, chi in enumerate(chars):
            got = core.fourier(A, a)(A.element(list(chi)))
            want = sum(chi[g] * a.coords[g] for g in range(G.order))
            if not A.backend.is_zero(got - want):
                yield "element %r, character %d on %s" % (a.coords, k, gname)


def _abelian_characters():
    """Explicit character tables for the abelian builtins."""
    tables = {}
    for n, gname in ((2, "Z2"), (3, "Z3"), (4, "Z4")):
        tables[gname] = [[zeta(n, j * k) for j in range(n)] for k in range(n)]
    z2 = [[zeta(2, j * k) for j in range(2)] for k in range(2)]
    tables["Z2xZ2"] = [
        [c1[a] * c2[b] for a in range(2) for b in range(2)] for c1 in z2 for c2 in z2
    ]
    return tables


def suite_duality_structure(backend: Backend = EXACT, seed: int = 0) -> list:
    """build_dual(group_algebra(G)) matches function_algebra(G) on the basis
    matching lambda-dual(g) <-> delta_{g^-1}."""
    reports = [
        check("duality", "dual(C[%s]) = Fun(%s)" % (g, g), _group_algebra_dual_failures(g, backend))
        for g in ("Z2", "Z3", "Z4", "Z2xZ2", "S3")
    ]
    # the Sweedler fixture has a nontrivial grouplike modular element
    H = fixtures.sweedler_fixture(backend)
    reports.append(check("duality", "H4 modular element is grouplike and != 1", _sweedler_modular_failures(H)))
    for gname in ("Z3", "S3"):
        G = fixtures.FiniteGroupTable.builtin(gname)
        for A in (fixtures.function_algebra(G, backend), fixtures.group_algebra(G, backend)):
            reports.append(check("duality", "%s is unimodular" % A.name, _unimodular_failures(A)))
    return reports


def _group_algebra_dual_failures(gname, backend):
    G = fixtures.FiniteGroupTable.builtin(gname)
    dual = core.build_dual(fixtures.group_algebra(G, backend)).dual
    # delta_g corresponds to the dual basis vector at index g^-1
    M = [[backend.normalize(1 if i == G.inverse[g] else 0) for i in range(G.order)] for g in range(G.order)]
    yield from core.tensor_differences(core.transport(dual, M), fixtures.function_algebra(G, backend))


def _sweedler_modular_failures(H):
    delta = core.modular_element(H)
    if delta == H.one():
        yield "delta = 1"
    square = [[a * b for b in delta.coords] for a in delta.coords]
    if not core._tensors_eq(H.backend, H.comult_dense(delta.coords), square):
        yield "coproduct(delta) != delta (x) delta"


def _unimodular_failures(A):
    delta = core.modular_element(A)
    if not delta == A.one():
        yield "delta = %r" % (delta.coords,)


SUITES = {
    "axioms": suite_axioms,
    "inversion": suite_inversion,
    "inversion-lemma": suite_lemma_inverse,
    "convolution": suite_convolution,
    "plancherel": suite_plancherel,
    "biduality": suite_biduality,
    "types": suite_types,
    "grouplike": suite_grouplike,
    "padic": suite_padic,
    "oracle": suite_oracle,
    "duality": suite_duality_structure,
}


def run_suites(names, backend: Backend = EXACT, seed: int = 0, primes=None) -> list:
    reports = []
    for name in names:
        fn = SUITES[name]
        kwargs = {"seed": seed}
        if name != "oracle":
            kwargs["backend"] = backend
        if primes and name in ("padic", "grouplike"):
            kwargs["primes"] = tuple(primes)
        reports.extend(fn(**kwargs))
    return reports
