"""Exact p-adic numbers, Schwartz functions, Haar integration and the
transform."""

import cmath
import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgfourier import exchange, padic, suites
from qgfourier.report import passed
from qgfourier.scalars import EXACT, FLOAT, Cyclotomic, zeta


# -- literals and numbers ----------------------------------------------------


def test_parse_terms():
    x = padic.parse_padic("1*5^-2+3", 5)
    assert x == Fraction(1, 25) + 3 and isinstance(x, Fraction)
    assert padic.parse_padic("0", 7) == 0


def test_parse_digit_string():
    # base-2 digit string, most significant first, radix point
    x = padic.parse_padic("101.01", 2)
    assert x == Fraction(5) + Fraction(1, 4)


def test_parse_errors_carry_positions():
    with pytest.raises(padic.ParseError):
        padic.parse_padic("7*5^1", 5)  # digit out of range
    with pytest.raises(padic.ParseError):
        padic.parse_padic("1*3^2", 5)  # base mismatch
    with pytest.raises(padic.ParseError):
        padic.parse_padic("banana", 5)
    err = None
    try:
        padic.parse_padic("1*5^1 + banana", 5)
    except padic.ParseError as exc:
        err = exc
    assert err is not None and err.position >= 0
    for text, position in (("1*5^1 + 1*5^1", 7), ("19.3", 1), ("2.05", 3), ("1*5^2 +9", 7)):
        with pytest.raises(padic.ParseError) as info:
            padic.parse_padic(text, 5)
        assert info.value.position == position, text


def test_format_round_trip():
    for text in ("0", "3", "1*5^-2 + 3", "2*5^1 + 4*5^3"):
        x = padic.parse_padic(text, 5)
        assert padic.format_padic(x, 5) == text
        assert padic.parse_padic(padic.format_padic(x, 5), 5) == x


def test_fraction_round_trip():
    assert padic.format_padic(Fraction(22, 9), 3) == "1*3^-2 + 1*3^-1 + 2"
    assert padic.parse_padic(padic.format_padic(Fraction(22, 9), 3), 3) == Fraction(22, 9)
    with pytest.raises(padic.PAdicError, match="not a power of 3"):
        padic.format_padic(Fraction(1, 2), 3)
    with pytest.raises(padic.PAdicError, match="nonnegative"):
        padic.format_padic(-1, 3)


def test_arithmetic_and_negation():
    p = 5
    x = padic.parse_padic("4 + 3*5^1", p)
    y = padic.parse_padic("2*5^1", p)
    assert padic.format_padic(x + y, p) == "4 + 1*5^2"
    assert padic.format_padic(x * y, p) == "3*5^1 + 2*5^2 + 1*5^3"
    # -x has no finite expansion; reduced modulo p^4 it is p^4 - x
    neg = padic.Ball.make(p, 4, -x).center
    assert padic.format_padic(neg, p) == "1 + 1*5^1 + 4*5^2 + 4*5^3"
    assert padic._mod_power(neg + x, p, 4) == 0


def test_valuation_and_norm():
    x = padic.parse_padic("1*5^-2+3", 5)
    assert padic.fraction_valuation(x, 5) == -2
    assert Fraction(5) ** -padic.fraction_valuation(x, 5) == 25
    assert padic.fraction_valuation(Fraction(0), 5) == inf
    assert padic.fraction_valuation(Fraction(18), 3) == 2
    assert padic.fraction_valuation(Fraction(1, 9), 3) == -2


@pytest.mark.parametrize("p", [1, 0, -3])
def test_valuation_refuses_p_below_2(p):
    with pytest.raises(padic.PAdicError):
        padic.fraction_valuation(Fraction(1, 2), p)
    with pytest.raises(padic.PAdicError):
        padic.character(Fraction(1, 2), p)


def test_character_values():
    p = 2
    half = padic.parse_padic("1*2^-1", p)
    one = padic.parse_padic("1", p)
    assert padic.character(half * one, p) == zeta(2)  # exp(2 pi i / 2) = -1
    assert padic.character(one * one, p) == Fraction(1)  # integer product, trivial
    q = padic.parse_padic("1*3^-2", 3)
    assert padic.character(q * padic.parse_padic("2", 3), 3) == zeta(9, 2)
    with pytest.raises(padic.PAdicError):
        padic.character(Fraction(1, 3), 2)  # not in Z[1/2]


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
def test_denominators_with_another_prime_are_refused(be):
    # 6 and 12 are divisible by 2 but are not powers of 2
    for q in (Fraction(1, 6), Fraction(5, 12), Fraction(7, 3 * 2**5)):
        with pytest.raises(padic.PAdicError, match=r"not in Z\[1/2\]"):
            padic.character(q, 2, be)
    with pytest.raises(padic.PAdicError, match=r"not in Z\[1/2\]"):
        padic.SchwartzFunction(2, 0, {Fraction(1, 3): 1}, be)
    with pytest.raises(padic.PAdicError, match=r"not in Z\[1/3\]"):
        padic.SchwartzFunction(3, -1, {0: 1, Fraction(1, 6): 1}, be)
    assert padic.SchwartzFunction(2, 1, {Fraction(5, 2): 1, 3: 2}, be).cells == {
        Fraction(1, 2): be.normalize(1), 1: be.normalize(2)}
    # 1/3 is a 2-adic integer, so a key lookup mod 2^0 would answer 0 for it
    for point in (Fraction(1, 3), Fraction(5, 6)):
        with pytest.raises(padic.PAdicError, match=r"point %s is not in Z\[1/2\]" % point):
            padic.subgroup_indicator(2, 0, be).evaluate(point)
        with pytest.raises(padic.PAdicError, match=r"center %s is not in Z\[1/2\]" % point):
            padic.indicator(padic.Ball.make(2, 0, point), be)
    assert padic.subgroup_indicator(2, 0, be).evaluate(Fraction(3, 4)) == be.normalize(0)


def test_fractional_part():
    # only the negative-exponent digits reach the character
    x = padic.parse_padic("2*3^-2 + 1*3^-1 + 2 + 1*3^1", 3)
    assert x % 1 == Fraction(2, 9) + Fraction(1, 3)
    assert padic.character(x, 3) == padic.character(padic.parse_padic("2*3^-2 + 1*3^-1", 3), 3) == zeta(9, 5)


@pytest.mark.parametrize("text", ["1*2^4097", "1*2^-4097", "1" + "0" * 4097, "0." + "0" * 4096 + "1"])
def test_exponents_beyond_max_exponent_are_refused(text):
    with pytest.raises(padic.ParseError, match="MAX_EXPONENT"):
        padic.parse_padic(text, 2)


def reference_from_fraction(p, q):
    """The digit map of the removed PAdic.from_fraction."""
    q = Fraction(q)
    if q < 0:
        raise padic.PAdicError("finite expansions are nonnegative; negate modulo p^M instead")
    k = 0
    while q.denominator % p == 0:
        q *= p
        k += 1
    if q.denominator != 1:
        raise padic.PAdicError("denominator is not a power of %d" % p)
    n = q.numerator
    digits = {}
    j = -k
    while n:
        n, d = divmod(n, p)
        if d:
            digits[j] = d
        j += 1
    return digits


def reference_format(p, digits):
    """The removed format_padic, over a digit map."""
    if not digits:
        return "0"
    return " + ".join(str(d) if j == 0 else "%d*%d^%d" % (d, p, j) for j, d in sorted(digits.items()))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), a=st.integers(0, 10**12) | st.integers(0, 2**4097 - 1), k=st.integers(0, 12))
@example(p=2, a=2**4097 - 1, k=0)  # 4,097 digits, none of them zero, up to MAX_EXPONENT
@example(p=7, a=6 * 7**4096 + 7**2048 + 5, k=12)  # 4,097 digits from 7^-12
def test_format_matches_the_digit_reference(p, a, k):
    q = Fraction(a, p**k)
    text = padic.format_padic(q, p)
    assert text == reference_format(p, reference_from_fraction(p, q))
    assert padic.parse_padic(text, p) == q


# -- balls and Schwartz functions --------------------------------------------


def test_ball_parse_and_contains():
    b = padic.parse_ball("1 + 2^1*Zp", 2)
    assert b.level == 1 and b.center == 1
    assert b == padic.Ball.make(2, 1, 3) != padic.Ball.make(2, 1, 2)
    with pytest.raises(padic.ParseError):
        padic.parse_ball("3^1*Zp", 2)  # base mismatch
    with pytest.raises(padic.ParseError, match="MAX_EXPONENT") as info:
        padic.parse_ball("1 + 2^-4097*Zp", 2)
    assert info.value.position == 6


def test_ball_center_is_reduced():
    b = padic.Ball.make(3, 1, Fraction(7))
    assert b.center == 1  # 7 mod 3
    assert padic.Ball.make(2, -1, Fraction(7, 4)) == padic.Ball.make(2, -1, Fraction(1, 4))
    assert padic.parse_ball("1*2^-2 + 2^-1*Zp", 2) == padic.Ball.make(2, -1, Fraction(7, 4))


def test_equality_by_common_refinement():
    f = padic.subgroup_indicator(3, 0)
    g = f.refined(2)
    assert g.level == 2 and len(g.cells) == 9
    assert f == g
    assert not f == padic.subgroup_indicator(3, 1)


def test_evaluate_and_window():
    f = padic.indicator(padic.Ball.make(2, 1, 1))
    assert f.evaluate(3) == 1
    assert f.evaluate(2) == 0
    assert f.window() == (0, 1)
    assert padic.subgroup_indicator(5, -2).window() == (-2, -2)


def test_haar_integral():
    # measure of p^n Zp is p^-n under measure(Zp) = 1
    assert padic.haar_integral(padic.subgroup_indicator(3, 2)) == Fraction(1, 9)
    assert padic.haar_integral(padic.subgroup_indicator(3, -2)) == 9
    f = padic.SchwartzFunction(3, 1, {0: 2, 1: -1, 2: 5})
    assert padic.haar_integral(f) == Fraction(2 - 1 + 5, 3)
    # translation invariance
    assert padic.haar_integral(f.translated(Fraction(1, 3))) == padic.haar_integral(f)
    # rescaled measure
    assert padic.haar_integral(padic.subgroup_indicator(3, 1), scale=3) == 1


def test_convolution_of_subgroup_indicators():
    for p, n in ((2, 0), (2, 2), (3, -1), (5, 1)):
        hn = padic.subgroup_indicator(p, n)
        got = padic.schwartz_convolve(hn, hn)
        assert got == padic.schwartz_scale(Fraction(p) ** (-n), hn)


def test_transform_of_shifted_cell():
    # F(1_{c + p^m Zp})(y) = conj(chi(c, y)) p^-m on p^-m Zp, zero outside
    p, m, c = 2, 1, Fraction(1)
    f = padic.indicator(padic.Ball.make(p, m, c))
    fh = padic.padic_fourier(f)
    y = Fraction(1, 2)
    expected = padic.character(c * y, p).conjugate() * Fraction(1, 2)
    assert EXACT.is_zero(fh.evaluate(y) - expected)
    assert EXACT.is_zero(fh.evaluate(Fraction(1, 4)))  # outside p^-1 Zp
    assert fh.evaluate(0) == Fraction(1, 2)


def test_double_transform_reflects():
    p = 3
    f = padic.indicator(padic.Ball.make(p, 1, 2))
    got = padic.padic_fourier(padic.padic_fourier(f))
    want = padic.indicator(padic.Ball.make(p, 1, 1))  # -2 = 1 mod 3
    assert got == want


def test_group_like_suite():
    assert padic.is_group_like_schwartz(padic.subgroup_indicator(2, 1))
    coset = padic.indicator(padic.Ball.make(2, 1, 1))
    assert not padic.is_group_like_schwartz(coset)
    reports = padic.padic_group_like_suite(3, range(-2, 3))
    assert all(r.ok for r in reports), [r.case for r in reports if not r.ok]


def reference_group_like_failures(f):
    """_group_like_failures on the Fraction grid, f evaluated at x + y."""
    if f.is_zero():
        yield "f = 0"
        return
    if not padic.schwartz_mul(f, f) == f:
        yield "f^2 != f"
    if not f.conjugate() == f:
        yield "conj(f) != f"
    n, m = f.window()
    step = Fraction(f.p) ** (n - 1)
    points = [t * step for t in range(f.p ** (m - n + 1))]
    for x in points:
        fx = f.evaluate(x)
        for y in points:
            fy = f.evaluate(y)
            if not f.backend.is_zero(f.evaluate(x + y) * fy - fx * fy):
                yield "(x, y) = (%s, %s)" % (x, y)


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_group_like_witnesses_match_the_fraction_grid(p, be):
    u = Fraction(p)
    coset = padic.indicator(padic.Ball.make(p, 1, 1), be)  # 1 + pZp
    assert len(list(reference_group_like_failures(coset))) > 1
    inputs = [padic.subgroup_indicator(p, n, be) for n in (-1, 0, 2)]
    inputs += [padic.padic_fourier(padic.subgroup_indicator(p, 1, be), u)]
    inputs += [
        coset,
        padic.schwartz_scale(2, padic.subgroup_indicator(p, -1, be)),
        padic.SchwartzFunction(p, 1, {0: 1, u**-1: 1}, be),
        padic.SchwartzFunction(p, 0, {0: zeta(4) if be.exact else 1j}, be),
        padic.SchwartzFunction.zero(p, be),
        padic.random_schwartz(p, random.Random(p), be, (-1, 1)),
    ]
    for f in inputs:
        got = list(padic._group_like_failures(f))
        assert got == list(reference_group_like_failures(f)), f


def test_fixed_point_at_n_zero():
    h0 = padic.subgroup_indicator(7, 0)
    assert padic.padic_fourier(h0) == h0


def test_float_oracle_agrees():
    rng = random.Random(5)
    for _ in range(5):
        f = padic.random_schwartz(2, rng, FLOAT)
        fh = padic.padic_fourier(f)
        for y in (Fraction(0), Fraction(1, 4), Fraction(3, 2), Fraction(4)):
            got = fh.evaluate(y)
            want = padic.padic_fourier_oracle_value(f, y)
            assert abs(got - want) < 1e-6


# p = 5 and 7 stay at windows of at most 2 levels: a transform of a
# transform costs cells in times cells out
_LEVELS = {2: (-2, 2), 3: (-2, 2), 5: (-1, 1), 7: (-1, 1)}


@pytest.mark.parametrize("p", sorted(_LEVELS))
def test_float_transform_matches_the_exact_one(p):
    for seed in range(8):
        # the same seeded random function on the exact and the float backend
        f, g = (padic.random_schwartz(p, random.Random(seed), be, _LEVELS[p]) for be in (EXACT, FLOAT))
        for _ in range(2):
            f, g = padic.padic_fourier(f), padic.padic_fourier(g)
            assert g.level == f.level and list(g.cells) == list(f.cells)
            for c, v in f.cells.items():
                assert abs(g.cells[c] - EXACT.to_complex(v)) <= 1e-12, (seed, c)


def _operation_results(p, be):
    rng = random.Random(p)
    f = padic.random_schwartz(p, rng, be, _LEVELS[p])
    g = padic.random_schwartz(p, rng, be, _LEVELS[p])
    cancels = padic.schwartz_scale(-1, f)  # f + (-f) and its convolutions drop every cell
    yield f.refined(f.level + 1)
    yield f.conjugate()
    yield padic.padic_fourier(f)
    for a, b in ((f, g), (f, cancels), (padic.padic_fourier(f), g)):
        yield padic.schwartz_mul(a, b)
        yield padic.schwartz_convolve(a, b)


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("p", sorted(_LEVELS))
def test_operation_results_are_canonical(p, be):
    for r in _operation_results(p, be):
        rebuilt = padic.SchwartzFunction(r.p, r.level, r.cells, r.backend)
        assert list(rebuilt.cells.items()) == list(r.cells.items())
        assert not any(be.is_zero(v) for v in r.cells.values())


def test_float_path_builds_no_cyclotomic(monkeypatch):
    def refuse(*args):
        raise AssertionError("cyclotomic arithmetic on the float path")

    monkeypatch.setattr(padic, "zeta", refuse)
    monkeypatch.setattr(Cyclotomic, "numeric_value", refuse)
    for p in sorted(_LEVELS):
        f = padic.random_schwartz(p, random.Random(p), FLOAT, _LEVELS[p])
        reflected = padic.SchwartzFunction(p, f.level, {-c: v for c, v in f.cells.items()}, FLOAT)
        assert padic.padic_fourier(padic.padic_fourier(f)) == reflected
    reports = suites.suite_padic(FLOAT)
    assert passed(reports), [r.case for r in reports if not r.ok]


def test_operations_on_canonical_cells_reduce_no_key(monkeypatch):
    f = padic.random_schwartz(3, random.Random(1), EXACT, (0, 2))
    g = padic.random_schwartz(3, random.Random(2), EXACT, (-2, 0))
    calls = []
    mod_power = padic._mod_power
    monkeypatch.setattr(padic, "_mod_power", lambda *a: calls.append(a) or mod_power(*a))
    f.refined(f.level + 2)
    f.conjugate()
    padic.schwartz_mul(f, g)
    assert calls == []


# -- the one-pass transform and the integer oracle against the code they
# replaced: one piece per input cell folded in by schwartz_add, and a
# Riemann sum over f.refined with Fraction keys


def reference_add(f, g):
    """The removed schwartz_add."""
    if not f.cells:
        return g
    if not g.cells:
        return f
    lvl = max(f.level, g.level)
    a, b = f.refined(lvl), g.refined(lvl)
    out = dict(a.cells)
    for c, v in b.cells.items():
        out[c] = out.get(c, f.backend.normalize(0)) + v
    return padic._make(f.p, lvl, out, f.backend)


def reference_fourier(f, scale=Fraction(1)):
    """The pieces loop: one cell transforms to a conjugated character times
    the indicator of p^-m Zp, locally constant at level max(-v(c), -m)."""
    p = f.p
    n, m = f.window()
    be = f.backend
    step = Fraction(p) ** (-m)
    measure = be.normalize(Fraction(scale) * step)
    pieces = []
    for c, v in f.cells.items():
        vc = padic.fraction_valuation(c, p)
        L = -m if vc is inf else max(-vc, -m)
        cells = {}
        for t in range(p ** (L + m)):
            y0 = t * step
            cells[y0] = v * (be.conj(padic.character(c * y0, p, be)) * measure)
        pieces.append(padic.SchwartzFunction(p, L, cells, be))
    out = padic.SchwartzFunction.zero(p, be)
    for piece in pieces:
        out = reference_add(out, piece)
    return out


def reference_oracle(f, y, extra_levels=2):
    yq = Fraction(y)
    vy = padic.fraction_valuation(yq, f.p)
    lvl = f.level if vy is inf else max(f.level, -vy)
    lvl += extra_levels
    fine = f.refined(lvl)
    w = float(Fraction(f.p) ** (-lvl))
    acc = 0j
    for c, v in fine.cells.items():
        phase = cmath.exp(-2j * cmath.pi * float(c * yq - (c * yq).__floor__()))
        acc += f.backend.to_complex(v) * phase * w
    return acc


def _reference_inputs(p, seed, be):
    """A random function, one whose +-1 values cancel in partial sums of the
    transform, and an empty one."""
    rng = random.Random(seed)
    yield padic.random_schwartz(p, rng, be, _LEVELS[p], max_cells=6)
    level, span = rng.randint(0, 2), _LEVELS[p][1] + 1
    cells = {rng.randint(0, p**span - 1) * Fraction(p) ** (level - span): rng.choice([-1, 1]) for _ in range(8)}
    yield padic.SchwartzFunction(p, level, cells, be)
    yield padic.SchwartzFunction(p, level, {}, be)


def _edge_inputs(p, be):
    """The edges of the integer indexing: N = 1 (one cell, n = m), n < 0 and
    n > 0, and keys of valuation above n, so that p divides j."""
    u = Fraction(p)
    yield padic.SchwartzFunction(p, 1, {0: 3}, be)
    yield padic.SchwartzFunction(p, -2, {0: -1}, be)
    yield padic.SchwartzFunction(p, 1, {u**-2: 1, u**-1: -1, 1: 2, u**-2 * (p + 1): 1}, be)
    yield padic.SchwartzFunction(p, 3, {u: 2, u**2: -1, 0: 1, u * (p + 1): 3}, be)
    yield padic.SchwartzFunction(p, 2, {u: 1}, be)


@pytest.mark.parametrize("be", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("p", sorted(_LEVELS))
def test_transform_matches_the_pieces_loop(p, be):
    inputs = [f for seed in range(10) for f in _reference_inputs(p, seed, be)] + list(_edge_inputs(p, be))
    for f in inputs:
        for scale in (Fraction(1), Fraction(p) ** 2, Fraction(-3, p)):
            got, want = padic.padic_fourier(f, scale), reference_fourier(f, scale)
            if be.exact:
                # identical bytes, the order of every value included
                assert exchange.dumps(exchange.schwartz_to_obj(got)) == exchange.dumps(
                    exchange.schwartz_to_obj(want)), (f, scale)
            else:
                assert (got.level, repr(sorted(got.cells.items()))) == (
                    want.level, repr(sorted(want.cells.items()))), (f, scale)


@pytest.mark.parametrize("p", sorted(_LEVELS))
def test_oracle_matches_the_refined_sum(p):
    points = [Fraction(0), Fraction(1, p), Fraction(3, p**2), Fraction(p), Fraction(5, p ** (_LEVELS[p][1] + 1)), Fraction(-7, p)]
    for seed in range(10 if p < 5 else 3):  # fine cells grow like p^(span + extra)
        for be in (EXACT, FLOAT):
            for f in _reference_inputs(p, seed, be):
                for y in points:
                    for extra in (0, 2):
                        got = padic.padic_fourier_oracle_value(f, y, extra)
                        assert repr(got) == repr(reference_oracle(f, y, extra)), (seed, f, y)


def test_transform_builds_no_piece_and_refines_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a piece or a refinement inside padic_fourier")

    inputs = [f for p in sorted(_LEVELS) for be in (EXACT, FLOAT) for f in _reference_inputs(p, p, be)]
    monkeypatch.setattr(padic.SchwartzFunction, "refined", refuse)
    monkeypatch.setattr(padic.SchwartzFunction, "__init__", refuse)
    for f in inputs:
        if f.cells:
            padic.padic_fourier(f)


@pytest.mark.parametrize("cells", [1, 3, 27])
def test_float_transform_computes_n_roots_and_the_exact_one_cells_times_n(monkeypatch, cells):
    # keys j/3 at level 2 and p = 3: window (-1, 2), so N = 27
    p, N = 3, 27
    js = range(N) if cells == N else [1, 2, 4][:cells]
    calls = []
    root = padic._root
    monkeypatch.setattr(padic, "_root", lambda r, n, be: calls.append(n) or root(r, n, be))
    for be, want in ((FLOAT, N), (EXACT, cells * N)):
        f = padic.SchwartzFunction(p, 2, {j * Fraction(1, p): 1 for j in js}, be)
        assert f.window() == (-1, 2) and len(f.cells) == cells
        calls.clear()
        padic.padic_fourier(f)
        assert calls == [N] * want, be


def test_mismatched_primes_rejected():
    with pytest.raises(padic.PAdicError):
        padic.schwartz_mul(padic.subgroup_indicator(2, 0), padic.subgroup_indicator(3, 0))


@pytest.mark.parametrize("p, ball, cells", [(2, "1*2^-6+2^6*Zp", 4096), (3, "1*3^-3+3^4*Zp", 2187)])
def test_transforms_up_to_max_cells_run(p, ball, cells):
    assert len(padic.padic_fourier(padic.indicator(padic.parse_ball(ball, p))).cells) == cells <= padic.MAX_CELLS


@pytest.mark.parametrize("p, ball", [(2, "1*2^-7+2^6*Zp"), (3, "1*3^-4+3^4*Zp"), (7, "1*7^-3+7^2*Zp")])
def test_transforms_beyond_max_cells_are_refused(p, ball):
    f = padic.indicator(padic.parse_ball(ball, p))
    with pytest.raises(padic.PAdicError, match="more than %d" % padic.MAX_CELLS):
        padic.padic_fourier(f)


def test_repr_names_cells():
    f = padic.SchwartzFunction(2, 4, {Fraction(9 - k, 2): k + 1 for k in range(10)})
    assert repr(f) == (
        "SchwartzFunction(p=2, level=4, 10 cells: "
        "{0: 10, 1/2: 9, 1: 8, 3/2: 7, 2: 6, 5/2: 5, 3: 4, 7/2: 3, ...})"
    )
    assert repr(padic.subgroup_indicator(3, 1)) == "SchwartzFunction(p=3, level=1, 1 cells: {0: 1})"
