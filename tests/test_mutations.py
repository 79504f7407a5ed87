"""Break one function the suites rely on and check that every failing report
names the input it failed on, that no report falls back to a generic
witness, and that the suites report the breakage instead of raising."""

import re
from fractions import Fraction

from qgfourier import fixtures, laurent, padic, suites
from qgfourier.scalars import EXACT


def _assert_witnessed(reports, expected):
    """Every failing report matches one (case prefix, witness pattern) of
    expected, and every entry of expected has a failing report."""
    failing = [r for r in reports if not r.ok]
    for r in failing:
        assert isinstance(r.witness, str) and r.witness, r
        patterns = [w for case, w in expected.items() if r.case.startswith(case)]
        assert patterns and re.fullmatch(patterns[0], r.witness), r
    for case in expected:
        assert any(r.case.startswith(case) for r in failing), case


def test_doubled_padic_transform(monkeypatch):
    original = padic.padic_fourier
    monkeypatch.setattr(padic, "padic_fourier", lambda f, scale=Fraction(1): padic.schwartz_scale(2, original(f, scale)))
    reports = suites.suite_padic(EXACT) + suites.suite_grouplike(EXACT)
    _assert_witnessed(
        reports,
        {
            "F(h_n) = p^-n h_-n": r"n=-3",
            "double transform reflects": r"cell \S+ \+ \d\^-?\d Zp",
            "padic suite": r"normalized F\(h_-3\) = h_3: got SchwartzFunction\(p=\d, level=3, 1 cells: \{0: Cyc\(2\)\}\)",
        },
    )


def test_doubled_laurent_pairing(monkeypatch):
    original = laurent.pair_pairing
    monkeypatch.setattr(laurent, "pair_pairing", lambda a, f: 2 * original(a, f))
    reports = suites.suite_laurent(EXACT) + suites.suite_types(EXACT)
    _assert_witnessed(
        reports,
        {
            "<e_n, f> = f(-n)": r"\(n,m\)=\(-?\d+,-?\d+\)",
            "pairing intertwines": r"<coproduct\(e_-?\d+\), delta_-?\d+ \(x\) delta_-?\d+>",
        },
    )


def test_subgroup_indicator_of_a_coset(monkeypatch):
    original = fixtures.subgroup_indicator

    def coset_indicator(A, G, members):
        """The indicator of t.members for the first t outside members."""
        t = next((g for g in range(G.order) if g not in members), None)
        return original(A, G, members if t is None else [G.cayley[t][x] for x in members])

    monkeypatch.setattr(fixtures, "subgroup_indicator", coset_indicator)
    _assert_witnessed(
        suites.suite_grouplike(EXACT),
        {"subgroup of order": r"coproduct\(h\)\(1 \(x\) h\) differs from h \(x\) h in row \d+"},
    )
