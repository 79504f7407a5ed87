"""The benchmark's three workloads.

Each workload builds its inputs from a seed, hands the program only those
inputs, and produces requests in rounds.  A round has a fixed composition of
request kinds (the seed draws the digits, elements and random functions
inside each kind), so a run of whole rounds has the same latency shape on
every seed.  A request's ``run`` is the timed call into the program; its
``check`` runs afterwards, untimed, and verifies the result independently.

The program is reached only through module attributes (``padic.padic_fourier``
and so on), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

TOLERANCE = 1e-6  # the oracle tolerance of the program's own oracle suite


@dataclass
class Group:
    name: str
    gname: str
    table: object  # FiniteGroupTable, None for H4
    side: str  # "fun", "grp" or "h4"
    A: object  # the resident FiniteQuantumGroup


@dataclass
class Request:
    kind: str
    key: tuple  # identity of the input, to measure repeated inputs
    run: object  # () -> result, timed
    check: object  # (result) -> bool, untimed
    exchange_bytes: int = 0  # JSON bytes the request parses


# ---------------------------------------------------------------------------
# independent arithmetic for the checks: nothing here calls the program


def numeric(v) -> complex:
    """A program scalar (int, Fraction, complex or cyclotomic) as a complex."""
    if isinstance(v, (int, Fraction, float, complex)):
        return complex(v)
    z = cmath.exp(2j * cmath.pi / v.order)
    return sum(complex(c) * z**k for k, c in enumerate(v.coeffs) if c)


def mod_power(q: Fraction, p: int, m: int) -> Fraction:
    step = Fraction(p) ** m
    return q - step * math.floor(q / step)


def valuation(q: Fraction, p: int):
    if q == 0:
        return math.inf
    q = Fraction(q)
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def value_at(f, y) -> complex:
    """f(y) for a program Schwartz function, read from its cells."""
    v = f.cells.get(mod_power(Fraction(y), f.p, f.level))
    return 0j if v is None else numeric(v)


def is_scaled_ball(f, p: int, m: int, center: Fraction, value: Fraction) -> bool:
    """f is value times the indicator of center + p^m Zp."""
    if f.p != p or f.level < m or not f.cells:
        return False
    if any(abs(numeric(v) - complex(value)) > 1e-12 for v in f.cells.values()):
        return False
    if any(valuation(c - center, p) < m for c in f.cells):
        return False
    # disjoint cells of measure p^-level inside the ball cover it exactly
    return len(f.cells) * Fraction(p) ** (-f.level) == Fraction(p) ** (-m)


def sample_points(fh, *fs, k: int = 4, budget: int = 3000) -> list:
    """Up to k cell centres of fh, spread over its cells, at which the
    Riemann-sum oracle refines each input f to at most ``budget`` cells;
    plus the integer point p^3."""
    p = fh.p

    def cost(y, f):
        v = valuation(y, p)
        level = f.level if v == math.inf else max(f.level, -v)
        return len(f.cells) * p ** (level + 2 - f.level)

    keys = [y for y in sorted(fh.cells) if all(cost(y, f) <= budget for f in fs)]
    step = max(1, len(keys) // k)
    return keys[::step][:k] + [Fraction(p**3)]


def characters(orders) -> list:
    """Character table of Z_n1 x Z_n2 x ..., rows indexed like FiniteGroupTable.product."""
    rows = [[1 + 0j]]
    for n in orders:
        base = [[cmath.exp(2j * cmath.pi * j * k / n) for j in range(n)] for k in range(n)]
        rows = [[x * y for x in r for y in b] for r in rows for b in base]
    return rows


# ---------------------------------------------------------------------------


class Workload:
    """Base: ``setup`` builds resident state; ``warmup`` and ``round`` build
    requests.  Warm-up inputs come from a seed derived from, but distinct
    from, the timed one, so no timed input is seen before it is timed."""

    name = ""

    def __init__(self, qg, seed: int):
        self.qg = qg
        self.seed = seed

    def setup(self):
        pass

    def rng(self, tag, index) -> random.Random:
        return random.Random("%s:%s:%d:%d" % (self.name, tag, self.seed, index))

    def warmup(self) -> list:
        return self.make_round(self.rng("warm-up", 0), 0, warm=True)

    def round(self, index: int) -> list:
        return self.make_round(self.rng("timed", index), index, warm=False)


class PadicTransform(Workload):
    """Exact p-adic requests over p in {2, 3, 5, 7}."""

    name = "padic-transform"
    PRIMES = (2, 3, 5, 7)
    # offset balls c + p^m Zp with v(c) = v transform to p^(m - v) cells whose
    # values are roots of unity of order up to p^(m - v)
    BALLS = (
        (2, -2, 2), (2, -3, 3), (2, -4, 4),
        (3, -1, 1), (3, -2, 2),
        (5, -1, 1), (5, -1, 2),
        (7, -1, 1), (7, -2, 1),
    )
    # the median class: sixteen 16-cell transforms per round, so the p50
    # latency lands inside one class of similar requests on every run
    SMALL = (2, -2, 2)
    # the tail class: four 243-cell transforms per round, so the p90 latency
    # lands inside one class of similar requests on every run
    LARGE = (3, -1, 4)
    # the largest: 729 cells at order 729 and 625 cells at order 625, alternating
    HUGE = ((3, -3, 3), (5, -2, 2))
    # random Schwartz functions and reflected cells: a request's cost grows
    # like p^span, span being its window's level minus its support scale; the
    # caps keep every such request within a few tens of milliseconds
    LEVELS = (-2, 2)
    SPAN = {2: 3, 3: 2, 5: 1, 7: 1}

    def make_round(self, rng, index, warm):
        reqs = []
        for p in self.PRIMES:
            for _ in range(2):
                reqs.append(self.headline(p, rng.randint(-3, 3)))
            reqs.append(self.reflection(p, rng))
            reqs.append(self.convolution(p, rng))
            reqs.append(self.plancherel(p, rng))
        for p, v, m in self.BALLS:
            reqs.append(self.ball(p, v, m, rng, "ball"))
        for _ in range(16):
            reqs.append(self.ball(*self.SMALL, rng, "ball-small"))
        if not warm:
            for _ in range(4):
                reqs.append(self.ball(*self.LARGE, rng, "ball-large"))
            p, v, m = self.HUGE[index % 2]
            reqs.append(self.ball(p, v, m, rng, "ball-huge"))
        rng.shuffle(reqs)
        return reqs

    def headline(self, p, n):
        padic = self.qg.padic

        def run():
            got = padic.padic_fourier(padic.subgroup_indicator(p, n))
            want = padic.schwartz_scale(Fraction(p) ** (-n), padic.subgroup_indicator(p, -n))
            return got == want, got

        def check(result):
            ok, got = result
            return ok is True and is_scaled_ball(got, p, -n, Fraction(0), Fraction(p) ** (-n))

        return Request("headline", ("h", p, n), run, check)

    def _center(self, p, v, m, rng):
        """A centre of valuation exactly v, random digits up to p^m."""
        digits = [rng.randint(1, p - 1)] + [rng.randint(0, p - 1) for _ in range(v + 1, m)]
        return sum((Fraction(d) * Fraction(p) ** (v + j) for j, d in enumerate(digits)), Fraction(0))

    def reflection(self, p, rng):
        padic = self.qg.padic
        m = rng.randint(*self.LEVELS)
        v = m - rng.randint(0, self.SPAN[p])
        c = self._center(p, v, m, rng) if v < m else Fraction(0)
        neg = mod_power(-c, p, m)

        def run():
            cell = padic.indicator(padic.Ball.make(p, m, c))
            first = padic.padic_fourier(cell)
            got = padic.padic_fourier(first)
            want = padic.indicator(padic.Ball.make(p, m, neg))
            return got == want, cell, first, got

        def check(result):
            ok, cell, first, got = result
            return (
                ok is True
                and is_scaled_ball(got, p, m, neg, Fraction(1))
                and self.oracle_agrees(cell, first)
            )

        return Request("reflection", ("refl", p, m, c), run, check)

    def oracle_agrees(self, f, fh) -> bool:
        oracle = self.qg.padic.padic_fourier_oracle_value
        return all(abs(value_at(fh, y) - oracle(f, y)) <= TOLERANCE for y in sample_points(fh, f))

    def _random(self, p, rng, count):
        """count random_schwartz functions whose joint span is within the cap."""
        while True:
            fs = [self.qg.padic.random_schwartz(p, rng, level_range=self.LEVELS, max_cells=3) for _ in range(count)]
            support = min(min([valuation(c, p) for c in f.cells] + [f.level]) for f in fs)
            if max(f.level for f in fs) - support <= self.SPAN[p]:
                return fs

    def convolution(self, p, rng):
        padic = self.qg.padic
        f, g = self._random(p, rng, 2)

        def run():
            lhs = padic.padic_fourier(padic.schwartz_convolve(f, g))
            rhs = padic.schwartz_mul(padic.padic_fourier(f), padic.padic_fourier(g))
            return lhs == rhs, lhs

        def check(result):
            ok, lhs = result
            oracle = padic.padic_fourier_oracle_value
            return ok is True and all(
                abs(value_at(lhs, y) - oracle(f, y) * oracle(g, y)) <= TOLERANCE
                for y in sample_points(lhs, f, g)
            )

        return Request("convolution", ("conv", p, repr(f.cells), repr(g.cells)), run, check)

    def plancherel(self, p, rng):
        padic = self.qg.padic
        f, = self._random(p, rng, 1)

        def run():
            fh = padic.padic_fourier(f)
            lhs = padic.haar_integral(padic.schwartz_mul(fh, fh.conjugate()))
            rhs = padic.haar_integral(padic.schwartz_mul(f, f.conjugate()))
            return lhs == rhs, fh, lhs

        def check(result):
            ok, fh, lhs = result
            norm2 = sum(abs(numeric(v)) ** 2 for v in f.cells.values()) * float(Fraction(p) ** (-f.level))
            return ok is True and abs(numeric(lhs) - norm2) <= TOLERANCE and self.oracle_agrees(f, fh)

        return Request("plancherel", ("planch", p, repr(f.cells)), run, check)

    def ball(self, p, v, m, rng, kind):
        padic = self.qg.padic
        c = self._center(p, v, m, rng)

        def run():
            cell = padic.indicator(padic.Ball.make(p, m, c))
            return cell, padic.padic_fourier(cell)

        def check(result):
            cell, out = result
            return len(out.cells) == p ** (m - v) and self.oracle_agrees(cell, out)

        return Request(kind, ("ball", p, m, c), run, check)


class FiniteQG(Workload):
    """Exact finite-quantum-group requests, cold (exchange reload, axioms,
    dual) and warm (transforms on resident groups)."""

    name = "finite-qg"
    GROUPS = ("Z2xZ2", "S3", "Z3xZ3", "S3xZ2", "Z4xZ4")
    # cold requests and biduality stay at d <= 9: a cold d = 12 request takes
    # about 4 s and a d = 16 one about 10 s, most of a run on their own
    SMALL = ("Z2xZ2", "S3", "Z3xZ3")
    # cold requests per round: about a fifth of a round, so the p90 latency
    # lands in the cold class, and in the middle of the C[S3] requests
    COLD = {"Fun(Z2xZ2)": 2, "C[Z2xZ2]": 2, "Fun(S3)": 2, "C[S3]": 4, "Fun(Z3xZ3)": 2, "C[Z3xZ3]": 2, "H4": 2}
    ABELIAN = {"Z2xZ2": (2, 2), "Z3xZ3": (3, 3), "Z4xZ4": (4, 4)}

    def setup(self):
        fx, core = self.qg.fixtures, self.qg.core
        F = fx.FiniteGroupTable
        tables = {
            "Z2xZ2": F.product(F.cyclic(2), F.cyclic(2)),
            "S3": F.symmetric3(),
            "Z3xZ3": F.product(F.cyclic(3), F.cyclic(3)),
            "S3xZ2": F.product(F.symmetric3(), F.cyclic(2)),
            "Z4xZ4": F.product(F.cyclic(4), F.cyclic(4)),
        }
        self.resident = []
        for gname in self.GROUPS:
            G = tables[gname]
            self.resident.append(Group("Fun(%s)" % gname, gname, G, "fun", fx.function_algebra(G)))
            self.resident.append(Group("C[%s]" % gname, gname, G, "grp", fx.group_algebra(G)))
        self.resident.append(Group("H4", "H4", None, "h4", fx.sweedler_fixture()))
        self.small = [g for g in self.resident if g.gname in self.SMALL or g.side == "h4"]
        self.bidual = {}
        for g in self.small:
            d1 = core.build_dual(g.A)
            self.bidual[g.name] = (d1, core.build_dual(d1.dual))

    def make_round(self, rng, index, warm):
        cold = self.small[:1] if warm else [g for g in self.small for _ in range(self.COLD[g.name])]
        reqs = [self.cold_request(g, rng) for g in cold]
        for g in self.resident:
            # d = 16 round trips (about 2 ms) are the class the p50 lands in
            for _ in range(8 if g.gname == "Z4xZ4" else 2):
                reqs.append(self.roundtrip(g, rng))
            reqs.append(self.convolve(g, rng))
            reqs.append(self.plancherel(g, rng))
            if g.name in self.bidual:
                reqs.append(self.biduality(g))
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _element(A, rng):
        return A.element([rng.randint(-3, 3) for _ in range(A.dim)])

    @staticmethod
    def expected_mult(G, side, i, j, k) -> int:
        """Structure constants of a group fixture, from its Cayley table."""
        if side == "fun":
            return int(i == j == k)
        return int(k == G.cayley[i][j])

    def relabelled(self, g, rng):
        """g with its group elements in a random order, so that no two cold
        requests parse the same file; H4 has no group and stays as it is."""
        if g.side == "h4":
            return g
        n = g.table.order
        perm = rng.sample(range(n), n)  # new index i is old element perm[i]
        back = {old: new for new, old in enumerate(perm)}
        cayley = [[back[g.table.cayley[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
        G = self.qg.fixtures.FiniteGroupTable(n, cayley, [g.table.labels[k] for k in perm])
        make = self.qg.fixtures.function_algebra if g.side == "fun" else self.qg.fixtures.group_algebra
        return Group(g.name, g.gname, G, g.side, make(G))

    def cold_request(self, g, rng):
        qg = self.qg
        g = self.relabelled(g, rng)
        G, side = g.table, g.side
        text = qg.exchange.dumps(qg.exchange.qgroup_to_obj(g.A))

        def run():
            A = qg.exchange.qgroup_from_obj(json.loads(text))
            reports = qg.core.verify_axioms(A)
            return all(r.ok for r in reports), qg.core.build_dual(A)

        def check(result):
            ok, dual = result
            if ok is not True or dual.dual.dim != len(dual.pairing):
                return False
            if side == "h4":
                return True
            # the dual basis is w_i = evaluation at g_i on Fun(G), at g_i^-1
            # on C[G]: so the dual of Fun(G) multiplies like C[G] and the
            # dual of C[G] pointwise, like Fun(G)
            other = "grp" if side == "fun" else "fun"
            d = dual.dual.dim
            return all(
                abs(numeric(dual.dual.mult[i][j][k]) - self.expected_mult(G, other, i, j, k)) < 1e-12
                for i in range(d)
                for j in range(d)
                for k in range(d)
            )

        return Request("cold", ("cold", text), run, check, exchange_bytes=len(text))

    def roundtrip(self, g, rng):
        core, A = self.qg.core, g.A
        a = self._element(A, rng)

        def run():
            w = core.fourier(A, a)
            return core.inverse_fourier(A, w) == a, w

        def check(result):
            ok, w = result
            if ok is not True:
                return False
            if g.side != "fun" or g.gname not in self.ABELIAN:
                return True
            # character sums: F(a)(chi) = sum_g chi(g) a(g) on Fun(G), G abelian
            for chi in characters(self.ABELIAN[g.gname]):
                got = sum(numeric(v) * c for v, c in zip(w.values, chi))
                want = sum(c * complex(x) for c, x in zip(chi, a.coords))
                if abs(got - want) > 1e-9:
                    return False
            return True

        return Request("roundtrip", ("rt", g.name, tuple(a.coords)), run, check)

    def convolve(self, g, rng):
        core, A, G = self.qg.core, g.A, g.table
        a, b = self._element(A, rng), self._element(A, rng)

        def run():
            c1 = core.convolve(A, a, b)
            return c1 == core.convolve_alt(A, a, b), c1

        def check(result):
            ok, c1 = result
            if ok is not True:
                return False
            if g.side != "fun":
                return True
            # Cayley-table convolution: (a*b)(t) = sum_s a(s) b(s^-1 t)
            n = G.order
            want = [
                sum(Fraction(a.coords[s]) * Fraction(b.coords[G.cayley[G.inverse[s]][t]]) for s in range(n))
                for t in range(n)
            ]
            return all(abs(numeric(x) - complex(y)) < 1e-12 for x, y in zip(c1.coords, want))

        return Request("convolve", ("conv", g.name, tuple(a.coords), tuple(b.coords)), run, check)

    def plancherel(self, g, rng):
        core, A = self.qg.core, g.A
        a = self._element(A, rng)
        positive = g.side != "h4"  # H4 has no positive integral

        def run():
            return core.plancherel_check(A, a, check_positivity=positive)

        def check(reports):
            return len(reports) == (2 if positive else 1) and all(r.ok for r in reports)

        return Request("plancherel", ("planch", g.name, tuple(a.coords)), run, check)

    def biduality(self, g):
        core, linalg, A = self.qg.core, self.qg.linalg, g.A
        d1, d2 = self.bidual[g.name]

        def run():
            # a_k -> evaluation on the dual has bidual coordinates P (P_hat^T)^-1
            M = linalg.mat_mul(d1.pairing, linalg.inverse(linalg.transpose(d2.pairing)))
            B = core.transport(d2.dual, M)
            return core.tensors_equal(B, A), B

        def check(result):
            ok, B = result
            if ok is not True:
                return False
            if g.side == "h4":
                return True
            d = B.dim
            return all(
                abs(numeric(B.mult[i][j][k]) - self.expected_mult(g.table, g.side, i, j, k)) < 1e-12
                for i in range(d)
                for j in range(d)
                for k in range(d)
            )

        return Request("biduality", ("bidual", g.name), run, check)


class CheckFloat(Workload):
    """``qgfourier check --suite S --backend float --seed k``, one suite per request.

    Every round runs each suite at ROADMAP's fixed seeds 0 and 42; the run
    seed orders the requests inside each round.  Identical rounds keep the
    latency shape the same however many rounds fit in a run: a suite's cost
    swings several-fold with its seed (convolution: 2.5 s to 13 s), which a
    run of a few rounds could not average out.  The repeated inputs are
    counted in the run's repeated-input share.
    """

    name = "check-float"
    CORPUS = (0, 42)
    WARM_SEED = 1_000_003  # warm-up seeds lie above this, outside the corpus
    # warm-up skips the suites whose cost swings with the seed (convolution
    # 2.5-13 s, padic 0.03-1.7 s, oracle 0.3-0.7 s); the others reach the
    # same padic, core and cli code
    WARM_SKIP = ("convolution", "padic", "oracle")

    def setup(self):
        with open(Path(__file__).with_name("expected.json")) as fh:
            self.expected = json.load(fh)["check-float"]
        self.suites = list(self.qg.suites.SUITES)

    def warmup(self):
        rng = self.rng("warm-up", 0)
        reqs = [self.invocation(s, self.WARM_SEED + rng.randrange(1000)) for s in self.suites if s not in self.WARM_SKIP]
        rng.shuffle(reqs)
        return reqs

    def round(self, index):
        reqs = [self.invocation(s, k) for k in self.CORPUS for s in self.suites]
        self.rng("timed", index).shuffle(reqs)
        return reqs

    @staticmethod
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    @staticmethod
    def seedless(text: str, k: int):
        """stdout with the summary's seed field blanked, or None if it is not k."""
        lines = text.splitlines()
        if not lines:
            return None
        try:
            summary = json.loads(lines[-1])["summary"]
        except (ValueError, KeyError, TypeError):
            return None
        if summary.get("seed") != k:
            return None
        summary["seed"] = None
        return "\n".join(lines[:-1] + [json.dumps({"summary": summary}, sort_keys=True)]) + "\n"

    def invocation(self, suite, k):
        cli = self.qg.cli
        argv = ["check", "--suite", suite, "--backend", "float", "--seed", str(k)]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(result):
            code, text = result
            blank = self.seedless(text, k)
            if code != 0 or blank is None or json.loads(text.splitlines()[-1])["summary"]["failed"] != 0:
                return False
            want = self.expected["per_seed"].get("%s:%d" % (suite, k))
            if want is not None and want != self.digest(text):
                return False
            return self.expected["any_seed"].get(suite) == self.digest(blank)

        return Request("suite:" + suite, ("check", suite, k), run, check)


WORKLOADS = {w.name: w for w in (PadicTransform, FiniteQG, CheckFloat)}
