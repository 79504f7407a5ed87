"""Command-line surface.

Exit codes: 0 success / all checks pass, 1 check failure, 2 input or parse
error, 3 semantic error (axiom failure, domain mismatch).  Reports are
line-delimited JSON records; the final summary line aggregates counts.
Timings are omitted by default so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import isqrt

from . import core, exchange, fixtures, laurent, padic, suites
from .report import passed
from .scalars import backend_by_name

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SEMANTIC_ERROR = 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_qgroup(args) -> core.FiniteQuantumGroup:
    if args.builtin:
        try:
            G = fixtures.FiniteGroupTable.builtin(args.builtin)
        except KeyError as exc:
            raise CliError(str(exc), EXIT_INPUT_ERROR)
        if args.side == "group-algebra":
            A = fixtures.group_algebra(G)
            A.name = "C[%s]" % args.builtin
        else:
            A = fixtures.function_algebra(G)
            A.name = "Fun(%s)" % args.builtin
        return A
    if args.input:
        try:
            with open(args.input) as fh:
                obj = json.load(fh)
            return exchange.qgroup_from_obj(obj)
        except (OSError, KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            raise CliError("cannot read quantum group: %s" % exc, EXIT_INPUT_ERROR)
    raise CliError("need --builtin or --input", EXIT_INPUT_ERROR)


def cmd_dual(args) -> int:
    A = _load_qgroup(args)
    reports = core.verify_axioms(A)
    if not passed(reports):
        for r in reports:
            if not r.ok:
                print(json.dumps({"suite": r.suite, "case": r.case, "status": "fail", "witness": r.witness}))
        return EXIT_SEMANTIC_ERROR
    result = core.build_dual(A)
    out = {
        "dual": exchange.qgroup_to_obj(result.dual),
        "pairing": [[exchange.scalar_to_obj(x) for x in row] for row in result.pairing],
    }
    _emit(out, args.output)
    return 0


_LAURENT_TERM = re.compile(r"^\s*(?:(-?\d+)\s*\*\s*)?(e|delta)_(-?\d+)\s*$")


def _parse_laurent(text: str) -> laurent.SparseElement:
    side = None
    support = {}
    for chunk in text.split("+"):
        m = _LAURENT_TERM.match(chunk)
        if not m:
            raise CliError("bad Laurent-pair element %r" % chunk.strip(), EXIT_INPUT_ERROR)
        coeff = int(m.group(1)) if m.group(1) else 1
        s = laurent.CZ if m.group(2) == "e" else laurent.KZ
        if side is None:
            side = s
        elif side != s:
            raise CliError("mixed e_n and delta_n terms", EXIT_SEMANTIC_ERROR)
        n = int(m.group(3))
        support[n] = support.get(n, 0) + coeff
    return laurent.SparseElement(side, support)


def _format_laurent(a: laurent.SparseElement) -> str:
    if a.is_zero():
        return "0"
    sym = "e" if a.side == laurent.CZ else "delta"
    terms = []
    for n in sorted(a.support):
        c = a.support[n]
        terms.append("%s_%d" % (sym, n) if c == 1 else "%s*%s_%d" % (c, sym, n))
    return " + ".join(terms)


def _read_values(text: str):
    if text == "-":
        text = sys.stdin.read()
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise CliError("bad element JSON: %s" % exc, EXIT_INPUT_ERROR)
    if isinstance(obj, dict):
        obj = obj.get("values", obj.get("coords"))
    if not isinstance(obj, list):
        raise CliError("expected a JSON array of scalars", EXIT_INPUT_ERROR)
    try:
        return [exchange.scalar_from_obj(x) if isinstance(x, dict) else Fraction(x) for x in obj]
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CliError("bad scalar in element: %s" % exc, EXIT_INPUT_ERROR)


def _scalar_plain(s):
    """Compact JSON form: integers/rationals as numbers or strings, else full object."""
    from .scalars import Cyclotomic

    if isinstance(s, Cyclotomic):
        if s.is_rational():
            s = s.as_rational()
        else:
            return exchange.scalar_to_obj(s)
    if isinstance(s, Fraction):
        if s.denominator == 1:
            return int(s)
        return str(s)
    return s


def cmd_fourier(args) -> int:
    if args.pair:
        a = _parse_laurent(args.element)
        if args.inverse:
            # F^{-1} = reflection after the cross-pairing transform
            out = laurent.pair_antipode(laurent.pair_fourier(a))
        else:
            out = laurent.pair_fourier(a)
        print(_format_laurent(out))
        return 0
    if args.padic:
        if not args.prime:
            raise CliError("--padic needs --prime", EXIT_INPUT_ERROR)
        p = args.prime[0]
        try:
            if args.ball:
                f = padic.indicator(padic.parse_ball(args.ball, p))
            elif args.schwartz:
                with open(args.schwartz) as fh:
                    f = exchange.schwartz_from_obj(json.load(fh))
                if f.p != p:
                    raise CliError("--prime %d disagrees with the file's p = %s" % (p, f.p), EXIT_INPUT_ERROR)
            else:
                raise CliError("--padic needs --ball or --schwartz", EXIT_INPUT_ERROR)
        except (OSError, KeyError, TypeError, ValueError) as exc:  # ParseError is a ValueError
            raise CliError(str(exc), EXIT_INPUT_ERROR)
        try:
            g = padic.padic_fourier(f)
        except padic.PAdicError as exc:  # more than padic.MAX_CELLS cells
            raise CliError(str(exc), EXIT_INPUT_ERROR)
        if args.inverse:
            # inverse transform: reflect after transforming (self-dual measure)
            g = _reflect(g)
        _emit(exchange.schwartz_to_obj(g), args.output)
        return 0

    A = _load_qgroup(args)
    values = _read_values(args.element)
    if len(values) != A.dim:
        raise CliError("expected %d coordinates" % A.dim, EXIT_SEMANTIC_ERROR)
    if args.inverse:
        w = A.functional(values)
        a = core.inverse_fourier(A, w)
        print(json.dumps([_scalar_plain(c) for c in a.coords]))
    else:
        a = A.element(values)
        w = core.fourier(A, a)
        print(json.dumps([_scalar_plain(v) for v in w.values]))
    return 0


def _reflect(f: padic.SchwartzFunction) -> padic.SchwartzFunction:
    return padic.SchwartzFunction(f.p, f.level, {-c: v for c, v in f.cells.items()}, f.backend)


def cmd_check(args) -> int:
    names = list(suites.SUITES) if args.suite == "all" else [s.strip() for s in args.suite.split(",")]
    for n in names:
        if n not in suites.SUITES:
            raise CliError("unknown suite %r (have: %s)" % (n, ", ".join(suites.SUITES)), EXIT_INPUT_ERROR)
    backend = backend_by_name(args.backend, args.tolerance)
    reports = suites.run_suites(names, backend=backend, seed=args.seed, primes=args.prime)
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for r in reports:
        counts[r.status] += 1
        rec = {"suite": r.suite, "case": r.case, "status": r.status}
        if not r.ok:
            rec["witness"] = r.witness
        if args.timings:
            rec["elapsed_ms"] = r.elapsed_ms
        print(json.dumps(rec, sort_keys=True))
    summary = {
        "total": len(reports),
        "passed": counts["pass"],
        "failed": counts["fail"],
        "skipped": counts["skip"],
        "seed": args.seed,
        "backend": args.backend,
    }
    print(json.dumps({"summary": summary}, sort_keys=True))
    return 0 if counts["fail"] == 0 else EXIT_CHECK_FAILED


def cmd_padic(args) -> int:
    p = args.prime[0]
    needed = {"eval": 1, "norm": 1, "char": 2, "integrate": 0}.get(args.padic_op, 0)
    if len(args.expr) < needed:
        raise CliError("%s needs %d literal argument(s)" % (args.padic_op, needed), EXIT_INPUT_ERROR)
    try:
        if args.padic_op == "eval":
            print(padic.format_padic(padic.parse_padic(args.expr[0], p), p))
        elif args.padic_op == "norm":
            q = padic.parse_padic(args.expr[0], p)
            print(Fraction(p) ** -padic.fraction_valuation(q, p) if q else 0)
        elif args.padic_op == "char":
            frac = padic.parse_padic(args.expr[0], p) * padic.parse_padic(args.expr[1], p) % 1
            print("zeta(%d)^%d" % (frac.denominator, frac.numerator) if frac else "1")
        elif args.padic_op == "integrate":
            if not args.ball:
                raise CliError("integrate needs --ball", EXIT_INPUT_ERROR)
            b = padic.parse_ball(args.ball, p)
            print(padic.haar_integral(padic.indicator(b)))
        else:
            raise CliError("unknown padic op", EXIT_INPUT_ERROR)
    except ValueError as exc:  # parse errors, and results too long to print as integers
        raise CliError(str(exc), EXIT_INPUT_ERROR)
    return 0


def _emit(obj, output):
    text = json.dumps(obj, sort_keys=True, indent=1)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def _primes(text):
    """Parse a comma list of primes below 2^32; argparse turns a raise into exit 2."""
    primes = [int(t) for t in text.split(",") if t.strip()]
    if not primes:
        raise argparse.ArgumentTypeError("expected a comma list of primes")
    for p in primes:
        if not (p < 2**32 and _is_prime(p)):
            raise argparse.ArgumentTypeError("%d is not a prime below 2^32" % p)
    return primes


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qgfourier", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    common_group = argparse.ArgumentParser(add_help=False)
    common_group.add_argument("--builtin", help="builtin group name (Z2, Z3, Z4, Z2xZ2, S3, trivial)")
    common_group.add_argument("--side", choices=["function-algebra", "group-algebra"], default="function-algebra")
    common_group.add_argument("--input", help="quantum group exchange file")
    common_group.add_argument("--output", help="write JSON here instead of stdout")

    p_dual = sub.add_parser("dual", parents=[common_group], help="compute the dual quantum group")
    p_dual.set_defaults(func=cmd_dual)

    p_f = sub.add_parser("fourier", parents=[common_group], help="Fourier transform an element")
    p_f.add_argument("--element", help="JSON coordinate array, or e_n / delta_n with --pair, or - for stdin")
    p_f.add_argument("--inverse", action="store_true")
    p_f.add_argument("--pair", choices=["laurent"], help="use the (CZ, K(Z)) pair")
    p_f.add_argument("--padic", action="store_true", help="transform a p-adic Schwartz function")
    p_f.add_argument("--prime", type=_primes, default=None)
    p_f.add_argument("--ball", help="ball literal like '5^1*Zp' or '1 + 2^1*Zp'")
    p_f.add_argument("--schwartz", help="Schwartz function exchange file")
    p_f.set_defaults(func=cmd_fourier)

    p_c = sub.add_parser("check", help="run property suites")
    p_c.add_argument("--suite", default="all", help="comma list or 'all': %s" % ",".join(suites.SUITES))
    p_c.add_argument("--backend", choices=["exact", "float"], default=os.environ.get("QGFOURIER_BACKEND", "exact"))
    p_c.add_argument("--tolerance", type=float, default=1e-9)
    p_c.add_argument("--seed", type=int, default=0)
    p_c.add_argument("--prime", type=_primes, default=None, help="comma list, e.g. 2,3,5,7")
    p_c.add_argument("--timings", action="store_true", help="include elapsed times (breaks byte-determinism)")
    p_c.set_defaults(func=cmd_check)

    p_p = sub.add_parser("padic", help="exact p-adic calculator")
    p_p.add_argument("padic_op", choices=["eval", "norm", "char", "integrate"])
    p_p.add_argument("expr", nargs="*", help="p-adic literals")
    p_p.add_argument("--prime", type=_primes, required=True)
    p_p.add_argument("--ball")
    p_p.set_defaults(func=cmd_padic)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # argparse cannot place positionals after options once a starred
        # positional matched empty, so literals like `norm --prime 5 EXPR`
        # arrive here; reclaim them for the padic calculator
        if getattr(args, "padic_op", None) and all(not t.startswith("-") for t in extra):
            args.expr = list(args.expr) + extra
        else:
            parser.error("unrecognized arguments: %s" % " ".join(extra))
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except core.StructureError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SEMANTIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
