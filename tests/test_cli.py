"""CLI surface: exit codes, round trips, deterministic reports."""

import contextlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qgfourier import cli, exchange, fixtures, padic
from qgfourier.scalars import zeta


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- padic calculator ---------------------------------------------------------


def test_padic_norm(capsys):
    code, out, _ = run(capsys, "padic", "norm", "--prime", "5", "1*5^-2+3")
    assert code == 0 and out.strip() == "25"


def test_padic_char(capsys):
    code, out, _ = run(capsys, "padic", "char", "--prime", "2", "1*2^-1", "1")
    assert code == 0 and out.strip() == "zeta(2)^1"
    code, out, _ = run(capsys, "padic", "char", "--prime", "2", "1", "1")
    assert code == 0 and out.strip() == "1"


def test_padic_integrate(capsys):
    code, out, _ = run(capsys, "padic", "integrate", "--prime", "3", "--ball", "3^2*Zp")
    assert code == 0 and out.strip() == "1/9"


def test_padic_eval_round_trip(capsys):
    code, out, _ = run(capsys, "padic", "eval", "--prime", "2", "101.01")
    assert code == 0
    code2, out2, _ = run(capsys, "padic", "eval", "--prime", "2", out.strip())
    assert code2 == 0 and out2 == out


def test_padic_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "padic", "norm", "--prime", "5", "9*5^1")
    assert code == 2 and "error" in err


def test_fourier_padic_inverse_recovers_schwartz_file(tmp_path, capsys):
    f = padic.SchwartzFunction(3, 1, {Fraction(1, 3): zeta(9, 2), Fraction(2): Fraction(-5, 7)})
    transformed = tmp_path / "Ff.json"
    transformed.write_text(json.dumps(exchange.schwartz_to_obj(padic.padic_fourier(f))))
    out_file = tmp_path / "f.json"
    code, _, _ = run(
        capsys, "fourier", "--padic", "--prime", "3", "--inverse",
        "--schwartz", str(transformed), "--output", str(out_file),
    )
    assert code == 0
    assert exchange.schwartz_from_obj(json.loads(out_file.read_text())) == f


def test_fourier_padic_prime_must_match_schwartz_file(tmp_path, capsys):
    schwartz = tmp_path / "f.json"
    schwartz.write_text(json.dumps(exchange.schwartz_to_obj(padic.subgroup_indicator(2, 1))))
    code, out, err = run(capsys, "fourier", "--padic", "--prime", "3", "--schwartz", str(schwartz))
    assert code == 2 and out == "" and "error:" in err and "p = 2" in err
    code, out, _ = run(capsys, "fourier", "--padic", "--prime", "2", "--schwartz", str(schwartz))
    assert code == 0 and json.loads(out)["p"] == 2


def test_fourier_padic_reads_back_prime_power_orders_above_1024(tmp_path, capsys):
    # the transform of the 2^-5 + 2^6 Zp ball writes values of order 2048
    f = padic.SchwartzFunction(2, 1, {Fraction(1, 2): zeta(2048, 3), Fraction(0): Fraction(1, 2)})
    schwartz = tmp_path / "f.json"
    schwartz.write_text(json.dumps(exchange.schwartz_to_obj(f)))
    code, out, err = run(capsys, "fourier", "--padic", "--prime", "2", "--schwartz", str(schwartz))
    assert code == 0, err
    assert exchange.schwartz_from_obj(json.loads(out)) == padic.padic_fourier(f)


def test_fourier_padic_refuses_more_than_max_cells(capsys):
    # 2^14 cells of order-2^14 values: the dense output would not fit in memory
    start = time.perf_counter()
    code, out, err = run(capsys, "fourier", "--padic", "--prime", "2", "--ball", "1*2^-7+2^7*Zp")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and "error:" in err and str(padic.MAX_CELLS) in err


# -- laurent pair -------------------------------------------------------------


def test_fourier_laurent(capsys):
    code, out, _ = run(capsys, "fourier", "--pair", "laurent", "--element", "e_3")
    assert code == 0 and out.strip() == "delta_3"
    code, out, _ = run(capsys, "fourier", "--pair", "laurent", "--element", "delta_3", "--inverse")
    assert code == 0 and out.strip() == "e_3"


def test_fourier_laurent_mixed_sides(capsys):
    code, _, err = run(capsys, "fourier", "--pair", "laurent", "--element", "e_1 + delta_2")
    assert code == 3


def test_fourier_laurent_bad_term(capsys):
    code, _, _ = run(capsys, "fourier", "--pair", "laurent", "--element", "spam_3")
    assert code == 2


# -- finite quantum groups ----------------------------------------------------


def test_fourier_builtin_round_trip(capsys):
    code, out, _ = run(capsys, "fourier", "--builtin", "Z2", "--element", "[1,0]")
    assert code == 0
    values = json.dumps(json.loads(out))
    code, out2, _ = run(capsys, "fourier", "--builtin", "Z2", "--inverse", "--element", values)
    assert code == 0 and json.loads(out2) == [1, 0]


def test_fourier_wrong_length_exits_3(capsys):
    code, _, _ = run(capsys, "fourier", "--builtin", "Z2", "--element", "[1,0,0]")
    assert code == 3


def test_dual_builtin_and_reread(tmp_path, capsys):
    out_file = tmp_path / "dual.json"
    code, _, _ = run(capsys, "dual", "--builtin", "S3", "--side", "group-algebra", "--output", str(out_file))
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["dual"]["dim"] == 6
    # the written dual is itself a valid input
    in_file = tmp_path / "in.json"
    in_file.write_text(json.dumps(obj["dual"]))
    code, out, _ = run(capsys, "dual", "--input", str(in_file))
    assert code == 0 and json.loads(out)["dual"]["dim"] == 6


def test_dual_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "dual", "--input", str(bad))
    assert code == 2


def test_dual_axiom_failure_exits_3(tmp_path, capsys):
    # serialize Fun(Z2), then corrupt the multiplication table
    code, out, _ = run(capsys, "dual", "--builtin", "Z2")
    obj = json.loads(out)["dual"]
    obj["mult"] = [[0, 0, 0, {"order": 1, "coeffs": [[1, 1]]}], [0, 1, 1, {"order": 1, "coeffs": [[1, 1]]}]]
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "dual", "--input", str(bad))
    assert code == 3
    assert all(json.loads(line)["status"] == "fail" for line in out.splitlines() if line)


# -- check --------------------------------------------------------------------


def test_check_is_deterministic(capsys):
    args = ("check", "--suite", "types,axioms", "--seed", "42")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["failed"] == 0 and summary["seed"] == 42 and summary["total"] == len(lines) - 1


def test_check_unknown_suite_exits_2(capsys):
    code, _, _ = run(capsys, "check", "--suite", "nonsense")
    assert code == 2


def test_check_reports_are_jsonl(capsys):
    code, out, _ = run(capsys, "check", "--suite", "types")
    assert code == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert "summary" in rec or rec["status"] in ("pass", "fail", "skip")


def test_check_timings_are_measured_per_case_and_only_on_request(capsys):
    code, out, _ = run(capsys, "check", "--suite", "grouplike", "--timings")
    records = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    subgroups = [r for r in records if r["case"].startswith("subgroup of order")]
    assert code == 0 and len(subgroups) == 6
    assert all(r["elapsed_ms"] > 0 for r in subgroups)
    code, out, _ = run(capsys, "check", "--suite", "grouplike")
    assert code == 0 and "elapsed_ms" not in out


# -- input contract -----------------------------------------------------------


def run_cli(argv):
    """Exit code and stderr of one in-process run; argparse errors exit via SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["fourier", "--builtin", "Z2", "--element", '[1,"abc"]'],
        ["fourier", "--builtin", "Z2", "--element", '[{"order":1},1]'],
        ["padic", "eval", "--prime", "4", "12"],
        ["padic", "norm", "--prime", "4", "3*4^-1"],
        ["padic", "norm", "--prime", "2", "1*2^-99999"],
        ["check", "--suite", "padic", "--prime", "4"],
        ["fourier", "--padic", "--prime", "1", "--ball", "1^1*Zp"],
        ["padic", "eval", "--prime", ",", "12"],
    ],
)
def test_bad_input_exits_2(argv):
    code, err = run_cli(argv)
    assert code == 2
    assert "error:" in err and "Traceback" not in err


def test_large_scalar_order_exits_2_quickly(tmp_path):
    # building Phi_30030 (six distinct prime factors) ran past 20 s, so the
    # order must be refused before any arithmetic
    big = {"order": 30030, "coeffs": [[1, 1]]}
    schwartz = tmp_path / "f.json"
    schwartz.write_text(json.dumps({"p": 2, "level": 0, "cells": [{"center": "0", "value": big}]}))
    for argv in (
        ["fourier", "--builtin", "Z2", "--element", json.dumps([big, 1])],
        ["fourier", "--padic", "--prime", "2", "--schwartz", str(schwartz)],
    ):
        start = time.perf_counter()
        code, err = run_cli(argv)
        assert time.perf_counter() - start < 2
        assert code == 2 and "error:" in err and "30030" in err


def test_large_padic_exponent_exits_2_quickly(tmp_path):
    # a Fraction holds p^j explicitly, so 2^1000000000 ran past 20 s; the
    # exponent must be refused before any arithmetic
    center = tmp_path / "center.json"
    center.write_text(json.dumps({"p": 2, "level": 0, "cells": [{"center": "1*2^-1000000000", "value": 1}]}))
    level = tmp_path / "level.json"
    level.write_text(json.dumps({"p": 2, "level": 1000000000, "cells": [{"center": "1", "value": 1}]}))
    for argv in (
        ["padic", "eval", "--prime", "2", "1*2^1000000000"],
        ["padic", "norm", "--prime", "2", "1" + "0" * 5000],
        ["fourier", "--padic", "--prime", "2", "--ball", "2^1000000000*Zp"],
        ["fourier", "--padic", "--prime", "2", "--schwartz", str(center)],
        ["fourier", "--padic", "--prime", "2", "--schwartz", str(level)],
    ):
        start = time.perf_counter()
        code, err = run_cli(argv)
        assert time.perf_counter() - start < 2
        assert code == 2 and "error:" in err and "MAX_EXPONENT" in err, argv


@pytest.mark.parametrize("exponent", [padic.MAX_EXPONENT, -padic.MAX_EXPONENT])
def test_padic_eval_at_max_exponent_is_fast(capsys, exponent):
    text = "1*4294967291^%d" % exponent
    start = time.perf_counter()
    code, out, _ = run(capsys, "padic", "eval", "--prime", "4294967291", text)
    assert time.perf_counter() - start < 1
    assert code == 0 and out.strip() == text


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats(width=16) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["order", "coeffs", "values", "coords", "x"]), inner, max_size=3),
    max_leaves=8,
)

FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(element=JSON, inverse=st.booleans())
def test_fuzz_fourier_element(element, inverse):
    argv = ["fourier", "--builtin", "Z2", "--element", json.dumps(element)] + ["--inverse"] * inverse
    code, err = run_cli(argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err


@FUZZ
@given(
    op=st.sampled_from(["eval", "norm"]),
    prime=st.integers(-3, 10**6),
    literal=st.sampled_from(["12", "101.01", "3*4^-1", "1*5^-2+3", "1*2^-9999", "x"]),
)
def test_fuzz_padic_prime(op, prime, literal):
    code, err = run_cli(["padic", op, "--prime", str(prime), literal])
    assert code in (0, 1, 2, 3) and "Traceback" not in err


_EXCHANGE = exchange.qgroup_to_obj(fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z2")))


@FUZZ
@given(
    key=st.sampled_from(sorted(_EXCHANGE)),
    how=st.sampled_from(["delete", "replace", "replace-item", "append-item"]),
    index=st.integers(0, 7),
    value=JSON,
)
def test_fuzz_dual_input(key, how, index, value):
    obj = json.loads(json.dumps(_EXCHANGE))
    target = obj[key]
    if how == "delete":
        del obj[key]
    elif how == "replace" or not isinstance(target, list):
        obj[key] = value
    elif how == "append-item":
        target.append(value)
    elif target:
        # replace one item, or one entry of a row/triple when the item is a list
        item = target[index % len(target)]
        if isinstance(item, list) and item:
            item[index % len(item)] = value
        else:
            target[index % len(target)] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "qg.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        code, err = run_cli(["dual", "--input", path])
    assert code in (0, 1, 2, 3) and "Traceback" not in err
