"""Self-checks of the benchmark's tracer and result format.

    python3 -m pytest -q perfbench

Tracing runs in a fresh interpreter so that no wrapper can leak into the
process running the tests.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PRELUDE = """
import contextlib, io, json, sys
sys.path[:0] = [%r, %r]
import qgfourier, qgfourier.cli
from tracer import Tracer, wrapped_names

def check(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qgfourier.cli.main(argv)
    return code, buf.getvalue()
""" % (str(ROOT / "src"), str(HERE))


def run_python(body):
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, timeout=300, cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_check_prints_identical_stdout():
    out = run_python(
        """
        argv = ["check", "--suite", "types,duality,inversion-lemma,biduality", "--backend", "float", "--seed", "7"]
        plain = check(argv)
        tracer = Tracer()
        tracer.install(qgfourier)
        tracer.active = True
        traced = check(argv)
        tracer.uninstall()
        print(json.dumps({"same": plain == traced, "code": plain[0], "spans": len(tracer.spans)}))
        """
    )
    assert out == {"same": True, "code": 0, "spans": out["spans"]}
    assert out["spans"] > 0


def test_wrappers_cover_every_import_site_and_are_removed():
    out = run_python(
        """
        from qgfourier import padic, suites, scalars
        before = (padic.zeta, suites.zeta, qgfourier.zeta, suites.SUITES["padic"], scalars.Cyclotomic.__mul__)
        tracer = Tracer()
        tracer.install(qgfourier)
        names = wrapped_names(qgfourier)
        tracer.uninstall()
        after = (padic.zeta, suites.zeta, qgfourier.zeta, suites.SUITES["padic"], scalars.Cyclotomic.__mul__)
        print(json.dumps({
            "installed": names,
            "left": wrapped_names(qgfourier),
            "restored": all(a is b for a, b in zip(before, after)),
        }))
        """
    )
    for site in ("padic.zeta", "suites.zeta", "qgfourier.zeta", "suites.SUITES['padic']",
                 "scalars.Cyclotomic.__mul__", "core.FiniteQuantumGroup.mul_coords",
                 "padic.SchwartzFunction.refined", "linalg.solve"):
        assert site in out["installed"]
    assert out["left"] == []
    assert out["restored"]


def test_untraced_run_wraps_nothing():
    out = run_python(
        """
        import run
        qg, wl, warm_failures = run.setup("finite-qg", 3)
        samples, round_times = run.timed_loop(wl, 1e-9, None)
        print(json.dumps({
            "wrapped": wrapped_names(qg),
            "failed": warm_failures + sum(not s[3] for s in samples),
            "requests": len(samples),
        }))
        """
    )
    assert out["wrapped"] == []
    assert out["failed"] == 0 and out["requests"] > 0


def test_metric_names_match_benchmark_json():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import qgfourier
        import qgfourier.suites
        from metrics import Sample, end_to_end, layer_metrics
        from tracer import Tracer
    finally:
        del sys.path[:2]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    samples = [Sample("k", (i,), 0.001 * (i + 1), True, 0.001) for i in range(120)]
    e2e = end_to_end(samples, 0.5, [1.0, 2.0, 3.0], 50.0)[0]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layers = layer_metrics(Tracer(), qgfourier, 1, 1.0, 1.0, 0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}


def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond():
    sys.path.insert(0, str(HERE))
    try:
        from metrics import tail
    finally:
        sys.path.remove(str(HERE))
    assert tail([float(i) for i in range(1, 34)]) == (50.0, 17.0)
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
