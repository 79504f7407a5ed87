"""Benchmark for qgfourier: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload padic-transform --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Requests are issued in whole rounds until the timed request time reaches
``--seconds``; the next request starts when the previous one returns.  Each
result is checked after its request, outside the timed span.

``--trace 0`` prints the end-to-end metrics, with times calibrated for the
machine's speed (see PROBE_NOMINAL_S).  ``--trace 1`` wraps the package's
public functions first (see tracer.py), prints the per-layer metrics, writes
the spans to ``.perfbench_out/``, and replays the first third of the rounds
untraced to measure the tracing overhead.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from metrics import Sample, end_to_end, hooks, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 3  # set-ups measured per run: this process and two fresh ones
# The shared machine this benchmark was built on runs at one of several
# speeds, up to 1.75x apart, for seconds at a time.  Every time is therefore
# calibrated: scaled by PROBE_NOMINAL_S over the time of a fixed stdlib
# Fraction loop run right before and right after it, which moves with the
# machine and not with the program.  PROBE_NOMINAL_S is the probe's time at
# that machine's middle speed, so calibrated times read like raw ones.
PROBE_ITERATIONS = 1000
PROBE_NOMINAL_S = 0.003


def probe():
    """Time of a fixed stdlib Fraction loop: the machine's current speed."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(PROBE_ITERATIONS):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    return time.perf_counter() - t0


def calibrated(seconds, before, after):
    return seconds * 2 * PROBE_NOMINAL_S / (before + after)


def load_program():
    """Import qgfourier from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qgfourier
        # bind the modules the workloads reach as attributes of the package
        from qgfourier import cli, core, exchange, fixtures, linalg, padic, suites  # noqa: F401
    except ImportError as exc:
        sys.exit("error: cannot import qgfourier from %s: %s" % (src, exc))
    if Path(qgfourier.__file__).resolve().parent.parent != src.resolve():
        sys.exit("error: qgfourier imported from %s, not from %s" % (qgfourier.__file__, src))
    return qgfourier


def setup(name, seed, tracer=None):
    """Import, input generation, fixture construction and warm-up."""
    qg = load_program()
    wl = WORKLOADS[name](qg, seed)
    if tracer is None:
        wl.setup()
    else:
        configure(tracer, qg)
        tracer.install(qg)
        tracer.active = True
        wl.setup()
        tracer.active = False
    warm_failures = 0
    for req in wl.warmup():
        ok, _ = execute(req, tracer)
        warm_failures += not ok
    return qg, wl, warm_failures


def execute(req, tracer):
    """Run one request (timed, and traced if tracing) and then its check
    (untimed, untraced)."""
    if tracer is not None:
        tracer.add("exchange.bytes", req.exchange_bytes)
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result, error = req.run(), None
    except Exception as exc:  # a raising request is a failed request
        result, error = None, exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if error is not None:
        print("request %s raised %r" % (req.kind, error), file=sys.stderr)
        return False, dt
    try:
        ok = req.check(result) is True
    except Exception as exc:
        print("check of %s raised %r" % (req.kind, exc), file=sys.stderr)
        ok = False
    if not ok:
        print("request %s failed its check: %r" % (req.kind, req.key), file=sys.stderr)
    return ok, dt


def timed_loop(wl, seconds, tracer):
    """Whole rounds until the timed request time reaches ``seconds``.
    Returns the samples and the timed request time of each round."""
    samples = []
    round_times = []
    before = probe()
    while sum(round_times) < seconds:
        busy = 0.0
        for req in wl.round(len(round_times)):
            if tracer is not None:
                tracer.request = len(samples)
            ok, dt = execute(req, tracer)
            after = probe()
            samples.append(Sample(req.kind, req.key, calibrated(dt, before, after), ok, dt))
            before = after
            busy += dt
        round_times.append(busy)
    return samples, round_times


def fresh_setups(args, count):
    """Set-up times of ``count`` fresh processes, run one after another, and
    the number of their warm-up requests that failed."""
    times, warm_failures = [], 0
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=str(Path.cwd()),
        )
        if proc.returncode != 0:
            sys.exit("error: set-up process failed: %s" % proc.stderr.strip())
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        warm_failures += result["warm_failures"]
    return times, warm_failures


def calibrated_setup():
    """Time since T0, calibrated by probes taken right after it."""
    raw = time.perf_counter() - T0
    speed = statistics.median(probe() for _ in range(3))
    return calibrated(raw, speed, speed)


def repeat_share(samples):
    seen, repeats = set(), 0
    for s in samples:
        repeats += s.key in seen
        seen.add(s.key)
    return repeats / len(samples)


def report(args, samples, busy, rounds, extra_lines):
    """Human-readable lines; the caller prints the JSON result after them."""
    failed = sum(not s.ok for s in samples)
    print("workload %s seed %d: %d requests in %d rounds, %.2f s timed, %d failed (fail_ratio %.4f)"
          % (args.workload, args.seed, len(samples), rounds, busy, failed, failed / len(samples)))
    print("  repeated inputs: %.4f of timed requests" % repeat_share(samples))
    kinds = {}
    for s in samples:
        kinds.setdefault(s.kind, []).append(s.latency)
    for kind, ts in sorted(kinds.items()):
        print("  kind %-22s n=%-5d p50 %9.3f ms  max %9.3f ms" % (kind, len(ts), 1e3 * statistics.median(ts), 1e3 * max(ts)))
    for line in extra_lines:
        print("  " + line)


def configure(tracer, qg):
    """Counters measured where the work happens, at the wrapped calls."""
    for name, hook in hooks().items():
        tracer.on_call(name, hook)
    for fn in qg.suites.SUITES.values():
        tracer.time_inclusive("suites.%s" % fn.__name__)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)))

    if args.setup_only:
        _, _, warm_failures = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": calibrated_setup(), "warm_failures": warm_failures}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    qg, wl, warm_failures = setup(args.workload, args.seed, tracer)
    own_setup = calibrated_setup()
    if tracer is not None:
        tracer.phase = "timed"
    samples, round_times = timed_loop(wl, args.seconds, tracer)
    busy, rounds = sum(round_times), len(round_times)
    failed = sum(not s.ok for s in samples)

    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times, fresh_failures = fresh_setups(args, SETUP_ROUNDS - 1)
        warm_failures += fresh_failures
        metrics, extra = end_to_end(samples, busy, [own_setup] + times, rss_mb)
    else:
        tracer.uninstall()
        # the first third of the rounds again, untraced: the same requests
        replayed = range(max(1, rounds // 3))
        traced = sum(round_times[i] for i in replayed)
        untraced = sum(execute(req, None)[1] for i in replayed for req in wl.round(i))
        out_dir = Path.cwd() / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write_spans(spans_path)
        metrics = layer_metrics(tracer, qg, len(samples), busy, traced / untraced, failed)
        extra = [
            "trace.overhead_ratio = %.3f s traced / %.3f s untraced, over the first %d rounds"
            % (traced, untraced, len(replayed)),
            "%d spans written to %s (%d not kept)" % (len(tracer.spans), spans_path.relative_to(Path.cwd()), tracer.dropped_spans),
        ]
    report(args, samples, busy, rounds, extra)
    for name, (value, unit) in metrics.items():
        print("  %-28s %14.6f %s" % (name, value, unit))
    correct = failed == 0 and warm_failures == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
