"""Per-layer metrics of a traced run, and the call hooks that count work.

Times and counts are per timed request (``s/req``, ``count/req``) so that runs
with different request counts compare; ``*.setup_s`` are totals of the
set-up phase.  Scalar ops are calls into the scalar layer from another layer;
arithmetic on plain ``Fraction`` or ``complex`` values happens inline in the
caller and is charged to it.
"""

from __future__ import annotations

import math
import statistics
from collections import namedtuple

# one timed request: latency is calibrated for the machine's speed, raw is not
Sample = namedtuple("Sample", "kind key latency ok raw")
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)  # percentiles the tail may report
ELIMINATIONS = ("linalg.solve", "linalg.inverse", "linalg.nullspace")
PRODUCTS = ("linalg.mat_mul", "linalg.mat_vec", "linalg.vec_mat")
HIGH_ORDER = 64


def tail(latencies):
    """(percentile, value): the highest ladder percentile with at least 10
    samples beyond it, by nearest rank.  A fixed ladder keeps the percentile
    the same on runs whose sample counts differ by a round."""
    n = len(latencies)
    pct = max([p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10 - 1e-9] or [TAIL_LADDER[0]])
    return pct, sorted(latencies)[max(0, math.ceil(pct / 100 * n) - 1)]


def end_to_end(samples, busy, setups, rss_mb):
    """(name -> (value, unit), explanatory lines) for an untraced run.
    Times are calibrated; the lines give the raw ones beside them."""
    lat = [s.latency for s in samples]
    raw = [s.raw for s in samples]
    pct, tail_s = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (len(samples) / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        "latency_tail_ms is p%g over %d samples" % (pct, len(lat)),
        "setup_s is the median of %s" % ", ".join("%.3f" % s for s in setups),
        "raw, uncalibrated: throughput_rps %.4f, latency_p50_ms %.4f, latency_tail_ms %.4f"
        % (len(samples) / busy, 1e3 * statistics.median(raw), 1e3 * tail(raw)[1]),
    ]
    return metrics, lines


def hooks():
    """name -> hook(tracer, args, result), run after every traced call."""

    def fourier(tracer, args, result):
        tracer.add("padic.cells_in", len(args[0].cells))
        tracer.add("padic.cells_out", len(result.cells))

    def refined(tracer, args, result):
        if result is not args[0]:
            tracer.add("padic.refine.cells", len(result.cells))

    def elimination(extra_cols):
        def hook(tracer, args, result):
            a = args[0]
            rows = len(a)
            cols = len(a[0]) if rows else 0
            tracer.add("linalg.elim.work", rows * (cols + extra_cols(rows)) * min(rows, cols))
            key = (tracer.phase, "linalg.elim.dim_max")
            tracer.counters[key] = max(tracer.counters[key], rows, cols)

        return hook

    def dumps(tracer, args, result):
        tracer.add("exchange.bytes", len(result))

    return {
        "padic.padic_fourier": fourier,
        "padic.SchwartzFunction.refined": refined,
        "linalg.solve": elimination(lambda rows: 1),
        "linalg.inverse": elimination(lambda rows: rows),
        "linalg.nullspace": elimination(lambda rows: 0),
        "exchange.dumps": dumps,
    }


def layer_metrics(tracer, qg, n_requests, traced_s, overhead_ratio, failed):
    """name -> (value, unit) for every per-layer metric."""
    phase = "timed"
    n = float(n_requests)

    def calls(*names):
        return sum(tracer.calls[(phase, name)] for name in names)

    def self_s(*names):
        return sum(tracer.self_s[(phase, name)] for name in names)

    def layer_self(layer, ph=phase):
        return sum(v for (p, name), v in tracer.self_s.items() if p == ph and name.split(".")[0] == layer)

    def counter(name):
        return tracer.counters[(phase, name)]

    scalar = [(op, order, rec) for (p, op, order), rec in tracer.scalar_ops.items() if p == phase]

    def scalar_sum(field, pred=lambda op, order: True):
        return sum(rec[field] for op, order, rec in scalar if pred(op, order))

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("scalars.ops", scalar_sum(0) / n, "count/req")
    put("scalars.self_s", scalar_sum(1) / n, "s/req")
    for op in ("mul", "conjugate", "eq"):
        put("scalars.%s.self_s" % op, scalar_sum(1, lambda o, order, op=op: o == op) / n, "s/req")
    put("scalars.ops_high_order", scalar_sum(0, lambda o, order: order >= HIGH_ORDER) / n, "count/req")
    put("scalars.dense_coeffs", scalar_sum(2) / n, "count/req")
    put("scalars.order1.self_s", scalar_sum(1, lambda o, order: order == 1) / n, "s/req")

    put("linalg.elim.count", calls(*ELIMINATIONS) / n, "count/req")
    put("linalg.elim.self_s", self_s(*ELIMINATIONS) / n, "s/req")
    put("linalg.elim.dim_max", counter("linalg.elim.dim_max"), "count")
    put("linalg.elim.work", counter("linalg.elim.work") / n, "count/req")
    put("linalg.matprod.self_s", self_s(*PRODUCTS) / n, "s/req")

    put("core.self_s", layer_self("core") / n, "s/req")
    for fn in ("verify_axioms", "build_dual", "transport"):
        put("core.%s.self_s" % fn, self_s("core." + fn) / n, "s/req")
    put("core.transform.count", calls("core.fourier", "core.inverse_fourier") / n, "count/req")
    put("core.mul_coords.count", calls("core.FiniteQuantumGroup.mul_coords") / n, "count/req")

    put("fixtures.self_s", layer_self("fixtures") / n, "s/req")
    put("fixtures.setup_s", layer_self("fixtures", "setup"), "s")
    put("exchange.self_s", layer_self("exchange") / n, "s/req")
    put("exchange.setup_s", layer_self("exchange", "setup"), "s")
    put("exchange.bytes", counter("exchange.bytes") / n, "B/req")

    put("padic.self_s", layer_self("padic") / n, "s/req")
    put("padic.fourier.count", calls("padic.padic_fourier") / n, "count/req")
    put("padic.fourier.self_s", self_s("padic.padic_fourier") / n, "s/req")
    put("padic.eq.self_s", self_s("padic.SchwartzFunction.__eq__") / n, "s/req")
    put("padic.cells_in", counter("padic.cells_in") / n, "count/req")
    put("padic.cells_out", counter("padic.cells_out") / n, "count/req")
    put("padic.refine.cells", counter("padic.refine.cells") / n, "count/req")
    refine = counter("padic.refine.cells")
    put("padic.cell_yield", counter("padic.cells_out") / refine if refine else 0.0, "ratio")

    put("laurent.self_s", layer_self("laurent") / n, "s/req")
    for key, fn in qg.suites.SUITES.items():
        name = "suites.%s" % fn.__name__
        k = tracer.calls[(phase, name)]
        put("suites.%s.s" % key, tracer.inclusive_s[(phase, name)] / k if k else 0.0, "s")
    put("cli.self_s", layer_self("cli") / n, "s/req")
    put("report.count", sum(v for (p, name), v in tracer.calls.items() if p == phase and name.startswith("report.")) / n, "count/req")

    layers_total = scalar_sum(1) + sum(v for (p, _), v in tracer.self_s.items() if p == phase)
    put("trace.unattributed_s", max(traced_s - layers_total, 0.0) / n, "s/req")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    put("fail_ratio", failed / n, "ratio")
    return out
