"""Layer tracer for the benchmark's traced runs.

The tracer wraps the public functions of every ``qgfourier`` module at each
place they are bound (the defining module, every module that imported the
name, and module-level dicts such as ``suites.SUITES``) and the public
methods of the package's classes on their class.  Nothing inside the package
changes; ``uninstall`` puts every original object back.

A span is recorded only where a call crosses from one layer into another
(a layer is a module).  Calls that stay inside the current layer are folded
into the enclosing span, so a layer's self time is the time spent in its own
code and in the private helpers it calls, minus the spans of the layers it
called into.  Spans of one request share the request id.  Calls into the
scalar layer number in the millions, so they are aggregated per (op, order)
instead of being kept one by one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = (
    "scalars",
    "linalg",
    "core",
    "fixtures",
    "exchange",
    "padic",
    "laurent",
    "suites",
    "cli",
    "report",
)

# operator methods are the scalar and element API even though they are dunders
OPERATOR_METHODS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__neg__": "neg",
    "__truediv__": "div",
    "__rtruediv__": "div",
    "__pow__": "pow",
    "__eq__": "eq",
    "__call__": "call",
}

MARK = "__perfbench_original__"
MAX_SPANS = 100_000


@functools.lru_cache(maxsize=None)
def _phi(n: int) -> int:
    """Euler's totient, the degree of the n-th cyclotomic polynomial."""
    out, m, q = n, n, 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            out -= out // q
        q += 1
    if m > 1:
        out -= out // m
    return out


def package_modules(package):
    """The package's layer modules, by layer name."""
    return {name: importlib.import_module("%s.%s" % (package.__name__, name)) for name in LAYERS}


def _public_functions(module):
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
            yield name, obj


def _public_classes(module):
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__ and not issubclass(obj, BaseException):
            yield name, obj


def _class_methods(cls, module_file):
    """(attribute name, raw class-dict entry, function, kind) for the methods
    written in the module's source: public ones plus the operator methods."""
    for name, raw in vars(cls).items():
        if name.startswith("_") and name not in OPERATOR_METHODS:
            continue
        if isinstance(raw, classmethod):
            fn, kind = raw.__func__, classmethod
        elif isinstance(raw, staticmethod):
            fn, kind = raw.__func__, staticmethod
        elif inspect.isfunction(raw):
            fn, kind = raw, None
        else:
            continue
        # dataclass-generated methods are compiled from strings; skip them
        if fn.__code__.co_filename != module_file:
            continue
        yield name, raw, fn, kind


def _mark(wrapper, fn):
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, MARK, fn)
    return wrapper


def is_wrapped(obj) -> bool:
    fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
    return hasattr(fn, MARK)


def wrapped_names(package) -> list:
    """Every wrapper still bound anywhere in the package (empty when clean)."""
    found = []
    for layer, module in package_modules(package).items():
        for name, obj in list(vars(module).items()):
            if is_wrapped(obj):
                found.append("%s.%s" % (layer, name))
            elif isinstance(obj, dict):
                found.extend("%s.%s[%r]" % (layer, name, k) for k, v in obj.items() if is_wrapped(v))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                found.extend(
                    "%s.%s.%s" % (layer, name, m) for m, raw in vars(obj).items() if is_wrapped(raw)
                )
    found.extend("%s.%s" % (package.__name__, n) for n, v in vars(package).items() if is_wrapped(v))
    return found


class Tracer:
    """Span stack, per-layer aggregates and counters for one traced run.

    The wrappers record only while ``active`` is true; the caller switches
    it on around the calls it wants traced."""

    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.request = -1
        # parallel stacks: layer of each open span, time its children took,
        # and the index of its stored span record (-1 when not stored)
        self._layers = ["bench"]
        self._child = [0.0]
        self._span_ids = [-1]
        self.spans = []
        self.dropped_spans = 0
        self.calls = defaultdict(int)  # (phase, name) -> calls, folded ones too
        self.self_s = defaultdict(float)  # (phase, name) -> self time of its spans
        self.inclusive_s = defaultdict(float)  # (phase, name) -> wall time, for timed names
        self.scalar_ops = defaultdict(lambda: [0, 0.0, 0])  # (phase, op, order) -> [calls, self_s, dense coeffs]
        self.counters = defaultdict(float)  # (phase, counter) -> value
        self._patches = []
        self._hooks = {}
        self._inclusive = set()
        self._cyclotomic = None

    # -- configuration

    def on_call(self, name, hook):
        """Run hook(tracer, args, result) after every active call of name."""
        self._hooks[name] = hook

    def time_inclusive(self, name):
        """Also record the wall time of name's calls that are folded."""
        self._inclusive.add(name)

    def add(self, counter, value):
        self.counters[(self.phase, counter)] += value

    # -- installation

    def install(self, package):
        modules = package_modules(package)
        self._cyclotomic = modules["scalars"].Cyclotomic
        originals = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                originals[id(fn)] = (fn, self._wrap(fn, layer, "%s.%s" % (layer, name)))
        # rebind module functions wherever they are bound, including dicts of them
        for namespace in [vars(m) for m in modules.values()] + [vars(package)]:
            for name, obj in list(namespace.items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._set(namespace, name, originals[id(obj)][1])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in originals and originals[id(val)][0] is val:
                            self._set(obj, key, originals[id(val)][1])
        for layer, module in modules.items():
            for cname, cls in _public_classes(module):
                for name, raw, fn, kind in _class_methods(cls, module.__file__):
                    qual = "%s.%s.%s" % (layer, cname, name)
                    if layer == "scalars":
                        w = self._wrap_scalar(fn, OPERATOR_METHODS.get(name, name), cname)
                    else:
                        w = self._wrap(fn, layer, qual)
                    self._patch_class(cls, name, raw, kind(w) if kind else w)

    def uninstall(self):
        self.active = False
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def _set(self, namespace, key, value):
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def _patch_class(self, cls, name, raw, value):
        self._patches.append((cls, name, raw))
        setattr(cls, name, value)

    # -- wrappers

    def _wrap(self, fn, layer, name):
        if layer == "scalars":
            return self._wrap_scalar(fn, name.split(".", 1)[1], None)
        tracer = self
        layers, child, span_ids = self._layers, self._child, self._span_ids
        calls, self_s, inclusive_s = self.calls, self.self_s, self.inclusive_s
        spans = self.spans
        hook = self._hooks.get(name)
        inclusive = name in self._inclusive
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            phase = tracer.phase
            calls[(phase, name)] += 1
            if layers[-1] == layer:
                # folded into the enclosing span of the same layer
                if not inclusive and hook is None:
                    return fn(*args, **kwargs)
                t0 = perf()
                result = fn(*args, **kwargs)
                if inclusive:
                    inclusive_s[(phase, name)] += perf() - t0
                if hook is not None:
                    hook(tracer, args, result)
                return result
            if len(spans) < MAX_SPANS:
                sid = len(spans)
                spans.append(None)
            else:
                sid = -1
                tracer.dropped_spans += 1
            layers.append(layer)
            child.append(0.0)
            span_ids.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                layers.pop()
                span_ids.pop()
                own = dt - child.pop()
                child[-1] += dt
                self_s[(phase, name)] += own
                if inclusive:
                    inclusive_s[(phase, name)] += dt
                if sid >= 0:
                    spans[sid] = (tracer.request, phase, name, span_ids[-1], t0, dt, own)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return _mark(wrapper, fn)

    def _wrap_scalar(self, fn, op, cname):
        """Scalar-layer calls: aggregated per (op, operand order)."""
        if cname == "Backend":
            op = "backend." + op
        tracer = self
        layers, child = self._layers, self._child
        ops = self.scalar_ops
        perf = time.perf_counter
        cyc = self._cyclotomic

        def wrapper(*args, **kwargs):
            if not tracer.active or layers[-1] == "scalars":
                return fn(*args, **kwargs)
            order, dense = 0, 0
            for a in args[:3]:
                if isinstance(a, cyc):
                    n = a.order
                    dense += _phi(n)
                    if n > order:
                        order = n
            layers.append("scalars")
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                layers.pop()
                own = dt - child.pop()
                child[-1] += dt
                rec = ops[(tracer.phase, op, order)]
                rec[0] += 1
                rec[1] += own
                rec[2] += dense

        return _mark(wrapper, fn)

    # -- output

    def write_spans(self, path):
        """Write the stored spans and the scalar aggregates as JSON lines."""
        with open(path, "w") as fh:
            for rec in self.spans:
                if rec is None:
                    continue
                req, phase, name, parent, start, dur, own = rec
                fh.write(
                    json.dumps(
                        {"request": req, "phase": phase, "span": name, "parent": parent,
                         "start": start, "duration_s": dur, "self_s": own}
                    )
                    + "\n"
                )
            for (phase, op, order), (n, own, dense) in sorted(self.scalar_ops.items()):
                fh.write(
                    json.dumps(
                        {"phase": phase, "scalar_op": op, "order": order, "calls": n,
                         "self_s": own, "dense_coeffs": dense}
                    )
                    + "\n"
                )
