"""Span tracing installed from outside the program.

``Tracer.install`` replaces every public function and method of each layer
module (plus constructors and arithmetic/comparison dunders) with a wrapper
that opens a span.  Modules bind names with ``from .x import y``, so each
wrapper is rebound wherever the original object is reachable: module
globals, module-level dicts (``verify.SUITES``) and class attributes
(aliases such as ``__radd__ = __add__`` share one wrapper).

A layer's self time is the time its spans are open minus the time of the
spans they directly contain.  A span's own bookkeeping and size probes run
after it closes and are charged to no layer; they land in ``harness.self_s``
with the benchmark's own loop, so that figure is the tracing overhead inside
the timed region.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("scalar", "words", "states", "cuntz", "boson", "branching",
          "embed", "expr", "verify", "cli")

# Dunders that do real work in this package; __hash__, __bool__ and __len__
# are trivial and so hot that wrapping them would swamp every measurement.
_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__neg__", "__eq__", "__str__", "__repr__"}

_RAISED = object()

# (layer, function name) -> reported operation name; an operation sums its
# functions.  Unlisted functions only count towards ``<layer>.calls`` and
# ``<layer>.self_s``.
_OPS = {
    ("scalar", "__add__"): "add", ("scalar", "__mul__"): "mul",
    ("scalar", "__eq__"): "eq", ("scalar", "__init__"): "new",
    ("words", "letter_at"): "letter_at", ("words", "set_letter"): "set_letter",
    ("words", "__init__"): "new",
    ("states", "__add__"): "add", ("states", "inner"): "inner",
    ("states", "items"): "items", ("states", "__init__"): "new",
    ("boson", "apply_create"): "ladder", ("boson", "apply_annihilate"): "ladder",
    ("cuntz", "apply_generator"): "apply", ("cuntz", "apply_monomial"): "apply",
    ("cuntz", "monomial_multiply"): "multiply",
    ("branching", "classify_vacuum"): "classify",
    ("branching", "basis_lambda_j"): "basis", ("branching", "basis_typej"): "basis",
    ("branching", "basis_onetwov"): "basis",
    ("embed", "encode_label"): "codec", ("embed", "decode_label"): "codec",
    ("embed", "odometer_action"): "odometer", ("embed", "odometer_isomorphism"): "odometer",
    ("embed", "odometer_index"): "odometer", ("embed", "odometer_boson"): "odometer",
    ("expr", "parse_expression"): "parse", ("expr", "eval_on_ket"): "eval",
    ("verify", "add"): "checks",
    ("cli", "main"): "call",
}

# Per-layer metric names, in the order BENCHMARK.json lists them.
OP_METRICS = {
    "scalar": ["add.calls", "add.mean_us", "mul.calls", "mul.mean_us", "eq.calls",
               "new.calls", "max_terms"],
    "words": ["letter_at.calls", "set_letter.calls", "set_letter.mean_us", "new.calls",
              "max_prefix_len"],
    "states": ["add.calls", "inner.calls", "inner.mean_us", "items.calls", "new.calls",
               "max_ket_terms"],
    "boson": ["ladder.calls", "ladder.mean_us"],
    "cuntz": ["apply.calls", "multiply.calls"],
    "branching": ["classify.calls", "basis.calls"],
    "embed": ["codec.calls", "codec.mean_us", "odometer.calls"],
    "expr": ["parse.calls", "parse.mean_us", "eval.calls"],
    "verify": ["checks"],
    "cli": ["call.mean_us"],
}


def metric_names() -> list[str]:
    """Every metric ``Tracer.metrics`` reports, in order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.self_share"]
        names += [f"{layer}.{m}" for m in OP_METRICS[layer]]
    return names + ["harness.self_s", "harness.self_share"]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "us" if name.endswith("_us") else "count"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.maxima: Counter = Counter()
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (set-up work before the timed region)."""
        self.calls.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.maxima.clear()

    def _wrap(self, layer: str, name: str, fn, probe=None):
        key = f"{layer}.{name}"
        stack = self._stack
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        perf = time.perf_counter
        probe_self = name == "__init__"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = perf()
            frame = [0.0]
            stack.append(frame)
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                self_time[layer] += end - start - frame[0]
                calls[key] += 1
                inclusive[key] += end - start
                if probe is not None and result is not _RAISED:
                    probe(args[0] if probe_self else result)
                if stack:  # the parent also sheds this bookkeeping and the probe
                    stack[-1][0] += perf() - start

        return span

    def install(self, package: str = "cuntzboson") -> None:
        """Wrap every layer module of ``package`` and rebind the wrappers everywhere."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        scalar, words, states = modules["scalar"], modules["words"], modules["states"]
        terms = scalar.RadicalScalar.terms
        scalar_size = self._max_probe("scalar.max_terms", scalar.RadicalScalar,
                                      lambda s: len(terms(s)))
        prefix_len = self._max_probe("words.max_prefix_len", words.EPWord, lambda w: len(w.prefix))
        ket_size = self._max_probe("states.max_ket_terms", states.Ket, len)
        probes = {  # where the sizes grow
            ("scalar", "__add__"): scalar_size, ("scalar", "__mul__"): scalar_size,
            ("words", "__init__"): prefix_len,
            ("states", "__init__"): ket_size, ("states", "__add__"): ket_size,
        }
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    replaced[id(obj)] = self._wrap(layer, name, obj)  # the wrapper keeps obj alive
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, probes)
        for module in list(modules.values()) + [importlib.import_module(package)]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in replaced:
                            obj[k] = replaced[id(v)]

    def _wrap_class(self, layer: str, cls, probes: dict) -> None:
        if issubclass(cls, BaseException):
            return
        wrappers: dict[int, object] = {}
        attrs = list(vars(cls).items())
        for name, attr in attrs:
            fn = attr.__func__ if isinstance(attr, classmethod) else attr
            if inspect.isfunction(fn) and (not name.startswith("_") or name in _DUNDERS):
                probe = probes.get((layer, fn.__name__))
                wrappers.setdefault(id(fn), self._wrap(layer, fn.__name__, fn, probe))
        for name, attr in attrs:  # second pass also rebinds aliases such as __float__
            if isinstance(attr, classmethod) and id(attr.__func__) in wrappers:
                setattr(cls, name, classmethod(wrappers[id(attr.__func__)]))
            elif id(attr) in wrappers:
                setattr(cls, name, wrappers[id(attr)])

    def _max_probe(self, key: str, cls, size):
        maxima = self.maxima

        def probe(obj) -> None:
            if isinstance(obj, cls):
                maxima[key] = max(maxima[key], size(obj))

        return probe

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts, times and maxima for a timed region of ``wall_s`` seconds."""
        op_calls: Counter = Counter()
        op_time: defaultdict = defaultdict(float)
        for key, n in self.calls.items():
            layer, _, name = key.partition(".")
            op = f"{layer}.{_OPS.get((layer, name), name)}"
            op_calls[op] += n
            op_time[op] += self.inclusive[key]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(n for k, n in self.calls.items() if k.startswith(layer + "."))
            out[f"{layer}.self_s"] = self.self_time[layer]
            out[f"{layer}.self_share"] = self.self_time[layer] / wall_s
            for metric in OP_METRICS[layer]:
                op, _, kind = f"{layer}.{metric}".rpartition(".")
                if kind == "calls":
                    out[f"{layer}.{metric}"] = op_calls[op]
                elif kind == "mean_us":
                    out[f"{layer}.{metric}"] = 1e6 * op_time[op] / op_calls[op] if op_calls[op] else 0.0
                elif kind == "checks":
                    out["verify.checks"] = op_calls["verify.checks"]
                else:
                    out[f"{layer}.{metric}"] = self.maxima[f"{layer}.{metric}"]
        out["harness.self_s"] = wall_s - sum(self.self_time[layer] for layer in LAYERS)
        out["harness.self_share"] = out["harness.self_s"] / wall_s
        return out
