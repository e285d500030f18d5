"""Per-layer spans placed around the program's public functions.

The layers are the package's modules.  ``install`` wraps every public
function of each layer (no leading underscore, defined in that module), plus
the ``Ket`` and ``Operator`` constructors, and rebinds the wrapper under every
``qparity.*`` name that holds the same object, so that ``run_module`` is
traced whether it is called through ``qparity.module``, ``qparity.cli`` or
``qparity.verify``.  ``restore`` puts every original back.

Spans are kept in memory: name, start, end, parent index and an optional
measured value.  The program is single-threaded, so a stack gives parents.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "module", "states", "linalg", "solver", "verify", "reports")
CONSTRUCTORS = (("linalg", "Ket", "linalg.ket"), ("linalg", "Operator", "linalg.operator"))
NAMED_FAMILIES = frozenset({"GHZ", "W", "DICKE", "G", "G_GENERAL"})


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    value: float = 0.0


def public_functions(layers=LAYERS) -> dict[int, tuple[str, object]]:
    """id(original) -> (span name, original) for every public function."""
    found = {}
    for layer in layers:
        mod = sys.modules[f"qparity.{layer}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


class Patches:
    """Rebinds wrappers into the qparity namespaces and undoes it."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def install(self, make_wrapper, layers=LAYERS) -> None:
        targets = public_functions(layers)
        wrappers = {key: make_wrapper(name, fn) for key, (name, fn) in targets.items()}
        namespaces = [m for k, m in sorted(sys.modules.items()) if k == "qparity" or k.startswith("qparity.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    self._set(mod, attr, obj, wrappers[id(obj)])
        for layer, cls_name, span_name in CONSTRUCTORS:
            if layer in layers:
                cls = getattr(sys.modules[f"qparity.{layer}"], cls_name)
                init = vars(cls)["__init__"]
                self._set(cls, "__init__", init, make_wrapper(span_name, init))

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self.saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _file_mb(args, kwargs, result) -> float:
    return os.path.getsize(args[0] if args else kwargs["path"]) / 1e6


# Values recorded on the span of a function call, from its arguments or result.
MEASURES = {
    "states.classify": lambda args, kwargs, result: float(result.family.name in NAMED_FAMILIES),
    "reports.canonical_json": lambda args, kwargs, result: float(len(result.encode())),
    "cli.load_amplitude_file": _file_mb,
}


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = Patches()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                span.value = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self._patches.install(self.wrap)

    def restore(self) -> None:
        self._patches.restore()


class AllocProbe:
    """Peak traced allocation of each outermost ``module`` call, in bytes.

    tracemalloc slows Python-heavy code several times over, so it runs in a
    pass of its own and never in a pass whose time is reported.
    """

    def __init__(self) -> None:
        self.peak: Counter = Counter()
        self._depth = 0
        self._patches = Patches()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            outermost = self._depth == 0
            if outermost:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if outermost:
                    used = tracemalloc.get_traced_memory()[1] - base
                    self.peak[name] = max(self.peak[name], used)

        return probed

    def install(self) -> None:
        tracemalloc.start()
        self._patches.install(self.wrap, layers=("module",))

    def restore(self) -> None:
        self._patches.restore()
        tracemalloc.stop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - child[i] for i, s in enumerate(spans)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def pass_metrics(spans: list[Span], pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``<layer>.calls`` counts entries into the layer from outside it;
    ``<layer>.<function>.calls`` counts every call of that function.
    """
    selfs = self_times(spans)
    fn_self: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    fn_calls: Counter = Counter()
    layer_calls: Counter = Counter()
    for i, s in enumerate(spans):
        layer = layer_of(s.name)
        fn_self[s.name] += selfs[i]
        layer_self[layer] += selfs[i]
        fn_calls[s.name] += 1
        if s.parent < 0 or layer_of(spans[s.parent].name) != layer:
            layer_calls[layer] += 1
    classify = [s for s in spans if s.name == "states.classify"]
    fidelity_evals = sum(
        1 for s in spans if s.name == "linalg.fidelity" and s.parent >= 0 and spans[s.parent].name == "states.classify"
    )
    report_bytes = sum(
        s.value
        for s in spans
        if s.name == "reports.canonical_json" and (s.parent < 0 or spans[s.parent].name != "reports.with_checksum")
    )
    covered = sum(s.end - s.start for s in spans if s.parent < 0)
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    metrics.update(
        {
            "states.classify.calls": len(classify),
            "states.classify.fidelity_evals": fidelity_evals,
            "states.classify.named_hit_ratio": sum(s.value for s in classify) / len(classify) if classify else 0.0,
            "states.dicke_decompose.self_s": fn_self["states.dicke_decompose"],
            "module.run_module.calls": fn_calls["module.run_module"],
            "module.run_module.self_s": fn_self["module.run_module"],
            "linalg.ket.calls": fn_calls["linalg.ket"],
            "linalg.ket.self_s": fn_self["linalg.ket"],
            "linalg.operator.calls": fn_calls["linalg.operator"],
            "linalg.operator.self_s": fn_self["linalg.operator"],
            "linalg.fidelity.self_s": fn_self["linalg.fidelity"],
            "module.build_projectors.calls": fn_calls["module.build_projectors"],
            "module.build_projectors.self_s": fn_self["module.build_projectors"],
            "module.outcome_distribution.self_s": fn_self["module.outcome_distribution"],
            "cli.load_amplitude_file.self_s": fn_self["cli.load_amplitude_file"],
            "cli.load_amplitude_file.mb": sum(s.value for s in spans if s.name == "cli.load_amplitude_file"),
            "solver.calls": layer_calls["solver"],
            "reports.bytes": report_bytes,
            "trace.uncovered_ratio": (pass_wall - covered) / pass_wall,
        }
    )
    return metrics


def top_functions(spans: list[Span], count: int = 5) -> list[tuple[str, float]]:
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return sorted(totals.items(), key=lambda kv: -kv[1])[:count]
