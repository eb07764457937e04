"""Spans and counters recorded around the public functions of zdgames.

The tracer rebinds every public function of the seven layer modules (and
every other module attribute that refers to one, such as the re-exports in
``zdgames`` itself or ``zd``'s imported ``expected_scores``) to a wrapper,
so calls between layers are recorded too.  Nothing in the library is
edited: ``install`` swaps the attributes in and ``uninstall`` puts the
originals back, which lets one run alternate untraced and traced operations.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the operation id shared by all
spans of one benchmark operation.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("model", "chain", "zd", "extortion", "simulate", "documents", "cli")

# exceptions that per-layer counters report by name
COUNTED_RAISES = {
    "chain.stationary": ("NonUniqueStationary", "nonunique"),
    "zd.score_combination": ("DegenerateDenominator", "degenerate"),
    "zd.pin_opponent_score": ("NoFeasiblePin", "failed"),
}


def _record_outcome(tracer, name, args, kwargs, result):
    if name in ("zd.synthesize_zd_alpha", "zd.synthesize_zd_beta", "extortion.extortion_strategy"):
        tracer.counts[f"{name}.feasible"] += int(result.feasible)
    elif name == "simulate.play":
        config = args[3] if len(args) > 3 else kwargs["config"]
        tracer.counts["simulate.play.rounds"] += config.rounds


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = "setup"
        self._stack = []
        self._saved = []
        self._wrappers = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counted = COUNTED_RAISES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                stack.pop()
                if counted and type(exc).__name__ == counted[0]:
                    self.counts[f"{name}.{counted[1]}"] += 1
                raise
            span[2] = perf_counter()
            stack.pop()
            _record_outcome(self, name, args, kwargs, result)
            return result

        return traced

    def _build(self):
        modules = [importlib.import_module(f"zdgames.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [vars(importlib.import_module("zdgames"))] + [vars(m) for m in modules]
        return wrappers, namespaces

    def install(self):
        if self._wrappers is None:
            self._wrappers = self._build()
        wrappers, namespaces = self._wrappers
        for namespace in namespaces:
            for attr, obj in list(namespace.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((namespace, attr, obj))
                    namespace[attr] = wrapper

    def uninstall(self):
        for namespace, attr, obj in self._saved:
            namespace[attr] = obj
        self._saved.clear()

    def extend(self, spans, op):
        """Append spans recorded by another process, re-based and re-labelled."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def summarize(spans):
    """Per-name calls, busy (inclusive) and self time; per-layer self time.

    Self time is a span's duration minus the durations of its direct
    children, so every recorded second is attributed to exactly one layer.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    busy = defaultdict(float)
    own = defaultdict(float)
    layer_self = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        busy[name] += duration
        own[name] += duration - child_time[index]
        layer_self[name.split(".", 1)[0]] += duration - child_time[index]
    return calls, busy, own, layer_self


def children_per_call(spans, parent_name, child_names):
    """Mean number of direct children named in ``child_names`` per ``parent_name`` span."""
    parents = [i for i, span in enumerate(spans) if span[0] == parent_name]
    if not parents:
        return 0.0
    wanted = set(parents)
    hits = sum(1 for span in spans if span[3] in wanted and span[0] in child_names)
    return hits / len(parents)
