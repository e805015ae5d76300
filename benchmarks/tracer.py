"""Span recorder for the traced benchmark run, built outside the library.

``Tracer.install`` wraps every public function of the eight layer modules
wherever an ``irrevkit`` module binds it (``qcore.embed`` is wrapped in
``qcore``'s own namespace, so ``qcore.apply -> qcore.embed`` is a span too)
and the ``__post_init__`` validation of every class those modules define
(span ``qcore.KrausChannel`` and so on, so constructor counts are span
counts and validation time lands in the class's own layer). It also counts
``numpy.linalg.eigh`` calls. ``uninstall`` puts every original back. Spans
are kept in memory as ``(name, start, end, parent)`` tuples, ``parent``
being the index of the enclosing span or -1.

Definitions used by ``summarize``, for a function, a layer or a group:

- exclusive time of a span: its duration minus the durations of its direct
  children;
- ``ms``: summed duration of the spans that are not nested in another span
  with the same key. For a layer this is its busy time;
- ``self_ms``: summed exclusive time. For a layer this equals busy time minus
  the time covered by child spans into other layers, because the modules
  import one another in one direction and so never re-enter a layer;
- ``calls``: number of spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("qcore", "irrev", "comb", "oracles", "way", "otoc", "serialize", "cli")


class Tracer:
    """Records spans and counts while installed; ``reset`` clears them between passes."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.delta_min_calls = []  # (span index, dim_in, accepted steps)
        self._stack = []
        self._undo = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.delta_min_calls.clear()

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "irrevkit" or n.startswith("irrevkit.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"irrevkit.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._patch(obj, "__post_init__", self._wrap(obj.__post_init__, f"{layer}.{attr}"))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(ns, attr, wrapper)
        self._patch(np.linalg, "eigh", self._counting(np.linalg.eigh, "numpy.eigh.calls"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _counting(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        is_delta_min = name == "irrev.delta_min"
        delta_min_calls = self.delta_min_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if is_delta_min:
                delta_min_calls.append((index, args[0].dim_in, len(result.optimizer_trace) - 1))
            return result

        return traced


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, groups=()) -> dict:
    """Time totals in seconds and span counts, keyed by function, layer and group.

    Each span counts under its function name (``qcore.embed``), its layer
    (``qcore``) and every group in ``groups`` that prefixes the function
    name up to an underscore (``serialize.decode`` covers
    ``serialize.decode_state``). Returns ``{"ms": ..., "self_ms": ...,
    "calls": ...}``, where ``ms`` leaves out spans nested in a span with the
    same key. ``spans`` must list every parent before its children, as
    ``Tracer`` records them.
    """
    n = len(spans)
    child = [0.0] * n
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inside = [None] * n  # keys of span i and of every span enclosing it
    keys_of = {}
    ms, self_ms, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        keys = keys_of.get(name)
        if keys is None:
            keys = keys_of[name] = frozenset(
                [name, layer_of(name)] + [g for g in groups if name.startswith(g + "_")]
            )
        above = inside[parent] if parent >= 0 else frozenset()
        inside[i] = above | keys
        dur = end - start
        for key in keys:
            if key not in above:
                ms[key] += dur
            self_ms[key] += dur - child[i]
            calls[key] += 1
    return {"ms": dict(ms), "self_ms": dict(self_ms), "calls": dict(calls)}
