"""Spans around every public function of the ``conjlim`` layers and the
``numpy.linalg`` entry points beneath them, recorded from outside the
library by swapping module attributes for wrappers.

A span records its name, start, end, parent span and instance id in
in-memory arrays; nothing is aggregated while the workload runs.
:meth:`Tracer.summary` turns the spans into self times, call counts and
durations afterwards, and :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: Library modules whose public functions become spans named ``<layer>.<fn>``.
LAYERS = ("numkit", "criteria", "goodpath", "modifier", "pathsim", "cli")

#: ``numpy.linalg`` entry points, traced as ``linalg.<fn>``.  ``norm(x, 2)``
#: reaches ``svd`` through the implementation module's globals, so the
#: wrapper is installed there as well.
LINALG = ("svd", "solve", "lstsq", "det", "norm", "qr", "eigvals", "eigh", "inv")


def _linalg_namespaces():
    spaces = [np.linalg]
    for name in ("numpy.linalg._linalg", "numpy.linalg.linalg"):
        mod = sys.modules.get(name)
        if mod is not None and mod is not np.linalg:
            spaces.append(mod)
    return spaces


class Tracer:
    """Install with :meth:`install`, record while :attr:`active` is true,
    and put every original function back with :meth:`uninstall`."""

    def __init__(self, observers=None):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.inst = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.instance = -1
        self._observers = observers or {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        observe = self._observers.get(span_name)
        tr = self

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.inst.append(tr.instance)
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                tr._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, namespaces, originals: dict) -> None:
        """Replace every binding of an original function, under any name,
        in each namespace."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"conjlim.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        conjlim_spaces = [
            m for key, m in sys.modules.items() if key == "conjlim" or key.startswith("conjlim.")
        ]
        self._patch(conjlim_spaces, originals)
        linalg = {}
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            linalg[id(fn)] = self._wrap(f"linalg.{attr}", fn)
        self._patch(_linalg_namespaces(), linalg)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "inst": np.frombuffer(self.inst, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, **self.arrays())


class SpanSummary:
    """Self times, counts and durations per span name."""

    def __init__(self, names, name, parent, inst, start, end):
        self.names = list(names)
        self.name = name
        self.parent = parent
        self.inst = inst
        self.dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=self.dur[has_parent], minlength=name.size
        )
        self.self_time = self.dur - covered
        self._ids = {n: i for i, n in enumerate(self.names)}

    def _mask(self, span_name: str) -> np.ndarray:
        nid = self._ids.get(span_name, -1)
        return self.name == nid

    def calls(self, span_name: str) -> int:
        return int(self._mask(span_name).sum())

    def durations(self, span_name: str) -> np.ndarray:
        return self.dur[self._mask(span_name)]

    def instances(self, span_name: str) -> np.ndarray:
        return self.inst[self._mask(span_name)]

    def self_s(self, span_name: str) -> float:
        return float(self.self_time[self._mask(span_name)].sum())

    def layer_self_s(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def calls_under(self, span_name: str, ancestor: str) -> int:
        """Calls of ``span_name`` made, at any depth, inside ``ancestor``."""
        inside = self._mask(ancestor)
        hop = self.parent.copy()
        # pointer doubling: after round k, inside[i] covers 2^k ancestors
        while np.any(hop >= 0):
            up = hop >= 0
            inside[up] |= inside[hop[up]]
            hop[up] = hop[hop[up]]
        return int((inside & self._mask(span_name)).sum())
