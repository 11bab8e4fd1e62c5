"""Spans around calls into gyromean's public functions, kept in memory.

A span records its name, start, end and parent.  Wrappers are installed on
every binding of a public function, not only where it is defined: most
modules import their callees by name (``from .means import geo_mean``), so a
wrapper on the defining module alone would miss those calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# module -> layer; matrixio, cli, errors and fixtures are not measured
LAYERS = {
    "kernel": "kernel", "means": "means", "metrics": "metrics",
    "gyrocone": "gyrocone", "gyrodensity": "gyrodensity",
    "closedform2x2": "closedform2x2", "ball": "ball", "order": "order",
    "gyroaxioms": "gyroaxioms", "randgen": "randgen",
    "properties": "properties", "registry": "properties",
    "harness": "harness",
}
LAYER_NAMES = sorted(set(LAYERS.values()))
TIMED_KERNEL = ("eigh", "powm", "logm", "polar_unitary")


class Tracer:
    """Installs span wrappers on gyromean and counts numpy.linalg.eigh calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.eigh_calls = 0
        self.eigh_ns = 0
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name_of):
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_of(args))
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _count_eigh(self, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.eigh_ns += clock() - t0
                self.eigh_calls += 1

        return counted

    def _rebind(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every public function of each layer module wherever it is bound."""
        wrappers = {}
        for mod_name in LAYERS:
            module = importlib.import_module(f"gyromean.{mod_name}")
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                if (mod_name, name) == ("registry", "run_property"):
                    name_of = self._property_span
                else:
                    nid = self._name_id(f"{mod_name}.{name}")
                    name_of = lambda args, nid=nid: nid  # noqa: E731
                wrappers[id(fn)] = (fn, self._wrap(fn, name_of))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gyromean" and not mod_name.startswith("gyromean."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, hit[1])
        self._rebind(np.linalg, "eigh", self._count_eigh(np.linalg.eigh))

    def _property_span(self, args) -> int:
        return self._name_id(f"property.{args[0].property_id}")

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def save(self, path: Path) -> None:
        name, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def layer_metrics(self, property_ids) -> dict[str, float]:
        """Self time per layer, kernel medians and counts, per-property wall."""
        name, parent, start, end = self.arrays()
        dur = (end - start).astype(float) * 1e-9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer_of = np.array([LAYERS[n.split(".")[0]] if not n.startswith("property.")
                             else "properties" for n in self.names] or ["-"])
        span_layer = layer_of[name] if len(name) else np.array([], dtype=str)
        out = {f"{layer}.self_s": float(self_time[span_layer == layer].sum())
               for layer in LAYER_NAMES}
        for fn in TIMED_KERNEL:
            nid = self._ids.get(f"kernel.{fn}")
            picked = dur[name == nid] if nid is not None else dur[:0]
            out[f"kernel.{fn}_us"] = float(np.median(picked)) * 1e6 if len(picked) else 0.0
        out["kernel.lapack_eigh_calls"] = self.eigh_calls
        out["kernel.lapack_eigh_s"] = self.eigh_ns * 1e-9
        for pid in property_ids:
            nid = self._ids.get(f"property.{pid}")
            out[f"property.{pid}_s"] = float(dur[name == nid].sum()) if nid is not None else 0.0
        out["trace.spans"] = len(name)
        return out
