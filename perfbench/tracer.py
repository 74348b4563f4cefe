"""Span recorder for the traced benchmark run.

While installed, every public function of the five library layers is
rebound, in every rainbowcover module namespace that holds it, with a
wrapper that times the call. Most calls become spans (name, start, end,
parent, job id); the few functions called thousands of times per job are
aggregated per job into a call count, total time and self time. Self time is
a call's duration minus the time its traced children took. Everything stays
in memory until the benchmark writes it out.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType

PACKAGE = "rainbowcover"
LAYERS = ("combinatorics", "coverage", "construct", "bounds", "exact")

# Called per subset, per candidate or per interval length: one span per call
# would cost more than the call itself.
AGGREGATED = frozenset({
    "subset_unrank", "subset_rank", "count_progressions",
    "random_coloring", "rainbow_colors",
})


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[int, str], dict] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack: list[list] = []  # [span id or None, child seconds]
        self._job = 0
        self._next_id = 0
        self._raised: set[int] = set()
        self._wrappers = self._build_wrappers()

    def _build_wrappers(self) -> dict:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj,
                                               name in AGGREGATED)
        return wrappers

    def _wrap(self, layer: str, qualname: str, fn, aggregated: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if not aggregated:
                span_id = self._next_id
                self._next_id += 1
            parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if id(exc) not in self._raised:  # count once, where it was raised
                    self._raised.add(id(exc))
                    self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self_s = duration - frame[1]
                if aggregated:
                    agg = self.aggregates.setdefault(
                        (self._job, qualname), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    agg["calls"] += 1
                    agg["total_s"] += duration
                    agg["self_s"] += self_s
                else:
                    self.spans.append({"job": self._job, "id": span_id, "parent": parent,
                                       "name": qualname, "start": start, "end": end,
                                       "self_s": self_s})
        return wrapper

    @contextmanager
    def installed(self):
        """Rebind the wrapped functions in every package module, then restore."""
        patched: list[tuple[ModuleType, str, object]] = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or (mod_name != PACKAGE
                                  and not mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    @contextmanager
    def job(self, name: str):
        """Root span of one benchmark job; every span inside shares its id."""
        self._job += 1
        self._raised.clear()
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        self._stack = [frame]
        start = perf_counter()
        try:
            yield self._job
        finally:
            end = perf_counter()
            self._stack = []
            self.spans.append({"job": self._job, "id": span_id, "parent": None,
                               "name": f"job:{name}", "start": start, "end": end,
                               "self_s": end - start - frame[1]})

    def self_seconds(self) -> dict[str, float]:
        """Total self time per function name, spans and aggregates together."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0.0) + span["self_s"]
        for (_, name), agg in self.aggregates.items():
            out[name] = out.get(name, 0.0) + agg["self_s"]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0) + 1
        for (_, name), agg in self.aggregates.items():
            out[name] = out.get(name, 0) + agg["calls"]
        return out

    def durations(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [{"job": job, "name": name, **agg}
                           for (job, name), agg in self.aggregates.items()],
            "errors": self.errors,
        }
