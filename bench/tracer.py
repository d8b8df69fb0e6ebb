"""Layer tracer for ifs-lab, kept entirely in the benchmark's own files.

`Tracer.install()` replaces every public function of the eight ifs_lab
modules at every import site (the defining module, every module that bound
it by name, and the package namespace), plus the evaluation methods of each
generator class and `IfsSystem.apply_word`.  `uninstall()` restores the
originals.

Two kinds of wrapper share one frame stack:

* span wrappers record one span per call (id, parent span, layer, name,
  start, end, self time) for the coarse layer calls;
* hot wrappers (scalar generator methods, circle helpers, per-level
  callbacks and other per-point helpers) only add to per-name totals, so
  memory stays bounded however long a search runs.

Every frame accumulates the time of its children, so self time is the
frame's duration minus its children.  The bottom frame is the harness: its
child time is the total time spent inside any layer, and the rest of the
traced wall time is unattributed harness time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

LAYERS = ("circle", "generators", "symbolic", "semigroup", "detectors",
          "smooth", "gallery", "cli")

# Public functions called per point, per level or per word: totals, no spans.
_HOT_FUNCTIONS = {
    "circle": None,  # every circle helper
    "detectors": {"max_cyclic_gap", "uniform_net"},
    "semigroup": {"word_derivative", "compose_word"},
    "symbolic": {"concat", "validate_word", "enumerate_words"},
}
_GENERATOR_METHODS = ("lift", "lift_array", "eval", "eval_array", "derivative", "inverse")
TYPE_NAMES = {"Rotation": "rotation", "Flip": "flip", "NorthSouth": "north_south",
              "PiecewiseLinear": "piecewise_linear", "Expanding": "expanding"}

# Spans kept in memory for the trace file; later calls are still aggregated.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        # frame: [child_seconds, id of the innermost enclosing span, its layer]
        self.stack: List[list] = [[0.0, None, "harness"]]
        # (layer, name) -> [calls, total_seconds, self_seconds]
        self.calls: Dict[Tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, int] = defaultdict(int)
        # scalar lift/derivative calls by the layer of the span that made them
        self.scalar_from: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self._next_id = 0
        self._in_orbit_cloud = 0
        self._patches: List[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _hot(self, key, fn, after=None):
        """Aggregate-only wrapper; `after(args, caller_layer)` runs on exit."""
        stack, agg, clock = self.stack, self.calls[key], time.perf_counter

        def wrapper(*args, **kwargs):
            top = stack[-1]
            frame = [0.0, top[1], top[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                top[0] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if after is not None:
                    after(args, top[2])

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, key, fn, after=None):
        """Span wrapper; `after(result)` runs on a normal return."""
        stack, agg, clock = self.stack, self.calls[key], time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            top = stack[-1]
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, sid, key[0]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                top[0] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, top[1], key[0], key[1], t0, t1, dt - frame[0]))
                else:
                    tracer.dropped_spans += 1
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _iterator(self, key, fn):
        """Generator functions do their work while being iterated, so each
        step is a hot call."""
        step = self._hot(key, next)
        counters = self.counters

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def traced():
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    counters["words_enumerated"] += 1
                    yield item
            return traced()

        wrapper.__wrapped__ = fn
        return wrapper

    def _method(self, kind: str, name: str, fn):
        """A generator-class method, counted per generator type."""
        counters, scalar_from, tracer = self.counters, self.scalar_from, self
        after = None
        if name in ("lift", "derivative"):
            scalar_key = f"scalar_evals.{kind}"

            def after(args, caller_layer):
                counters[scalar_key] += 1
                scalar_from[caller_layer] += 1
        elif name == "lift_array":
            points_key = f"array_points.{kind}"

            def after(args, caller_layer):
                counters[points_key] += len(args[1])
                if tracer._in_orbit_cloud:
                    counters["orbit_array_points"] += len(args[1])
        return self._hot(("generators", name), fn, after)

    def _orbit_cloud(self, fn):
        """orbit_cloud counts its levels and points, and its stop_when
        callback is timed as the caller's (detectors) code."""
        tracer, counters = self, self.counters
        stop_key = ("detectors", "orbit_cloud.stop_when")

        def counted(*args, **kwargs):
            if kwargs.get("stop_when") is not None:
                kwargs["stop_when"] = tracer._hot(stop_key, kwargs["stop_when"])
            tracer._in_orbit_cloud += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_orbit_cloud -= 1

        def after(cloud):
            counters["orbit_levels"] += cloud.depth_reached
            counters["orbit_points"] += int(cloud.values.size) - 1

        return self._span(("semigroup", "orbit_cloud"), counted, after)

    def _function(self, layer: str, name: str, fn):
        key = (layer, name)
        counters = self.counters
        if name == "orbit_cloud":
            return self._orbit_cloud(fn)
        if inspect.isgeneratorfunction(fn):
            return self._iterator(key, fn)
        hot = _HOT_FUNCTIONS.get(layer, set())
        if hot is None or name in hot:
            return self._hot(key, fn)
        if name == "system_net":
            def after(net):
                counters["net_points"] += len(net)
            return self._span(key, fn, after)
        if name == "render_report":
            def after(text):
                counters["report_bytes"] += len(text.encode("utf-8"))
            return self._span(key, fn, after)
        return self._span(key, fn)

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import ifs_lab
        mods = {layer: sys.modules[f"ifs_lab.{layer}"] for layer in LAYERS}
        replacements = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replacements[id(obj)] = self._function(layer, name, obj)
        # rebind at every import site, the package namespace included
        for mod in list(mods.values()) + [ifs_lab]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replacements:
                    self._set(mod, attr, replacements[id(obj)])
        gens = mods["generators"]
        for cls in [gens.Generator] + [getattr(gens, c) for c in TYPE_NAMES]:
            kind = TYPE_NAMES.get(cls.__name__, "base")
            for meth in _GENERATOR_METHODS:
                if meth in vars(cls):
                    self._set(cls, meth, self._method(kind, meth, vars(cls)[meth]))
        ifs_cls = mods["semigroup"].IfsSystem
        for meth in ("apply_word", "apply_inverse_word"):
            self._set(ifs_cls, meth, self._hot(("semigroup", meth), vars(ifs_cls)[meth]))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    @property
    def layer_seconds(self) -> float:
        """Time spent inside any layer call, harness excluded."""
        return self.stack[0][0]

    def self_seconds(self, layer: str) -> float:
        return sum(v[2] for (lay, _), v in self.calls.items() if lay == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v[0] for (lay, _), v in self.calls.items() if lay == layer)

    def stat(self, layer: str, name: str) -> tuple:
        """(calls, total_seconds, self_seconds) of one wrapped function."""
        return tuple(self.calls.get((layer, name), (0, 0.0, 0.0)))

    def write(self, path: str, meta: dict) -> None:
        doc = {
            "meta": meta,
            "calls": [{"layer": k[0], "name": k[1], "calls": v[0], "total_s": v[1],
                       "self_s": v[2]} for k, v in sorted(self.calls.items())],
            "counters": dict(sorted(self.counters.items())),
            "scalar_evals_by_calling_layer": dict(sorted(self.scalar_from.items())),
            "span_fields": ["id", "parent", "layer", "name", "start", "end", "self_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
