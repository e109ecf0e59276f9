"""Per-layer tracing of gllab from outside the package.

``Tracer.install()`` replaces the public functions of every layer module,
and the public methods, ``__call__`` and ``__init__`` of the classes those
modules define, with wrappers that record a span per call: layer, name,
start and end, kept on an in-memory stack.  A module-level function is
patched under every name that binds it in any ``gllab`` module, because
``schedule``, ``hypersurface`` and ``cli`` use ``from .x import name``.
Besides the public names, three bindings are wrapped to count work that has
no public boundary: ``glbend.brentq`` (scipy's root finder as bound in
``gllab.glbend``), ``schedule._standardize_search`` and
``schedule._mixed_torpedo_profiles`` (one call per standardization attempt).

A layer's self time is the duration of its spans minus the time covered by
child spans.  ``uninstall()`` restores every patched binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("fnspace", "curvature", "oracle", "glbend", "hypersurface",
          "schedule", "morsealg", "certify")

# name -> unit, in the order they are reported
PER_LAYER = {
    "fnspace.eval_calls": "count",
    "fnspace.eval_points": "count",
    "fnspace.eval_scalar_frac": "ratio",
    "fnspace.profiles_built": "count",
    "fnspace.build_s": "s",
    "fnspace.self_s": "s",
    "curvature.scalar_calls": "count",
    "curvature.scalar_points": "count",
    "curvature.slowdown_rounds": "count",
    "curvature.self_s": "s",
    "oracle.chart_points": "count",
    "oracle.metric_evals": "count",
    "oracle.self_s": "s",
    "glbend.brentq_calls": "count",
    "glbend.arc_samples": "count",
    "glbend.brentq_per_arc_sample": "ratio",
    "glbend.blend_points": "count",
    "glbend.evals_per_blend_point": "ratio",
    "glbend.self_s": "s",
    "hypersurface.leaves": "count",
    "hypersurface.gauss_points": "count",
    "hypersurface.self_s": "s",
    "schedule.segments": "count",
    "schedule.standardize_attempts": "count",
    "schedule.standardize_yield": "ratio",
    "schedule.self_s": "s",
    "morsealg.snf_calls": "count",
    "morsealg.snf_s": "s",
    "morsealg.deadline_hits": "count",
    "morsealg.self_s": "s",
    "certify.pmap_calls": "count",
    "certify.pmap_items": "count",
    "certify.pmap_s": "s",
    "certify.threads": "count",
    "certify.self_s": "s",
    "trace.overhead_s": "s",
}

# qualified name -> function (args, kwargs) giving the number of points
_T = lambda a, k: np.size(a[1]) if len(a) > 1 else np.size(k.get("t"))
POINTS = {
    "fnspace.SmoothFn1D.__call__": _T,
    "fnspace.SmoothFn1D.d1": _T,
    "fnspace.SmoothFn1D.d2": _T,
    "fnspace.SmoothFn1D.d3": _T,
    "curvature.scalar_warped": _T,
    "curvature.scalar_doubly_warped": _T,
    "curvature.scalar_cyl_family":
        lambda a, k: np.broadcast(np.asarray(a[1]), np.asarray(a[2])).size,
    "glbend.GraphSeg.eval": _T,
    "hypersurface.gauss_scalar_on_M": lambda a, k: np.size(a[2]),
    "hypersurface.connected_sum_foliation":
        lambda a, k: len(k["nu_grid"] if "nu_grid" in k else a[2]),
    "certify.pmap": lambda a, k: len(a[1]) if len(a) > 1 else 0,
}
_SMOOTH_EVALS = tuple(f"fnspace.SmoothFn1D.{m}"
                      for m in ("__call__", "d1", "d2", "d3"))
_BLEND_EVALS = {f"glbend.InverseBlend.{m}": (2 if m == "d3" else 1)
                for m in ("__call__", "d1", "d2", "d3")}
_CURV_SCALAR = ("curvature.scalar_warped", "curvature.scalar_doubly_warped",
                "curvature.scalar_cyl_family")
_EXTRA = (("glbend", "brentq"), ("schedule", "_standardize_search"),
          ("schedule", "_mixed_torpedo_profiles"))


class Tracer:
    """Span stack and per-name aggregates for one traced section."""

    def __init__(self):
        self.stack = []            # [layer, name, start, child_time]
        self.calls = Counter()
        self.raised = Counter()
        self.points = Counter()
        self.scalar_calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()     # (parent name, name) -> calls
        self.results = Counter()   # name -> segments/stages returned
        self.blend_seen = set()
        self.blend_points = 0
        self.deadline_layers = Counter()
        self._patches = []         # (owner, attribute, original)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, layer, name):
        points_of = POINTS.get(name)
        blend_weight = _BLEND_EVALS.get(name)
        count_segments = name in ("schedule.compile_gl_cobordism",
                                  "schedule.compile_reverse",
                                  "schedule.two_surgery_demo")
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            self.calls[name] += 1
            self.edges[(parent, name)] += 1
            if points_of is not None:
                self.points[name] += int(points_of(args, kwargs))
            if name in _SMOOTH_EVALS and np.ndim(args[1]) == 0:
                self.scalar_calls[name] += 1
            if blend_weight is not None:
                self._note_blend(args, blend_weight)
            frame = [layer, name, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                dur = clock() - frame[2]
                stack.pop()
                self.self_s[layer] += dur - frame[3]
                if not any(f[1] == name for f in stack):
                    self.inclusive[name] += dur
                if stack:
                    stack[-1][3] += dur
            if count_segments:
                self.results[name] += _segment_count(out)
            return out
        return traced

    def _note_blend(self, args, weight):
        t = np.asarray(args[1], dtype=float)
        key = (id(args[0]), t.shape, t.tobytes())
        self.points["glbend.blend_evals"] += weight * t.size
        if key not in self.blend_seen:
            self.blend_seen.add(key)
            self.blend_points += t.size

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = [importlib.import_module(f"gllab.{m}") for m in LAYERS]
        every = [m for k, m in sorted(sys.modules.items())
                 if k == "gllab" or k.startswith("gllab.")]
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer, f"{layer}.{attr}")
                elif inspect.isfunction(obj) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    self._rebind(every, obj, layer, f"{layer}.{attr}")
        for layer, attr in _EXTRA:
            mod = mods[LAYERS.index(layer)]
            self._rebind(every, getattr(mod, attr), layer, f"{layer}.{attr}")

    def _rebind(self, modules, fn, layer, name):
        wrapper = self._wrap(fn, layer, name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    self._patch(mod, attr, wrapper)

    def _wrap_class(self, cls, layer, qual):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{qual}.{attr}"
            if isinstance(obj, (staticmethod, classmethod)):
                self._patch(cls, attr,
                            type(obj)(self._wrap(obj.__func__, layer, name)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, layer, name))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- deadline attribution -------------------------------------------

    def note_deadline(self):
        """Record the layer of the innermost span a deadline interrupted."""
        if self.stack:
            self.deadline_layers[self.stack[-1][0]] += 1

    # -- metrics --------------------------------------------------------

    def metrics(self, threads, rounds):
        """Per-layer metrics, each count and time divided by ``rounds``."""
        c, p, inc = self.calls, self.points, self.inclusive
        ev_calls = sum(c[n] for n in _SMOOTH_EVALS)
        arc = p["glbend.GraphSeg.eval"]
        attempts = self.edges[("schedule._standardize_search",
                               "schedule._mixed_torpedo_profiles")]
        std_ok = c["schedule._standardize_search"] \
            - self.raised["schedule._standardize_search"]
        per = {
            "fnspace.eval_calls": ev_calls,
            "fnspace.eval_points": sum(p[n] for n in _SMOOTH_EVALS),
            "fnspace.eval_scalar_frac": _ratio(
                sum(self.scalar_calls.values()), ev_calls),
            "fnspace.profiles_built": c["fnspace.SmoothFn1D.__init__"],
            "fnspace.build_s": inc["fnspace.SmoothFn1D.__init__"],
            "curvature.scalar_calls": sum(c[n] for n in _CURV_SCALAR),
            "curvature.scalar_points": sum(p[n] for n in _CURV_SCALAR),
            "curvature.slowdown_rounds": self.edges[
                ("curvature.slowdown_concordance",
                 "curvature.make_smoothstep")],
            "oracle.chart_points": c["oracle.scalar_from_chart"],
            "oracle.metric_evals": c["oracle.MetricChart.metric"],
            "glbend.brentq_calls": c["glbend.brentq"],
            "glbend.arc_samples": arc,
            "glbend.brentq_per_arc_sample": _ratio(
                self.edges[("glbend.GraphSeg.eval", "glbend.brentq")], arc),
            "glbend.blend_points": self.blend_points,
            "glbend.evals_per_blend_point": _ratio(
                p["glbend.blend_evals"], self.blend_points),
            "hypersurface.leaves": p["hypersurface.connected_sum_foliation"],
            "hypersurface.gauss_points": p["hypersurface.gauss_scalar_on_M"],
            "schedule.segments": sum(self.results.values()),
            "schedule.standardize_attempts": attempts,
            "schedule.standardize_yield": _ratio(std_ok, attempts),
            "morsealg.snf_calls": c["morsealg.smith_normal_form"],
            "morsealg.snf_s": inc["morsealg.smith_normal_form"],
            "morsealg.deadline_hits": self.deadline_layers["morsealg"],
            "certify.pmap_calls": c["certify.pmap"],
            "certify.pmap_items": p["certify.pmap"],
            "certify.pmap_s": inc["certify.pmap"],
        }
        for layer in LAYERS:
            per[f"{layer}.self_s"] = self.self_s[layer]
        ratios = {k for k, u in PER_LAYER.items() if u == "ratio"}
        out = {k: (v if k in ratios else v / rounds) for k, v in per.items()}
        out["certify.threads"] = threads
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _segment_count(out):
    if isinstance(out, tuple):          # compile_reverse: (schedule, report)
        out = out[0]
    if hasattr(out, "segments"):
        return len(out.segments)
    return len(getattr(out, "stages", ()))
