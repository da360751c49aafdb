"""Span and counter tracing of steklab's layers, installed from outside ``src/``.

The layers are the modules ``geometry``, ``steklov``, ``nodal``, ``frequency``
and ``lab``. While a ``Tracer`` is installed, every public function of those
modules and a few methods are replaced by wrappers. A wrapper records a span
(name, start, end, parent span, item id) in memory; the spans are written out
when the run ends. Methods called more than about 10^4 times in one run
(``BoundaryCurve.point``, ``SteklovEigenpair.trace_at``,
``ScalarField.__call__``) only count calls and points, because a span per
call would cost more than the call itself. The numpy/scipy entry points that
``steklov`` calls are wrapped too, and named after ``steklov``.

The wrappers are replaced on the module and class objects, so calls between
modules and inside a module (through its globals) are both seen. Names a
module imported from another one (``lab.build_dtn``) are wrapped as well.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np
import scipy.linalg

from steklab import frequency, geometry, lab, nodal, steklov

_MODULES = {
    "geometry": geometry, "steklov": steklov, "nodal": nodal, "frequency": frequency,
    "lab": lab,
}
LAYERS = tuple(_MODULES)

# (class, attribute, span name or None for counter-only, counter name, points)
# where points maps the call's arguments to the number of points it handled.
_METHODS = (
    (geometry.BoundaryCurve, "__init__", "geometry.curve_ctor", None, None),
    (geometry.BoundaryCurve, "point", None, "geometry.point",
     lambda self, t, *a, **k: np.size(t)),
    (geometry.BoundaryCurve, "nearest_point_many", "geometry.nearest_point_many",
     "geometry.nearest_point_many", lambda self, x, *a, **k: len(np.atleast_2d(x))),
    (geometry.BoundaryCurve, "max_tube_halfwidth", "geometry.max_tube_halfwidth",
     None, None),
    (steklov.SteklovEigenpair, "trace_at", None, "steklov.trace_at",
     lambda self, t, *a, **k: np.size(t)),
    (steklov.SteklovEigenpair, "evaluate_many", "steklov.evaluate_many",
     "steklov.evaluate_many", lambda self, x, *a, **k: len(np.atleast_2d(x))),
    (frequency.ScalarField, "__call__", None, "frequency.field",
     lambda self, x, *a, **k: len(np.atleast_2d(x))),
)

# numpy/scipy entry points used by steklov's DtN build and eigensolve
_EXTERNAL = (
    (np.linalg, "cond", "steklov.cond"),
    (scipy.linalg, "lu_factor", "steklov.lu_factor"),
    (scipy.linalg, "lu_solve", "steklov.lu_solve"),
    (scipy.linalg, "eigh", "steklov.eigh"),
)


class Tracer:
    """Records spans and counters while installed; restores everything on exit.

    Use as a context manager. ``item`` is the id stamped on new spans.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item]
        self.calls = {}
        self.points = {}
        self.item = None
        self._stack = []
        self._saved = []

    # -- wrappers ----------------------------------------------------------------

    def _count(self, name, n):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.points[name] = self.points.get(name, 0) + int(n)

    def _wrap(self, fn, span, counter=None, points=None):
        tracer = self
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._count(counter, points(*args, **kwargs))
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                tracer._count(counter, points(*args, **kwargs))
            else:
                tracer.calls[span] = tracer.calls.get(span, 0) + 1
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            rec = [span, time.perf_counter(), 0.0, parent, tracer.item]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- install / remove --------------------------------------------------------

    def __enter__(self):
        wrapped = {}  # original function -> wrapper, shared by every alias
        for layer, module in _MODULES.items():
            for name, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
        for module in _MODULES.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._replace(module, name, wrapped[obj])
        for cls, attr, span, counter, points in _METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, span, counter, points))
            else:
                new = self._wrap(raw, span, counter, points)
            self._replace(cls, attr, new)
        for owner, attr, span in _EXTERNAL:
            self._replace(owner, attr, self._wrap(owner.__dict__[attr], span))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
        return False

    # -- results -------------------------------------------------------------------

    def counts(self):
        """Every ``*.calls`` and ``*.points`` count, keyed by metric name."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update({f"{k}.points": v for k, v in self.points.items()})
        return out

    def self_times(self):
        """Per-span self time: duration minus the time its child spans cover."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def write(self, path):
        """Write the spans as JSON lines (name, start, end, parent, item)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def tail(values):
    """(value, percentile) of the highest percentile with 10 samples above it.

    None when there are 10 samples or fewer.
    """
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracers):
    """Per-layer metrics of the traced rounds: counts of the first round (the
    rounds repeat them exactly), times averaged over the rounds, latency
    percentiles over the calls of all rounds.

    Returns (metrics, notes): metrics maps name -> value, notes maps name ->
    a one-line explanation printed next to it (tail percentile, absences).
    """
    rounds = len(tracers)
    self_by_name, durations = {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for tr in tracers:
        for (name, start, end, _, _), own in zip(tr.spans, tr.self_times()):
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            durations.setdefault(name, []).append(end - start)
            layer_self[name.split(".", 1)[0]] += own
    counts = tracers[0].counts()
    metrics, notes = {}, {}
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = layer_self[layer] / rounds
    for name in PER_LAYER_SPANS:
        metrics[f"{name}.self_s"] = self_by_name.get(name, 0.0) / rounds
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    for name in PER_LAYER_POINTS:
        metrics[f"{name}.points"] = counts.get(f"{name}.points", 0)
    for name in PER_LAYER_LATENCY:
        samples = durations.get(name, [])
        metrics[f"{name}.p50_ms"] = 1e3 * float(np.median(samples)) if samples else 0.0
        found = tail(samples)
        if found is None:
            metrics[f"{name}.tail_ms"] = 0.0
            notes[f"{name}.tail_ms"] = f"absent: {len(samples)} calls, need more than 10"
        else:
            metrics[f"{name}.tail_ms"] = 1e3 * found[0]
            notes[f"{name}.tail_ms"] = (
                f"p{found[1]:.1f} of {len(samples)} calls over {rounds} rounds"
            )
    n_eval = counts.get("steklov.evaluate_many.points", 0)
    metrics["steklov.evaluate_many.us_per_point"] = (
        1e6 * metrics["steklov.evaluate_many.self_s"] / n_eval if n_eval else 0.0
    )
    for metric, num, den in RATIOS:
        base = counts.get(den, 0)
        metrics[metric] = counts.get(num, 0) / base if base else 0.0
        if not base:
            notes[metric] = f"absent: {den} is 0"
    return metrics, notes


# span names whose self time is reported
PER_LAYER_SPANS = (
    "geometry.curve_ctor",
    "geometry.nearest_point_many",
    "geometry.max_tube_halfwidth",
    "steklov.build_dtn",
    "steklov.cond",
    "steklov.lu_factor",
    "steklov.lu_solve",
    "steklov.eigh",
    "steklov.solve_spectrum",
    "steklov.evaluate_many",
    "nodal.boundary_zeros",
    "nodal.boundary_mass",
    "nodal.clipped_ball_mass",
    "nodal.domain_mass",
    "nodal.special_point_search",
    "nodal.doubling_profile",
    "frequency.v_transform",
    "lab.max_doubling_exponent",
    "lab.run_scaling_study",
)
PER_LAYER_CALLS = (
    "steklov.build_dtn",
    "geometry.point",
    "steklov.trace_at",
    "geometry.nearest_point_many",
    "steklov.evaluate_many",
    "frequency.field",
    "nodal.boundary_zeros",
    "nodal.boundary_mass",
    "nodal.clipped_ball_mass",
    "nodal.domain_mass",
    "nodal.doubling_profile",
    "lab.max_doubling_exponent",
)
PER_LAYER_POINTS = (
    "geometry.point",
    "steklov.trace_at",
    "geometry.nearest_point_many",
    "steklov.evaluate_many",
    "frequency.field",
)
PER_LAYER_LATENCY = (
    "nodal.boundary_zeros",
    "nodal.clipped_ball_mass",
    "lab.max_doubling_exponent",
)
# (metric, numerator count, denominator count)
RATIOS = (
    ("ratio.points_per_curve_call", "geometry.point.points", "geometry.point.calls"),
    ("ratio.points_per_trace_call", "steklov.trace_at.points",
     "steklov.trace_at.calls"),
    ("ratio.foot_points_per_eval_point", "geometry.nearest_point_many.points",
     "steklov.evaluate_many.points"),
)
