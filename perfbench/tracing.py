"""In-memory span tracer and the wrappers that attach it to subgeo's layers.

Spans are recorded one by one, with their parent span and run identifier,
for the coarse layer boundaries: suite runs, scenario builds, check
executions, ``_PointFrame`` builds, frame-cache misses, geodesic
integration and the curve-residual functions.  The hot leaves (expression
evaluation, linear solves, connection values, ...) run 10^5-10^6 times a
run, so each is aggregated into call count, total time and self time per
enclosing span; ``Jet`` arithmetic is only counted.  A span's or leaf's
self time is its duration minus the time covered by its children.

Everything is patched from outside the package, in every namespace that
holds the entry point (``from x import f`` copies the name), so a traced
process computes exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class _Frame:
    """An open span or leaf call; ``owner`` is the span that aggregates it."""

    __slots__ = ("id", "name", "parent", "run", "start", "child", "owner",
                 "leaves", "counts")

    def __init__(self, span_id, name, parent, run):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = 0.0
        self.child = 0.0
        self.owner = self
        self.leaves = {}                # leaf name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)  # counted-only operations

    def record(self, dur):
        return {
            "id": self.id, "parent": self.parent, "run": self.run,
            "name": self.name, "start": self.start, "dur": dur,
            "self": dur - self.child, "leaves": self.leaves,
            "counts": dict(self.counts),
        }


class _Leaf:
    """An open call of an aggregated leaf; lighter than a span frame."""

    __slots__ = ("name", "owner", "child")

    def __init__(self, name, owner):
        self.name = name
        self.owner = owner
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.run_id = ""
        self.records = []
        self.root = _Frame(0, "root", None, "")
        self.stack = [self.root]
        self.counters = defaultdict(int)  # process-wide counts (caches, points)
        self.errors = defaultdict(int)    # (name, exception type) -> count
        self.missing = []                 # entry points that were not found
        self.replaced = []                # (label, original) of patched callables
        self._ids = 0

    # -- wrappers ---------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1]
        self._ids += 1
        frame = _Frame(self._ids, name, parent.owner.id, self.run_id)
        self.stack.append(frame)
        return parent, frame

    def span(self, name, fn, cache_attr=None):
        """Record each call as a span.  With ``cache_attr``, a call that adds
        nothing to ``self.<cache_attr>`` of its first argument is a cache hit
        and is folded into the enclosing span as the leaf ``name + '.hit'``."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, frame = tracer._open(name)
            before = _cache_len(args[0], cache_attr) if cache_attr else None
            frame.start = start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                dur = clock() - start
                tracer.stack.pop()
                parent.child += dur
                if before is None or _cache_len(args[0], cache_attr) != before:
                    tracer.records.append(frame.record(dur))
                else:
                    _merge_into(parent.owner, frame)
                    _add_leaf(parent.owner, name + ".hit", 1, dur, dur - frame.child)

        return wrapper

    def leaf(self, name, fn, reentrant=False):
        """Aggregate calls into the enclosing span.  With ``reentrant`` a
        call made directly inside another call of the same leaf (recursion,
        or one kernel calling its sibling) is folded into the outer one."""
        stack = self.stack
        errors = self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if reentrant and parent.name == name:
                return fn(*args, **kwargs)
            frame = _Leaf(name, parent.owner)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                parent.child += dur
                _add_leaf(frame.owner, name, 1, dur, dur - frame.child)

        return wrapper

    def counter(self, name, fn):
        """Count calls per enclosing span, without timing them."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack[-1].owner.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def cached(self, name, attr, fn):
        """Count calls of a point-keyed cache accessor and the entries it
        adds to ``obj.<attr>``; the caches never evict, so fills = misses."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            cache = getattr(obj, attr, None)
            before = len(cache) if cache is not None else 0
            try:
                return fn(obj, *args, **kwargs)
            finally:
                counters[name + ".calls"] += 1
                if cache is not None and len(cache) > before:
                    counters[name + ".fills"] += 1

        return wrapper

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Span totals, leaf totals and counts summed over all spans."""
        spans = defaultdict(lambda: [0, 0.0, 0.0])
        leaves = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(int)
        for rec in self.records + [self.root.record(0.0)]:
            if rec["name"] != "root":
                _accumulate(spans[rec["name"]], 1, rec["dur"], rec["self"])
            for name, agg in rec["leaves"].items():
                _accumulate(leaves[name], *agg)
            for name, n in rec["counts"].items():
                counts[name] += n
        return {
            "spans": dict(spans),
            "leaves": dict(leaves),
            "counts": dict(counts),
            "counters": dict(self.counters),
            "errors": {f"{n}:{e}": c for (n, e), c in sorted(self.errors.items())},
            "missing": list(self.missing),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _accumulate(agg, calls, total, self_s):
    agg[0] += calls
    agg[1] += total
    agg[2] += self_s


def _add_leaf(owner, name, calls, total, self_s):
    agg = owner.leaves.get(name)
    if agg is None:
        agg = owner.leaves[name] = [0, 0.0, 0.0]
    _accumulate(agg, calls, total, self_s)


def _merge_into(owner, frame):
    """Fold a demoted span's aggregates into the span that owns it."""
    for name, n in frame.counts.items():
        owner.counts[name] += n
    for name, agg in frame.leaves.items():
        _add_leaf(owner, name, *agg)


def _cache_len(obj, attr):
    cache = getattr(obj, attr, None)
    return None if cache is None else len(cache)


# -- installation -----------------------------------------------------------

def subgeo_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "subgeo" or n.startswith("subgeo."))]


def _patch_function(tracer, module, attr, make):
    """Replace ``module.attr`` in every subgeo namespace that holds it."""
    original = getattr(module, attr, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return
    wrapper = make(original)
    tracer.replaced.append((f"{module.__name__}.{attr}", original))
    for mod in subgeo_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(tracer, module, cls_name, attr, make):
    """Replace ``module.cls_name.attr`` and every alias of it in the class body."""
    label = f"{module.__name__}.{cls_name}.{attr}"
    cls = getattr(module, cls_name, None)
    original = None if cls is None else cls.__dict__.get(attr)
    if original is None:
        tracer.missing.append(label)
        return
    wrapper = make(original)
    tracer.replaced.append((label, original))
    for key, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, key, wrapper)


# Jet arithmetic that is counted; __radd__ and __rmul__ alias __add__ and
# __mul__ and are patched with them.
JET_OPS = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
           "__truediv__", "__rtruediv__", "_chain")

GEOMETRY_KERNELS = (
    "torsion_values", "nabla_g_values", "cubic_values", "statistical_residual",
    "duality_residual", "curvature_values", "curvature_duality_residual",
    "constant_curvature_residual", "dual_formula_residual",
)

CURVE_RESIDUALS = (
    "curve_decomposition_residuals", "sigma_second_residuals",
    "projection_condition_residuals", "geodesic_residual", "energy_drift",
)


def install(tracer: Tracer) -> None:
    """Attach ``tracer`` to an imported subgeo package."""
    from subgeo import (config, exprlang, fields, geodesics, geometry, jets,
                        linalg, runner, sampling, submersion, tangent_bundle)

    fn, meth = _patch_function, _patch_method
    span = lambda name, **kw: (lambda f: tracer.span(name, f, **kw))
    leaf = lambda name, **kw: (lambda f: tracer.leaf(name, f, **kw))

    # spans
    fn(tracer, runner, "run_suite", span("runner.run_suite"))
    fn(tracer, config, "build_scenario", span("config.build_scenario"))
    for spec in runner.CHECK_TABLE.values():
        spec.driver = tracer.span("check:" + spec.name, spec.driver)
    meth(tracer, submersion, "_PointFrame", "__init__", span("submersion.point_frame"))
    meth(tracer, submersion, "SubmersionSetup", "_frames",
         span("submersion.frames", cache_attr="_frame_cache"))
    fn(tracer, geodesics, "integrate_geodesic", span("geodesics.integrate"))
    for name in CURVE_RESIDUALS:
        fn(tracer, geodesics, name, span("geodesics.curve_residuals"))

    # aggregated leaves
    fn(tracer, exprlang, "eval_jet", leaf("exprlang.eval_jet"))
    for name in ("solve_linear", "jet_solve", "jet_matmul"):
        fn(tracer, linalg, name, leaf("linalg." + name))
    fn(tracer, linalg, "jet_values", leaf("linalg.jet_values", reentrant=True))
    for cls in ("ConnectionField", "LeviCivitaConnection", "DualConnection"):
        meth(tracer, fields, cls, "values", leaf("fields.conn_values"))
    for name in GEOMETRY_KERNELS:
        fn(tracer, geometry, name, leaf("geometry", reentrant=True))
    for name in ("fundamental_T", "fundamental_A"):
        meth(tracer, submersion, "SubmersionSetup", name, leaf("submersion.fundamental"))
    lift = leaf("tangent_bundle.lift_blocks", reentrant=True)
    for name in ("_sasaki_blocks", "_complete_blocks", "_horizontal_blocks"):
        meth(tracer, tangent_bundle, "TangentBundle", name, lift)
    for cls in ("CompleteLiftConnection", "HorizontalLiftConnection"):
        meth(tracer, tangent_bundle, cls, "_coeffs", lift)

    # counts
    for name in JET_OPS:
        op = "jets.mul" if name == "__mul__" else "jets.other"
        meth(tracer, jets, "Jet", name, lambda f, op=op: tracer.counter(op, f))
    fn(tracer, geodesics, "_accel", lambda f: tracer.counter("geodesics.accel", f))
    fn(tracer, sampling, "sample_box", lambda f: _count_points(tracer, f))

    # point-keyed caches
    cached = lambda name, attr: (lambda f: tracer.cached(name, attr, f))
    for cls in ("MetricField", "DerivedMetric"):
        meth(tracer, fields, cls, "matrix_jets", cached("fields.matrix_jets", "_jet_cache"))
    meth(tracer, fields, "MetricField", "inverse_jets",
         cached("fields.inverse_jets", "_inv_cache"))
    meth(tracer, fields, "ConnectionField", "coeff_jets",
         cached("fields.coeff_jets", "_coeff_cache"))
    meth(tracer, fields, "FuncField", "_jets", cached("fields.func_field", "_cache"))
    meth(tracer, submersion, "SubmersionSetup", "dpi_jets",
         cached("submersion.dpi_jets", "_dpi_cache"))
    # _frames is a span (above); its fills are counted from the span records.


def _count_points(tracer, fn):
    @functools.wraps(fn)
    def wrapper(box, count, seed):
        tracer.counters["sampling.points"] += count
        return fn(box, count, seed)

    return wrapper
