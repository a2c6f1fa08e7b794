#!/usr/bin/env python3
"""Field batches that one stack build evaluates more than once, and the
frame builds of one suite.

Usage: python3 scripts/repeat_census.py SUITE [SAMPLES] [SEED]

SUITE is a builtin name (tangent_bundle_of:hyperbolic:2) or the path of
a JSON config; SAMPLES (16 by default) and SEED (0) set its sampling.
The suite runs twice, the first time as a warm-up, each time with its
checks run through one ``runner.RunContext`` as ``runner.run_suite``
runs them, and with the ``_batch`` of every field class wrapped.  A
stack build is one attempt of ``results.build_rows`` (a nested build
belongs to the outer one).  A ``_batch`` call inside a build is a repeat when the same build
has already evaluated that field object at the same points (compared by
their bytes) to the same order or higher.  For the second run, one line
per check and field class with repeats gives the calls, the repeats and
the milliseconds the repeats took (a repeat's time includes any field
it evaluates in turn); a line gives the total.  Calls outside any
build are not counted.  A last line gives the frame builds of the second
run, the calls of ``SubmersionSetup._frame_arrays``: one for the suite's
frame batch, one per frame batch a check builds for itself or, in
``semi_riemannian``, per stack it evaluates, plus one per row of a
per-row rebuild.  Run it from the repository root; it measures the
``subgeo`` under ``src``.
"""

import sys
import time

sys.path.insert(0, "src")

from subgeo import fields, geodesics, results, runner, submersion
from subgeo.config import build_scenario, load_config, parse_config

_build = None  # {(field id, shape, bytes): (highest order, field)} of the running build
_counts = {}   # {field label: [calls, repeats, repeat seconds]} of the running check
_frame_builds = 0  # _frame_arrays calls of the running suite


def _label(field) -> str:
    return f"{type(field).__name__}/{field.dim}"


def _census(batch):
    def wrapped(self, points, order):
        if _build is None:
            return batch(self, points, order)
        key = (id(self), points.shape, points.tobytes())
        start = time.perf_counter()
        parts = batch(self, points, order)
        elapsed = time.perf_counter() - start
        count = _counts.setdefault(_label(self), [0, 0, 0.0])
        count[0] += 1
        done = _build.get(key, (-1,))[0]
        if done >= order:
            count[1] += 1
            count[2] += elapsed
        _build[key] = (max(order, done), self)  # holding the field keeps its id unused
        return parts

    return wrapped


def _counted(frame_arrays):
    def wrapped(self, x):
        global _frame_builds
        _frame_builds += 1
        return frame_arrays(self, x)

    return wrapped


def _scoped(build):
    def attempt(points):
        global _build
        if _build is not None:
            return build(points)
        _build = {}
        try:
            return build(points)
        finally:
            _build = None

    return attempt


def _instrument() -> None:
    classes, todo = [], [fields.Field]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in classes:
        if "_batch" in vars(cls):
            cls._batch = _census(vars(cls)["_batch"])
    setup = submersion.SubmersionSetup
    setup._frame_arrays = _counted(setup._frame_arrays)
    original = results.build_rows

    def build_rows(build, points):
        return original(_scoped(build), points)

    for module in (results, submersion, geodesics, runner):
        module.build_rows = build_rows


def _config(suite: str, count: int, seed: int):
    if suite.endswith(".json"):
        cfg = load_config(suite)
        cfg.count, cfg.seed = count, seed
        return cfg
    return parse_config({"builtin": suite, "sampling": {"count": count, "seed": seed}})


def main() -> None:
    global _counts, _frame_builds
    suite = sys.argv[1]
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    _instrument()
    cfg = _config(suite, count, seed)
    scenario = build_scenario(cfg)
    names = sorted(scenario.checks if cfg.checks is None else dict(cfg.checks))
    table = {}
    for _ in range(2):
        ctx = runner.RunContext(scenario, cfg.count, cfg.seed, cfg.boxes)
        _frame_builds = 0
        for name in names:
            _counts = {}
            runner.run_check(name, scenario, ctx)
            table[name] = _counts
    print(f"{'check':<24s} {'field':<28s} {'calls':>6s} {'repeats':>8s} {'repeat ms':>10s}")
    total = [0, 0.0]
    for name in names:
        for label, (calls, repeats, seconds) in sorted(table[name].items()):
            if repeats:
                print(f"{name:<24s} {label:<28s} {calls:6d} {repeats:8d} {1e3 * seconds:10.3f}")
                total[0] += repeats
                total[1] += seconds
    print(f"total repeats {total[0]} in {1e3 * total[1]:.3f} ms")
    print(f"frame builds {_frame_builds}")


if __name__ == "__main__":
    main()
