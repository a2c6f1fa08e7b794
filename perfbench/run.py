#!/usr/bin/env python3
"""Benchmark of the subgeo verifier: one run of one workload.

Usage:
    python3 perfbench/run.py --workload {sweep,geodesics,bundle} \\
        --seed N --seconds S --trace {0,1}

Each run drives subgeo from outside, in fresh child processes that import
it from ``src/`` and call ``config.parse_config``, ``config.build_scenario``
and ``runner.run_suite`` on the configs that ``workloads.py`` makes from
the seed.  Every report is checked: each check must pass, each suite must
exit 0 with no incidents, and reports of the same seed must be identical
once ``wall_time_s`` is stripped.

``--trace 0`` measures the end-to-end metrics with tracing off: timed
passes over the workload for ``--seconds`` (at least two), a few extra
set-up-only processes for ``setup_s``, and the run process's own peak
RSS.  ``--trace 1`` runs one untraced pass and one traced pass in two
processes.  The metrics printed, and their units, are those that
``BENCHMARK.json`` lists under ``end_to_end`` and ``per_layer``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, and the environment.  The exit code
is 0 when every correctness gate holds, 1 when one fails, and 2, with no
result printed, when the subgeo sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
BASELINE = os.path.join(HERE, "baseline.json")
BASELINE_SEEDS = range(0, 16)  # the seeds whose residuals baseline.json records

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from child import MISSING_PROGRAM  # noqa: E402

RUN_BUDGET_S = 170.0  # the whole run, all child processes included
SETUP_PROBES = 6      # set-up-only processes besides the timed one


class ProgramMissing(Exception):
    pass


class Child:
    """One child process: its result file, exit status and own rusage."""

    def __init__(self, mode, workload, seed, seconds, tag, deadline):
        out = os.path.join(OUT_DIR, tag + ".json")
        if os.path.exists(out):
            os.remove(out)
        self.spawned = time.monotonic()
        with open(os.path.join(OUT_DIR, tag + ".log"), "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, CHILD, mode, workload, str(seed), str(seconds), out],
                stdout=log, stderr=subprocess.STDOUT,
            )
        status, self.rusage, self.timed_out = _wait(proc, deadline)
        self.code = os.waitstatus_to_exitcode(status)
        proc.returncode = self.code
        if self.code == MISSING_PROGRAM:
            raise ProgramMissing(_tail(os.path.join(OUT_DIR, tag + ".log")))
        self.result = None
        if self.code == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                self.result = json.load(fh)
        self.error = None if self.result is not None else (
            f"{mode} process {'timed out' if self.timed_out else 'exited %d' % self.code}: "
            + _tail(os.path.join(OUT_DIR, tag + ".log")))

    @property
    def setup_s(self) -> float:
        return self.result["ready"] - self.spawned

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB


def _wait(proc, deadline):
    """Reap ``proc`` with its own rusage; kill it at ``deadline``."""
    timed_out = False
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            return status, rusage, timed_out
        if time.monotonic() > deadline and not timed_out:
            proc.kill()
            timed_out = True
        time.sleep(0.01)


def _tail(path, lines=5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


class Gate:
    """Correctness bookkeeping: checks attempted, failures, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, why):
        self.failed += 1
        self.problems.append(why)

    def child(self, child):
        if child.result is None:
            self.fail(child.error)
            return False
        return True

    def passes(self, passes):
        for k, p in enumerate(passes):
            for suite in p["suites"]:
                for c in suite["checks"]:
                    self.attempted += 1
                    if c["status"] != "pass" or c["incidents"]:
                        self.fail(f"pass {k}: {suite['target']} {c['name']} is "
                                  f"{c['status']} with {c['incidents']} incidents")
                if suite["exit_code"] != 0 or suite["incident_rate"] != 0:
                    self.problems.append(
                        f"pass {k}: {suite['target']} exit code {suite['exit_code']}, "
                        f"incident rate {suite['incident_rate']}")
        if len({p["digest"] for p in passes}) > 1:
            self.fail("reports of the same seed differ between passes")

    def output(self, metrics):
        return {"correct": self.failed == 0 and not self.problems,
                "attempted": max(self.attempted, 1), "failed": self.failed,
                "metrics": metrics}


def _metrics(values, declared):
    """The metrics ``declared`` in BENCHMARK.json, in its order and units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def end_to_end(workload, seed, seconds, deadline, gate, declared):
    """Timed passes with tracing off, plus set-up-only processes."""
    tag = f"{workload}-s{seed}-t0"
    setups = []
    for k in range(SETUP_PROBES):
        probe = Child("setup", workload, seed, 0, f"{tag}-setup{k}", deadline)
        if gate.child(probe):
            setups.append(probe.setup_s)
    main = Child("run", workload, seed, seconds, f"{tag}-run", deadline)
    if not gate.child(main):
        return {}, {}
    passes = main.result["passes"]
    gate.passes(passes)
    values = {
        "verify_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": main.peak_rss_mb,
        "setup_s": statistics.median(setups + [main.setup_s]),
    }
    info = {"env": main.result["env"], "passes": len(passes),
            "pass_wall_s": [p["wall"] for p in passes],
            "setup_samples_s": setups + [main.setup_s]}
    return _metrics(values, declared), info


def per_layer(workload, seed, deadline, gate, declared):
    """One untraced and one traced pass, in two processes."""
    tag = f"{workload}-s{seed}-t1"
    plain = Child("once", workload, seed, 0, f"{tag}-plain", deadline)
    traced = Child("trace", workload, seed, 0, f"{tag}-traced", deadline)
    plain_ok, traced_ok = gate.child(plain), gate.child(traced)
    if not (plain_ok and traced_ok):
        return {}, {}
    plain_pass, traced_pass = plain.result["passes"][0], traced.result["passes"][0]
    gate.passes([plain_pass])
    gate.passes([traced_pass])
    if plain_pass["digest"] != traced_pass["digest"]:
        gate.fail("the traced reports differ from the untraced ones")
    values = layer_values(traced.result["trace"], plain_pass, traced_pass,
                          baseline_residuals(workload, seed))
    info = {"env": traced.result["env"], "errors": traced.result["trace"]["errors"],
            "missing": traced.result["trace"]["missing"]}
    return _metrics(values, declared), info


def baseline_residuals(workload, seed) -> dict:
    if not os.path.exists(BASELINE):
        return {}
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh)["residuals"].get(workload, {}).get(str(seed), {})


def layer_values(t, plain_pass, traced_pass, baseline) -> dict:
    """Per-layer metrics from the traced process's totals."""
    spans, leaves, counts, counters = t["spans"], t["leaves"], t["counts"], t["counters"]
    span = lambda name, k: spans.get(name, [0, 0.0, 0.0])[k]
    leaf = lambda name, k: leaves.get(name, [0, 0.0, 0.0])[k]
    error = lambda key: t["errors"].get(key, 0)

    def hit_ratio(cache):
        calls = counters.get(cache + ".calls", 0)
        return (calls - counters.get(cache + ".fills", 0)) / calls if calls else 0.0

    checks = [c for s in traced_pass["suites"] for c in s["checks"]]
    points = sum(c["samples"] + c["incidents"] for c in checks)
    durations = sorted(t["check_durations"])
    frame_hits, frame_misses = leaf("submersion.frames.hit", 0), span("submersion.frames", 0)
    frame_calls = frame_hits + frame_misses
    drift, compared = 0.0, 0
    for suite in traced_pass["suites"]:
        ref = baseline.get(suite["target"], {})
        for c in suite["checks"]:
            if c["name"] in ref and c["tolerance"] > 0:
                compared += 1
                drift = max(drift, abs(c["max_residual"] - ref[c["name"]]) / c["tolerance"])
    traced_wall = span("runner.run_suite", 1)
    fills = sum(v for k, v in counters.items() if k.endswith(".fills"))

    return {
        "runner.check_s.p50": statistics.median(durations),
        "runner.check_s.p90": statistics.quantiles(durations, n=10, method="inclusive")[8],
        "runner.checks": len(durations),
        "runner.per_point_ms": 1000.0 * plain_pass["wall"] / max(points, 1),
        "config.build_scenario_s": span("config.build_scenario", 1),
        "sampling.points": counters.get("sampling.points", 0),
        "exprlang.eval_jet.calls": leaf("exprlang.eval_jet", 0),
        "exprlang.eval_jet.self_s": leaf("exprlang.eval_jet", 2),
        "jets.ops": counts.get("jets.mul", 0) + counts.get("jets.other", 0),
        "jets.mul": counts.get("jets.mul", 0),
        "linalg.solve_linear.calls": leaf("linalg.solve_linear", 0),
        "linalg.solve_linear.self_s": leaf("linalg.solve_linear", 2),
        "linalg.jet_solve.calls": leaf("linalg.jet_solve", 0),
        "linalg.jet_solve.self_s": leaf("linalg.jet_solve", 2),
        "linalg.jet_matmul.calls": leaf("linalg.jet_matmul", 0),
        "linalg.jet_values.calls": leaf("linalg.jet_values", 0),
        "linalg.singular": (error("linalg.solve_linear:SingularMatrix")
                            + error("linalg.jet_solve:SingularMatrix")),
        "fields.conn_values.calls": leaf("fields.conn_values", 0),
        "fields.conn_values.self_s": leaf("fields.conn_values", 2),
        "fields.coeff_jets.hit_ratio": hit_ratio("fields.coeff_jets"),
        "fields.matrix_jets.hit_ratio": hit_ratio("fields.matrix_jets"),
        "fields.cache_fills": fills + frame_misses,
        "geometry.self_s": leaf("geometry", 2),
        "submersion.point_frame.builds": span("submersion.point_frame", 0),
        "submersion.point_frame.incl_s": span("submersion.point_frame", 1),
        "submersion.frames.hit_ratio": frame_hits / frame_calls if frame_calls else 0.0,
        "submersion.fundamental.calls": leaf("submersion.fundamental", 0),
        "submersion.fundamental.self_s": leaf("submersion.fundamental", 2),
        "geodesics.integrate_s": span("geodesics.integrate", 1),
        "geodesics.rk4_steps": counts.get("geodesics.accel", 0) // 4,
        "geodesics.curve_residuals_s": span("geodesics.curve_residuals", 1),
        "geodesics.boundary_exits": error("geodesics.integrate:BoundaryExit"),
        "tangent_bundle.lift_blocks.calls": leaf("tangent_bundle.lift_blocks", 0),
        "tangent_bundle.lift_blocks.self_s": leaf("tangent_bundle.lift_blocks", 2),
        "results.failed_ratio": sum(c["status"] != "pass" for c in checks) / max(len(checks), 1),
        "results.incident_ratio": sum(c["incidents"] for c in checks) / max(points, 1),
        "results.residual_drift": drift,
        "results.baseline_checks": compared,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / plain_pass["wall"],
        "trace.targets_missing": len(t["missing"]),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    gate = Gate()
    try:
        # unmeasured: proves the sources are there and compiles them to .pyc
        gate.child(Child("setup", args.workload, args.seed, 0,
                         f"{args.workload}-s{args.seed}-t{args.trace}-warm", deadline))
        if args.trace:
            metrics, info = per_layer(args.workload, args.seed, deadline, gate,
                                      bench["per_layer"])
        else:
            metrics, info = end_to_end(args.workload, args.seed, args.seconds, deadline,
                                       gate, bench["end_to_end"])
    except ProgramMissing as exc:
        print(f"perfbench: cannot run subgeo: {exc}", file=sys.stderr)
        return 2

    result = gate.output(metrics)
    info.update(nproc=nproc(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, problems=gate.problems)
    with open(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1, sort_keys=True)
    for why in gate.problems:
        print(f"FAILED: {why}")
    print("env: " + json.dumps({k: info.get(k) for k in ("nproc", "env")}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:<34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
