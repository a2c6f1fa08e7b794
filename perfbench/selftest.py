#!/usr/bin/env python3
"""Self-test of the benchmark; prints every metric of every workload.

Usage: python3 perfbench/selftest.py [--seed N]

For each workload it makes one end-to-end run of ``run_seconds`` (from
``BENCHMARK.json``) and two traced runs at the same seed through
``run.py``, prints every end-to-end and per-layer metric by name with its
unit, and checks that:

- every run passes its correctness gate (the traced run also compares its
  reports with an untraced pass, so tracing cannot change results);
- every per-layer metric that ``layers.json`` predicts non-zero on a
  workload is non-zero there, and every one it predicts zero is zero;
- geodesic integration takes at least 2/3 of the traced wall time on
  ``geodesics``;
- every count repeats exactly between the two traced runs;
- no subgeo namespace still holds an entry point the tracer replaced.

Exits 1 when any of these fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = os.path.join(HERE, "layers.json")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import BENCHMARK  # noqa: E402


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def leftover_originals() -> list:
    """Entry points still reachable unwrapped after the tracer is installed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import subgeo.cli  # noqa: F401  (imports every module)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    originals = {id(orig): label for label, orig in tracer.replaced}
    found = []
    for mod in tracing.subgeo_modules():
        holders = [mod] + [v for v in vars(mod).values()
                           if isinstance(v, type) and v.__module__ == mod.__name__]
        for holder in holders:
            for key, value in vars(holder).items():
                if id(value) in originals:
                    found.append(f"{getattr(holder, '__name__', holder)}.{key} "
                                 f"is still {originals[id(value)]}")
    return found + [f"not found: {name}" for name in tracer.missing]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(LAYERS, encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    failures = [f"namespace: {msg}" for msg in leftover_originals()]
    table = {}
    for workload in workloads.WORKLOADS:
        runs = [run(workload, args.seed, bench["run_seconds"], trace) for trace in (0, 1, 1)]
        for (code, result, output), trace in zip(runs, (0, 1, 1)):
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{workload} trace={trace}: exit {code}\n{output}")
        if any(result is None for _, result, _ in runs):
            continue
        plain, first, second = (result["metrics"] for _, result, _ in runs)
        for name, p in predictions.items():
            value = first[name]["value"]
            if workload in p["nonzero_on"] and not value > 0:
                failures.append(f"{workload}: {name} = {value}, predicted non-zero")
            if workload in p["zero_on"] and value != 0:
                failures.append(f"{workload}: {name} = {value}, predicted zero")
        for name, m in first.items():
            if m["unit"] == "count" and m["value"] != second[name]["value"]:
                failures.append(f"{workload}: count {name} differs between runs of "
                                f"seed {args.seed}: {m['value']} vs {second[name]['value']}")
        if workload == "geodesics":
            share = first["geodesics.integrate_s"]["value"] / first["trace.wall_s"]["value"]
            if share < 2.0 / 3.0:
                failures.append(f"geodesics: integration is {share:.0%} of the traced wall")
        table[workload] = {**plain, **first}

    print(f"{'metric':<34s} {'unit':<6s}" + "".join(f"{w:>14s}" for w in table))
    for name, unit in units.items():
        cells = "".join(f"{table[w][name]['value']:>14.6g}" for w in table)
        print(f"{name:<34s} {unit:<6s}{cells}")
    for msg in failures:
        print("FAIL: " + msg)
    print("selftest: " + ("FAILED" if failures else "ok") + f" (seed {args.seed})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
