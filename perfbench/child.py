"""One fresh process of a benchmark run: set up a workload, run it, report.

Usage: python3 perfbench/child.py MODE WORKLOAD SEED SECONDS OUT_JSON

MODE is ``setup`` (import and build only), ``run`` (timed passes for
SECONDS, at least two, tracing off), ``once`` (one pass, tracing off) or
``trace`` (one pass with the tracer attached; the span records go to
OUT_JSON with the suffix ``.spans.jsonl``).  The result is written to
OUT_JSON.  Exit code ``MISSING_PROGRAM`` means there is no
``src/subgeo/__init__.py``; an import that fails once the sources are
there is a crash like any other.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 2       # a run compares at least two reports of the same seed
MISSING_PROGRAM = 3  # exit code: the subgeo sources are not there

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import workloads  # noqa: E402


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS copy loaded into this process."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = int(getter())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def digest(reports) -> str:
    """Hash of the reports with the timing fields stripped."""
    stripped = []
    for rep in reports:
        rep = dict(rep)
        rep["checks"] = [{k: v for k, v in c.items() if k != "wall_time_s"}
                         for c in rep["checks"]]
        stripped.append(rep)
    text = json.dumps(stripped, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(runner, reports) -> list:
    """What the correctness gate and the residual drift need from a pass."""
    return [
        {
            "target": rep["suite"]["target"],
            "exit_code": runner.exit_code(rep),
            "incident_rate": rep["summary"]["incident_rate"],
            "checks": [
                {k: c[k] for k in ("name", "status", "samples", "incidents",
                                   "max_residual", "tolerance")}
                for c in rep["checks"]
            ],
        }
        for rep in reports
    ]


def main(argv) -> int:
    mode, workload, seed, seconds, out_path = argv[1:6]
    seed, seconds = int(seed), float(seconds)
    if not os.path.isfile(os.path.join(SRC, "subgeo", "__init__.py")):
        print(f"no subgeo sources under {SRC}", file=sys.stderr)
        return MISSING_PROGRAM
    # an import error from here on is a broken program, not a missing one
    from subgeo import config, runner

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    raws = workloads.configs(workload, seed)
    cfgs = [config.parse_config(raw, source=f"<{workload}:{raw['builtin']}>")
            for raw in raws]
    for cfg in cfgs:
        config.build_scenario(cfg)
    ready = time.monotonic()
    result = {"ready": ready, "env": environment()}

    if mode != "setup":
        passes = []
        first = time.perf_counter()
        while True:
            gc.collect()
            reports = []
            wall0, cpu0 = time.perf_counter(), time.process_time()
            for cfg in cfgs:
                if tracer is not None:
                    tracer.run_id = f"{workload}:{seed}:{cfg.builtin}"
                reports.append(runner.run_suite(cfg))
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            passes.append({"wall": wall, "cpu": cpu, "digest": digest(reports),
                           "suites": summarize(runner, reports)})
            walls = [p["wall"] for p in passes]
            elapsed = time.perf_counter() - first
            if mode != "run" or (len(passes) >= MIN_PASSES
                                   and elapsed + statistics.median(walls) > seconds):
                break
        result["passes"] = passes
    if tracer is not None:
        result["trace"] = tracer.totals()
        result["trace"]["check_durations"] = [
            r["dur"] for r in tracer.records if r["name"].startswith("check:")]
        tracer.write(out_path + ".spans.jsonl")

    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
