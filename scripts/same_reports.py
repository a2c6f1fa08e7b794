#!/usr/bin/env python3
"""Compare the reports of two source trees on the builtin suites.

Usage: python3 scripts/same_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``subgeo`` package (the
``src`` directory of two checkouts).  Each tree runs, in its own
subprocess, every builtin below at seeds 0-4 with 16 samples: in jet
mode, and in fd mode for the builtins that are not tangent bundles.
Every report whose JSON differs once the ``wall_time_s`` fields are
stripped is printed as a diff, as is every differing exit code.  Exits
0 when everything is identical and 1 otherwise.
"""

import difflib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

BUILTINS = (
    "euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3",
    "gaussian:alpha=0", "gaussian:alpha=1", "gaussian:alpha=-0.5",
    "broken:2", "perturbed:3",
    "tangent_bundle_of:hyperbolic:2", "tangent_bundle_of:gaussian:alpha=1",
    "tangent_bundle_of:euclidean:2",
)
SEEDS = range(5)
SAMPLES = 16

CASES = [(name, seed, "jet") for name in BUILTINS for seed in SEEDS]
CASES += [(name, seed, "fd") for name in BUILTINS
          if not name.startswith("tangent_bundle_of:") for seed in SEEDS]

# Runs inside the subprocess: one JSON line per case on stdout.
CHILD = """
import json, sys, traceback
sys.path.insert(0, sys.argv[1])
from subgeo import runner
from subgeo.config import parse_config

for name, seed, mode in json.loads(sys.argv[2]):
    cfg = parse_config({"builtin": name, "mode": mode,
                        "sampling": {"count": %d, "seed": seed}}, source="<" + name + ">")
    try:
        report = runner.run_suite(cfg)
    except Exception:
        print(json.dumps({"exit": None, "report": traceback.format_exc()}), flush=True)
        continue
    for check in report["checks"]:
        del check["wall_time_s"]
    print(json.dumps({"exit": runner.exit_code(report),
                      "report": json.dumps(report, indent=2, sort_keys=True)}), flush=True)
""" % SAMPLES


def run_tree(src: str) -> list:
    out = subprocess.run([sys.executable, "-c", CHILD, src, json.dumps(CASES)],
                         capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{src}: the subprocess failed\n{out.stderr}")
    return [json.loads(line) for line in out.stdout.splitlines()]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_src, new_src = argv[1], argv[2]
    with ThreadPoolExecutor(max_workers=2) as pool:
        old, new = pool.map(run_tree, (old_src, new_src))
    differ = 0
    for (name, seed, mode), a, b in zip(CASES, old, new):
        label = f"{name} seed={seed} mode={mode}"
        if a["exit"] != b["exit"]:
            print(f"{label}: exit code {a['exit']} -> {b['exit']}")
        if a["report"] != b["report"]:
            print(f"{label}: report differs")
            sys.stdout.writelines(difflib.unified_diff(
                a["report"].splitlines(True), b["report"].splitlines(True),
                old_src, new_src, n=2))
        differ += a != b
    print(f"{len(CASES) - differ} of {len(CASES)} reports and exit codes identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
