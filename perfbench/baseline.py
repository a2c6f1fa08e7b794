#!/usr/bin/env python3
"""Record the residuals that ``results.residual_drift`` compares against.

Usage: python3 perfbench/baseline.py --label TEXT

Runs one untraced pass of every workload at every seed of
``run.BASELINE_SEEDS`` and writes each check's ``max_residual`` to
``perfbench/baseline.json``, keyed by workload, seed, suite target and
check.  Run it only at a commit whose residuals are the reference;
``--label`` names that commit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import BASELINE, BASELINE_SEEDS, CHILD, OUT_DIR  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    residuals = {}
    for workload in workloads.WORKLOADS:
        for seed in BASELINE_SEEDS:
            out = os.path.join(OUT_DIR, f"baseline-{workload}-s{seed}.json")
            subprocess.run([sys.executable, CHILD, "once", workload, str(seed), "0", out],
                           check=True)
            with open(out, encoding="utf-8") as fh:
                suites = json.load(fh)["passes"][0]["suites"]
            for suite in suites:
                bad = [c["name"] for c in suite["checks"] if c["status"] != "pass"]
                if bad or suite["exit_code"] != 0:
                    raise SystemExit(f"{workload} seed {seed}: {suite['target']} "
                                     f"did not pass {bad}; not a reference")
            residuals.setdefault(workload, {})[str(seed)] = {
                s["target"]: {c["name"]: c["max_residual"] for c in s["checks"]}
                for s in suites
            }
            print(f"{workload} seed {seed}: recorded", flush=True)
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "seeds": [BASELINE_SEEDS[0], BASELINE_SEEDS[-1]],
                   "residuals": residuals}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
