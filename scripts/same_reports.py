#!/usr/bin/env python3
"""Compare the reports of two source trees on the builtin suites.

Usage: python3 scripts/same_reports.py [--verdicts] [--except NAME]... OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``subgeo`` package (the
``src`` directory of two checkouts).  Each tree runs, in its own
subprocess, every builtin below at seeds 0-4 with 16 samples, in jet
mode and in fd mode (120 cases).  It also runs the configs of
INCIDENT_CONFIGS, whose suites have incidents, at the same seeds in jet
mode, and its two hyperbolic:2 boxes in fd mode too, where stencil rows
fail (35 cases, 155 in all).  Reports are compared as ``run_suite``
orders their keys, as ``subgeo verify --report`` writes them, once their
``wall_time_s`` fields are stripped.

Every report that differs is printed as a diff and labelled:
``rounding`` when only floats differ, each by at most
1e-12 * max(1, |old|); ``real`` for any other difference (an exit code,
a status, an incident count or kind, a key or the order of the keys, a
string, a boolean, or a float beyond that bound).  The summary gives the number of
byte-identical reports and the largest float change.  Exits 0 when no
difference is real and 1 otherwise.

With ``--verdicts`` only the verdicts are compared: the exit code and,
per check, the status, the incident count and the count of each
incident kind.  Residuals, details and incident messages may move, as
they do when a change moves the sample points or the residual
arithmetic by design.  Every case whose verdicts differ is printed with
its differences; exits 0 when none differ and 1 otherwise.

Each ``--except NAME`` drops the report rows of the check NAME from
both trees' reports before either comparison, for a change that moves
that check's rows by design.  The suite summaries and exit codes are
still compared, so a change the dropped rows make to them stays visible.
"""

import difflib
import json
import math
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
FLOAT_RTOL = 1e-12  # a float change within FLOAT_RTOL * max(1, |old|) is rounding

# Configs with points or geodesic jobs where they fail to evaluate:
# log(x_n) of the half-space metric is undefined at x_n <= 0, and the
# job's curve leaves the chart box.  In the inline one, jobs end inside
# an RK4 step: "domain" reaches x2 = -0.5, where log(x2 + 0.5) is
# undefined, and "singular" runs into x1 > 0.68, where g11 = 1 -
# tanh(50 x1 - 20) falls below the pivot threshold; "complete" does not end.
INCIDENT_CONFIGS = (
    {"builtin": "hyperbolic:2", "sampling": {"boxes": [[-1, 1], [-0.3, 3]]}},
    {"builtin": "hyperbolic:2", "sampling": {"boxes": [[-1, 1], [-1, 3]]}},
    {"builtin": "hyperbolic:3", "sampling": {"boxes": [[-1, 1], [-1, 1], [-0.5, 3]]}},
    {"builtin": "hyperbolic:3", "geodesics": {"edge": {"p0": [0.9, 0, 1], "v0": [3, 0, 0]}}},
    {"manifold": {"dim": 2, "box": [[-1, 1], [-1, 1]],
                  "metric": [["1 - tanh(50*x1 - 20)", "0"], ["0", "1 + 0*log(x2 + 0.5)"]]},
     "geodesics": {"domain": {"p0": [0, 0], "v0": [0, -1]},
                   "singular": {"p0": [0.3, 0.5], "v0": [0.5, 0]},
                   "complete": {"p0": [0, 0], "v0": [0, 0.3]}},
     "checks": ["geodesic_energy"]},
)


def case(config: dict, seed: int, mode: str) -> dict:
    """A case: ``config`` in ``mode`` at ``seed`` with SAMPLES samples."""
    sampling = dict(config.get("sampling", {}), count=SAMPLES, seed=seed)
    return dict(config, mode=mode, sampling=sampling)


def label(config: dict) -> str:
    """A case's config as one line of JSON."""
    return json.dumps(config, sort_keys=True)


CASES = [case({"builtin": name}, seed, "jet") for name in BUILTINS for seed in SEEDS]
CASES += [case({"builtin": name}, seed, "fd") for name in BUILTINS for seed in SEEDS]
INCIDENT_CASES = [case(config, seed, "jet") for config in INCIDENT_CONFIGS for seed in SEEDS]
INCIDENT_CASES += [case(config, seed, "fd") for config in INCIDENT_CONFIGS[:2] for seed in SEEDS]
CASES += INCIDENT_CASES

# Runs inside the subprocess: one JSON line per case on stdout.
CHILD = """
import json, sys, traceback
sys.path.insert(0, sys.argv[1])
from subgeo import runner
from subgeo.config import parse_config

for config in json.loads(sys.argv[2]):
    cfg = parse_config(config, source="<" + config.get("builtin", "inline") + ">")
    try:
        report = runner.run_suite(cfg)
    except Exception:
        print(json.dumps({"exit": None, "report": traceback.format_exc()}), flush=True)
        continue
    for check in report["checks"]:
        del check["wall_time_s"]
    print(json.dumps({"exit": runner.exit_code(report),
                      "report": json.dumps(report, indent=2)}), flush=True)
"""


def without(result: dict, names) -> dict:
    """A case result with the rows of the checks ``names`` dropped from its
    report; its exit code and suite summary stay.  A crash stays as it is."""
    try:
        report = json.loads(result["report"])
    except json.JSONDecodeError:
        return result
    report["checks"] = [c for c in report["checks"] if c["name"] not in names]
    return dict(result, report=json.dumps(report, indent=2))


def run_tree(src: str) -> list:
    out = subprocess.run([sys.executable, "-c", CHILD, src, json.dumps(CASES)],
                         capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{src}: the subprocess failed\n{out.stderr}")
    return [json.loads(line) for line in out.stdout.splitlines()]


def float_change(old: float, new: float) -> float:
    """|new - old|, 0 for two NaNs and for equal infinities."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) if math.isfinite(old) and math.isfinite(new) else math.inf


def compare(old, new, path, floats, real) -> None:
    """Walk two parsed reports together: every float that differs goes to
    ``floats`` as (change, bound, path, old, new), every other difference
    to ``real`` as text."""
    if isinstance(old, float) and isinstance(new, float):
        change = float_change(old, new)
        if change:
            bound = FLOAT_RTOL * max(1.0, abs(old)) if math.isfinite(old) else 0.0
            floats.append((change, bound, path, old, new))
    elif type(old) is not type(new):
        real.append(f"{path}: {old!r} -> {new!r}")
    elif isinstance(old, dict):
        if list(old) != list(new):
            real.append(f"{path}: keys {list(old)} -> {list(new)}")
        for key in sorted(old.keys() & new.keys()):
            compare(old[key], new[key], f"{path}.{key}", floats, real)
    elif isinstance(old, list):
        if len(old) != len(new):
            real.append(f"{path}: {len(old)} items -> {len(new)}")
        for k, (a, b) in enumerate(zip(old, new)):
            compare(a, b, f"{path}[{k}]", floats, real)
    elif old != new:
        real.append(f"{path}: {old!r} -> {new!r}")


def classify(a: dict, b: dict):
    """(real differences, float changes) between two case results; a
    float change above its bound is also a real difference."""
    real, floats = [], []
    if a["exit"] != b["exit"]:
        real.append(f"exit code {a['exit']} -> {b['exit']}")
    try:
        old, new = json.loads(a["report"]), json.loads(b["report"])
    except json.JSONDecodeError:  # a crash: the report is a traceback
        return real + ["report: not both JSON"], floats
    compare(old, new, "report", floats, real)
    real += [f"{path}: {o!r} -> {n!r} (change {c:.3e} above {bound:.3e})"
             for c, bound, path, o, n in floats if c > bound]
    return real, floats


def verdicts(result: dict) -> dict:
    """A case result's exit code and, per check, its status, incident
    count and count of each incident kind; a crash keeps its traceback."""
    try:
        report = json.loads(result["report"])
    except json.JSONDecodeError:
        return {"exit": result["exit"], "crash": result["report"]}
    return {"exit": result["exit"], "checks": {
        c["name"]: {"status": c["status"], "incidents": c["incidents"],
                    "kinds": {k: v["count"]
                              for k, v in c["details"].get("incident_kinds", {}).items()}}
        for c in report["checks"]}}


def verdict_changes(a: dict, b: dict) -> list:
    """The differences between the verdicts of two case results."""
    changes = []
    compare(verdicts(a), verdicts(b), "verdicts", [], changes)
    return changes


def compare_verdicts(old, new) -> int:
    """Print every case whose verdicts differ, then how many builtin and
    incident cases keep theirs; 1 when any differ."""
    kept = {False: 0, True: 0}  # by whether the case is an incident case
    for config, a, b in zip(CASES, old, new):
        changes = verdict_changes(a, b)
        if changes:
            print(f"{label(config)}: verdicts differ")
            for line in changes:
                print(f"  {line}")
        kept[config in INCIDENT_CASES] += not changes
    incident = len(INCIDENT_CASES)
    print(f"{kept[False]} of {len(CASES) - incident} builtin cases and {kept[True]} of "
          f"{incident} incident cases keep every verdict")
    return 0 if sum(kept.values()) == len(CASES) else 1


def main(argv) -> int:
    args, only_verdicts, excluded = argv[1:], False, set()
    while args[:1] == ["--verdicts"] or (args[:1] == ["--except"] and len(args) > 1):
        if args[0] == "--verdicts":
            only_verdicts, args = True, args[1:]
        else:
            excluded.add(args[1])
            args = args[2:]
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_src, new_src = args
    with ThreadPoolExecutor(max_workers=2) as pool:
        old, new = pool.map(run_tree, (old_src, new_src))
    if excluded:
        old, new = ([without(r, excluded) for r in tree] for tree in (old, new))
    if only_verdicts:
        return compare_verdicts(old, new)
    identical = rounding = real_count = 0
    floats = []
    for config, a, b in zip(CASES, old, new):
        if a == b:
            identical += 1
            continue
        real, changes = classify(a, b)
        where = label(config)
        floats += [(c, bound, f"{where} {path}", o, n) for c, bound, path, o, n in changes]
        print(f"{where}: {'real' if real else 'rounding'} difference")
        for line in real:
            print(f"  real: {line}")
        sys.stdout.writelines(difflib.unified_diff(
            (a["report"] + "\n").splitlines(True), (b["report"] + "\n").splitlines(True),
            old_src, new_src, n=2))
        real_count += bool(real)
        rounding += not real
    print(f"{identical} of {len(CASES)} reports and exit codes byte-identical; "
          f"{rounding} differ by rounding only; {real_count} differ for real")
    if floats:
        change, bound, where, o, n = max(floats, key=lambda f: f[0])
        print(f"largest float change: {change:.3e} (bound {bound:.3e}) at {where}: {o!r} -> {n!r}")
    else:
        print("largest float change: 0")
    return 1 if real_count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
