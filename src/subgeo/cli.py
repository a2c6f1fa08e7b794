"""Command line front end.

Exit codes: 0 every check passed, 1 some check did not pass, 2 the
config or an output path was unusable, 3 the numeric incident rate
crossed 10%.  Seed precedence: --seed flag, then SUBGEO_SEED, then the
config's sampling.seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, runner
from .config import load_config
from .errors import ConfigError, SubgeoError
from .geodesics import integrate_geodesic


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgeo",
        description="numerical residual checks for charted manifolds, "
                    "metric splittings, and tangent-bundle lifts",
    )
    parser.add_argument("--version", action="version", version=f"subgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a check suite from a config file")
    verify.add_argument("config", help="path to a JSON suite config")
    verify.add_argument("--report", metavar="OUT", help="write the JSON report here")
    verify.add_argument("--mode", choices=("jet", "fd"),
                        help="override the derivative mode")
    verify.add_argument("--samples", type=int, metavar="N",
                        help="override sampling.count")
    verify.add_argument("--seed", type=int, metavar="S",
                        help="override the suite seed")

    geo = sub.add_parser("geodesic", help="integrate one geodesic job to CSV")
    geo.add_argument("config", help="path to a JSON suite config")
    geo.add_argument("--job", required=True, help="job name from the config or builtin")
    geo.add_argument("--csv", required=True, metavar="OUT", help="trajectory CSV path")

    sub.add_parser("list-checks", help="print every check with its anchor")
    sub.add_parser("list-builtins", help="print the builtin manifold patterns")
    return parser


def _apply_overrides(cfg, args) -> None:
    if args.mode is not None:
        cfg.mode = args.mode
    if args.samples is not None:
        if args.samples < 1:
            raise ConfigError("--samples must be positive")
        cfg.count = args.samples
    env_seed = os.environ.get("SUBGEO_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"SUBGEO_SEED must be an integer, got {env_seed!r}")
    if args.seed is not None:
        cfg.seed = args.seed


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    report = runner.run_suite(cfg)
    width = max((len(c["name"]) for c in report["checks"]), default=4)
    for c in report["checks"]:
        print(f"{c['name']:<{width}s}  {c['status']:<12s}  "
              f"max={c['max_residual']:.3e}  tol={c['tolerance']:g}")
    s = report["summary"]
    print(f"{s['pass']} pass, {s['fail']} fail, {s['inconclusive']} inconclusive"
          f" (seed={report['suite']['seed']}, mode={report['suite']['mode']})")
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report {args.report}: {exc}")
    return runner.exit_code(report)


def _cmd_geodesic(args) -> int:
    cfg = load_config(args.config)
    from .config import build_scenario

    scenario = build_scenario(cfg)
    jobs = scenario.geodesic_jobs
    if args.job not in jobs:
        known = ", ".join(sorted(jobs)) or "none"
        raise ConfigError(f"unknown geodesic job {args.job!r}; available: {known}")
    job = jobs[args.job]
    (traj,) = integrate_geodesic(
        scenario.space.conn, scenario.space.chart,
        [job["p0"]], [job["v0"]], job["t_end"], job["h"],
    )
    if isinstance(traj, SubgeoError):
        raise traj
    try:
        traj.write_csv(args.csv)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.csv}: {exc}")
    print(f"{args.job}: {len(traj)} nodes, t in [0, {traj.ts[-1]:g}] -> {args.csv}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "geodesic":
            return _cmd_geodesic(args)
        if args.command == "list-checks":
            sys.stdout.write(runner.list_checks())
            return 0
        if args.command == "list-builtins":
            sys.stdout.write(runner.list_builtins())
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SubgeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    sys.exit(main())
