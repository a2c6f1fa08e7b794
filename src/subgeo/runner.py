"""Check registry and suite orchestration.

Every check the CLI can run is declared in CHECK_TABLE, the one place a
check is named: the section anchor it reports under, a default
tolerance, a short description, and a driver taking (scenario, ctx,
name, tol).  run_suite builds each report row from the registry entry
and the driver's CheckResult.  A suite draws its sample points once
(:meth:`RunContext.points`) and every check over points reads that one
stack, so the checks test the paper's pointwise statements at the same
points; the checks run in one :func:`submersion.shared_frames` scope, so
the frame checks share the frame batch of that stack.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, geodesics, geometry, submersion, tangent_bundle
from .builtins import Scenario
from .config import SuiteConfig, build_scenario
from .errors import ConfigError, ContractViolation, SubgeoError
from .fields import FDField
from .results import FAIL, INCONCLUSIVE, PASS, CheckResult, build_rows, collect, fold
from .sampling import sample_box, subseed

FD_PROBES = 16


@dataclass
class CheckSpec:
    name: str
    paper_ref: str
    tolerance: float
    description: str
    driver: object  # callable(scenario, ctx) -> CheckResult


class RunContext:
    """Per-suite state shared by the check drivers."""

    def __init__(self, scenario: Scenario, count: int, seed: int, boxes=None):
        self.scenario = scenario
        self.count = count
        self.seed = seed
        self.boxes = boxes if boxes is not None else scenario.space.chart.box
        self._points = self._curves = None

    def points(self) -> np.ndarray:
        """The suite's sample, (count, n) and read-only: drawn once, on
        first use, from the sub-seed labelled "points", and read by every
        check over points (``fd_crosscheck`` reads its first FD_PROBES
        rows)."""
        if self._points is None:
            self._points = sample_box(self.boxes, self.count, subseed(self.seed, "points"))
            self._points.flags.writeable = False
        return self._points

    def curves(self) -> dict:
        """Every geodesic job's outcome in name order: its Trajectory, or
        the :class:`SubgeoError` that ended it.

        Jobs integrate once per suite, on first use; those that share
        (t_end, h) integrate together in lockstep.
        """
        if self._curves is None:
            space = self.scenario.space
            jobs = self.scenario.geodesic_jobs
            groups = {}
            for name in sorted(jobs):
                groups.setdefault((jobs[name]["t_end"], jobs[name]["h"]), []).append(name)
            ended = {}
            for (t_end, h), names in groups.items():
                try:
                    out = geodesics.integrate_geodesic(
                        space.conn, space.chart, [jobs[n]["p0"] for n in names],
                        [jobs[n]["v0"] for n in names], t_end, h,
                    )
                except SubgeoError as exc:
                    out = [exc] * len(names)
                ended.update(zip(names, out))
            self._curves = {name: ended[name] for name in sorted(ended)}
        return self._curves


def _missing(what: str) -> CheckResult:
    return CheckResult(samples=0, max_residual=float("inf"), tolerance=0.0,
                       status=INCONCLUSIVE, details={"skipped": f"scenario has no {what}"})


def _manifold_driver(fn):
    def drive(scenario, ctx, name, tol):
        return fn(scenario.space.conn, scenario.space.metric, ctx.points(), tol)

    return drive


def _constant_curvature(scenario, ctx, name, tol):
    if scenario.curvature_k is None:
        return _missing("reference curvature constant")
    pts = ctx.points()
    return geometry.check_constant_curvature(
        scenario.space.conn, scenario.space.metric, scenario.curvature_k, pts, tol)


def _disagreement(fld, index, x) -> np.ndarray:
    """Per row of the stack x, the relative disagreement of entry
    ``index[row]`` of ``fld``'s batch with central differences of it;
    hessian level when reachable.

    Fields that differentiate their base data (the lifted connections on
    a bundle chart) can exhaust their order budget at hessian depth;
    those fall back to a gradient-level probe.
    """
    order = 2
    try:
        parts = fld.batch(x, order)
    except ContractViolation:
        order = 1
        parts = fld.batch(x, order)
    ref = FDField(fld).batch(x, order)
    at = (np.arange(len(x)), Ellipsis) + tuple(index.T)
    rel = [np.abs(mine[at] - theirs[at]) / (1.0 + np.abs(theirs[at]))
           for mine, theirs in zip(parts[1:], ref[1:])]
    return np.maximum.reduce([r.reshape(len(x), -1).max(axis=1) for r in rel])


def _probe_rows(probes):
    """:func:`fold` inputs of the probes (label, field, entry index, point
    map, point).  Each run of consecutive probes of one field and point
    map is one batch (:func:`build_rows`), in which every probe reads its
    own entry; a probe whose row fails is an incident."""
    residuals, errors, start = [], {}, 0
    for (fld, to_point), run in itertools.groupby(probes, lambda probe: (probe[1], probe[3])):
        run = list(run)
        index = np.array([probe[2] for probe in run], dtype=int)
        x = np.array([probe[4] for probe in run])
        values, failed = build_rows(
            lambda rows: {"r": _disagreement(fld, index[rows], to_point(x[rows]))},
            np.arange(len(run)))
        residuals.append(values.get("r", np.zeros(0)))
        errors.update((start + row, exc) for row, exc in failed.items())
        start += len(run)
    return np.concatenate(residuals), errors


def _fd_crosscheck(scenario, ctx, name, tol):
    space, setup = scenario.space, scenario.setup
    total = lambda x: x
    targets = [(lbl, space.metric, index, total) for lbl, index in space.metric.entries()]
    targets += [(lbl, space.conn, index, total) for lbl, index in space.conn.entries()]
    if setup is not None:
        targets += [(f"pi_{a + 1}", f, (), total) for a, f in enumerate(setup.pi)]
        if setup.phi is not None:
            targets.append(("phi", setup.phi, (), total))
        targets += [("base_" + lbl, setup.base.metric, index, setup.project)
                    for lbl, index in setup.base.metric.entries()]
    pts = ctx.points()
    probes = [(*targets[k % len(targets)], pts[k % len(pts)]) for k in range(FD_PROBES)]
    s = fold(*_probe_rows(probes))
    return s.summarize(tol, details={
        "fields_probed": min(FD_PROBES, len(targets)),
        "fields_available": len(targets),
        "worst_field": "" if s.worst_index is None else probes[s.worst_index][0],
    })


def _submersion_driver(fn):
    def drive(scenario, ctx, name, tol):
        if scenario.setup is None:
            return _missing("submersion")
        return fn(scenario.setup, ctx.points(), tol)

    return drive


def _geodesic_driver(fn):
    def drive(scenario, ctx, name, tol):
        if scenario.setup is None:
            return _missing("submersion")
        if not scenario.geodesic_jobs:
            return _missing("geodesic jobs")
        return fn(scenario.setup, list(ctx.curves().values()), tol)

    return drive


def _geodesic_energy(scenario, ctx, name, tol):
    if not scenario.geodesic_jobs:
        return _missing("geodesic jobs")
    curves = ctx.curves()
    drifts, errors = collect(
        curves.values(),
        lambda c: geodesics.energy_drift(scenario.space.metric, geodesics.trajectory(c)))
    return fold(list(drifts.values()), errors).summarize(tol, details={"jobs": sorted(curves)})


def _bundle_driver(fn):
    def drive(scenario, ctx, name, tol):
        if scenario.bundle is None:
            return _missing("tangent bundle")
        return fn(scenario.bundle, ctx.points(), tol)

    return drive


def _bundle_setup_driver(fn):
    """A submersion check on the bundle projection of a tangent bundle."""
    return _bundle_driver(lambda bundle, points, tol: fn(bundle.setup, points, tol))


CHECK_TABLE = {s.name: s for s in [
    CheckSpec("is_statistical", "§2 Definition", 1e-8,
              "torsion-freeness and total symmetry of the cubic form nabla g",
              _manifold_driver(geometry.is_statistical)),
    CheckSpec("dual_involution", "§2 Definition", 1e-9,
              "taking the metric dual twice returns the original connection",
              _manifold_driver(geometry.check_dual_involution)),
    CheckSpec("curvature_duality", "§2", 1e-8,
              "curvatures of a dual pair are skew-adjoint through the metric",
              _manifold_driver(geometry.check_curvature_duality)),
    CheckSpec("constant_curvature", "§2 Example", 1e-8,
              "R(X,Y)Z matches k (g(Y,Z)X - g(X,Z)Y) for the scenario's k",
              _constant_curvature),
    CheckSpec("fd_crosscheck", "numerics hygiene", 1e-4,
              "jet gradients and hessians agree with central differences",
              _fd_crosscheck),
    CheckSpec("split_identities", "§2", 1e-9,
              "projector algebra of the vertical/horizontal splitting",
              _submersion_driver(submersion.check_split_identities)),
    CheckSpec("tensoriality", "§2", 1e-8,
              "fundamental tensors are pointwise in both arguments",
              _submersion_driver(submersion.check_tensoriality)),
    CheckSpec("gauss_weingarten", "§2", 1e-8,
              "Gauss-Weingarten split of covariant derivatives along the fibers",
              _submersion_driver(submersion.check_gauss_weingarten)),
    CheckSpec("semi_riemannian", "§2 Definition", 1e-8,
              "horizontal lifts are isometric and fibers stay nondegenerate",
              _submersion_driver(submersion.check_semi_riemannian)),
    CheckSpec("conformal_metric", "§3 Definition", 1e-8,
              "lifted metric equals e^(2 phi) times the base metric",
              _submersion_driver(submersion.check_conformal_metric)),
    CheckSpec("conformal_defect", "§3 Theorem 3.2", 1e-8,
              "conformal submersion defect of the total connection over the base",
              _submersion_driver(submersion.check_conformal_hd)),
    CheckSpec("affine_hd", "§2 Definition", 1e-8,
              "horizontal part of lifted covariant derivatives matches the base",
              _submersion_driver(submersion.check_affine_hd)),
    CheckSpec("dual_conformal_pair", "§3 Proposition", 1e-8,
              "primal and dual connections are conformal over the base together",
              _submersion_driver(submersion.check_dual_conformal_pair)),
    CheckSpec("lemma_components", "§3 Lemma", 1e-7,
              "six component identities for nabla g on mixed lift arguments",
              _submersion_driver(submersion.check_lemma_components)),
    CheckSpec("four_conditions", "§3 Theorem", 1e-8,
              "the four split conditions hold iff the total space is statistical",
              _submersion_driver(submersion.four_conditions_check)),
    CheckSpec("projectable", "§2", 1e-8,
              "induced base connection is constant along every fiber",
              _submersion_driver(submersion.check_projectable)),
    CheckSpec("induced_statistical", "§2 Theorem 2.1", 1e-7,
              "projected structure on the base is statistical when the total is",
              _submersion_driver(submersion.theorem21_verify)),
    CheckSpec("geodesic_projection", "§3.1 Theorem", 1e-6,
              "projection criterion verdict matches the base geodesic verdict",
              _geodesic_driver(geodesics.geodesic_projection_check)),
    CheckSpec("curve_decomposition", "§3.1 Theorem", 1e-8,
              "horizontal/vertical decomposition of derivatives along curves",
              _geodesic_driver(geodesics.check_curve_decomposition)),
    CheckSpec("sigma_second", "§3.1 Corollary", 1e-5,
              "second-derivative split of a geodesic through the submersion",
              _geodesic_driver(geodesics.check_sigma_second)),
    CheckSpec("geodesic_energy", "integrator hygiene", 1e-6,
              "kinetic energy drift along integrated geodesics",
              _geodesic_energy),
    CheckSpec("tb_defining_rules", "§4 Definitions", 1e-8,
              "lifted metrics and connections reproduce their frame rules",
              _bundle_driver(tangent_bundle.check_defining_rules)),
    CheckSpec("prop41", "§4 Proposition 4.1", 1e-8,
              "bundle projection is affine with the horizontal distribution",
              _bundle_setup_driver(submersion.check_affine_hd)),
    CheckSpec("prop42", "§4 Proposition 4.2", 1e-8,
              "bundle projection is a semi-Riemannian submersion for sasaki",
              _bundle_setup_driver(submersion.check_semi_riemannian)),
    CheckSpec("tm_statistical", "§4 Theorem", 1e-7,
              "split conditions on TM agree with direct statisticity of the lift",
              _bundle_driver(tangent_bundle.tm_statistical_check)),
    CheckSpec("remark_complete_metric", "§4 Remark (a)", 1e-8,
              "complete lift pair stays statistical when the base pair is",
              _bundle_driver(tangent_bundle.remark_complete_check)),
    CheckSpec("remark_dual_complete", "§4 Remark (b)", 1e-8,
              "dual of the complete lift equals the complete lift of the dual",
              _bundle_driver(tangent_bundle.remark_dual_check)),
    CheckSpec("remark_horizontal", "§4 Remark (c)", 1e-7,
              "horizontal lift statisticity tracks metric compatibility below",
              _bundle_driver(tangent_bundle.remark_horizontal_check)),
]}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return repr(value)


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute the configured checks and assemble the report."""
    scenario = build_scenario(cfg)
    requested = [(n, None) for n in scenario.checks] if cfg.checks is None else list(cfg.checks)
    if not requested:
        raise ConfigError(f"no checks to run on {scenario.name}: list them under 'checks'")
    ctx = RunContext(scenario, cfg.count, cfg.seed, cfg.boxes)

    rows = []
    with submersion.shared_frames():
        for name, tol_override in sorted(requested):
            spec = CHECK_TABLE[name]
            tol = spec.tolerance if tol_override is None else tol_override
            start = time.perf_counter()
            try:
                result = spec.driver(scenario, ctx, name, tol)
            except SubgeoError as exc:
                result = fold([], {0: exc}).result(tol, INCONCLUSIVE, math.inf,
                                                   {"error": str(exc)})
            wall = time.perf_counter() - start
            rows.append({
                "name": name,
                "paper_ref": spec.paper_ref,
                "samples": result.samples,
                "max_residual": float(result.max_residual),
                "tolerance": float(result.tolerance),
                "status": result.status,
                "incidents": result.incidents,
                "details": _jsonable(result.details),
                "wall_time_s": wall,
            })

    attempted_total = sum(r["samples"] + r["incidents"] for r in rows)
    incident_rate = sum(r["incidents"] for r in rows) / float(max(attempted_total, 1))
    report = {
        "schema": "subgeo-report/1",
        "suite": {
            "source": cfg.source,
            "target": scenario.name,
            "seed": cfg.seed,
            "samples": cfg.count,
            "mode": cfg.mode,
            "version": __version__,
        },
        "checks": rows,
        "summary": {
            "pass": sum(1 for r in rows if r["status"] == PASS),
            "fail": sum(1 for r in rows if r["status"] == FAIL),
            "inconclusive": sum(1 for r in rows if r["status"] == INCONCLUSIVE),
            "incident_rate": incident_rate,
        },
    }
    return report


def exit_code(report: dict) -> int:
    """0 all pass, 1 any non-pass, 3 when the incident rate tops 10%."""
    if report["summary"]["incident_rate"] > 0.10:
        return 3
    if report["summary"]["fail"] or report["summary"]["inconclusive"]:
        return 1
    return 0


def list_checks() -> str:
    lines = []
    for name in sorted(CHECK_TABLE):
        spec = CHECK_TABLE[name]
        lines.append(f"{name} [{spec.paper_ref}] - {spec.description}")
    return "\n".join(lines) + "\n"


def list_builtins() -> str:
    from .builtins import BUILTIN_PATTERNS

    lines = [f"{pattern} - {desc}" for pattern, desc in sorted(BUILTIN_PATTERNS)]
    return "\n".join(lines) + "\n"
