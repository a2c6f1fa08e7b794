"""Check registry and suite orchestration.

Every check the CLI can run is one row of CHECK_TABLE, the one place a
check is named: the section anchor it reports under, a default
tolerance, a short description, what it needs of the scenario, and
either its row kernel with the stack the kernel maps and its verdict
rule, or a driver.  :func:`run_check` runs every check: it gates on what
the scenario lacks, builds the stack, maps it by the kernel, folds and
applies the rule.  run_suite builds each report row from the table row
and the CheckResult of :func:`run_check`.  A suite draws its sample
points once (:meth:`RunContext.points`) and every check over points
reads that one stack, so the checks test the paper's pointwise
statements at the same points; the frame checks read the one frame
batch of that stack (:meth:`RunContext.frames`).
"""

from __future__ import annotations

import functools
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
from .geodesics import CURVE_KEYS
from .results import (FAIL, INCONCLUSIVE, PASS, CheckResult, agree, build_rows, collect, fold,
                      peak)
from .sampling import sample_box, subseed
from .submersion import CONDITIONS, LEMMA_KEYS
from .tangent_bundle import TM_COMPONENTS

FD_PROBES = 16
# Each velocity component of the curve checks' initial data lies in this interval.
VELOCITY_BOX = (-1.0, 1.0)


class RunContext:
    """Per-suite state shared by the check drivers: the sample points,
    their frame batch, a velocity at each (the initial data of the
    geodesics the curve checks test) and the integrated geodesic jobs,
    each drawn, built or integrated once per suite, on first use."""

    def __init__(self, scenario: Scenario, count: int, seed: int, boxes=None):
        self.scenario = scenario
        self.count = count
        self.seed = seed
        self.boxes = boxes if boxes is not None else scenario.space.chart.box
        self._points = self._frames = self._velocities = self._curves = None

    def points(self) -> np.ndarray:
        """The suite's sample, (count, n) and read-only: drawn once, on
        first use, from the sub-seed labelled "points", and read by every
        check over points (``fd_crosscheck`` reads its first FD_PROBES
        rows)."""
        if self._points is None:
            self._points = sample_box(self.boxes, self.count, subseed(self.seed, "points"))
            self._points.flags.writeable = False
        return self._points

    def frames(self):
        """The scenario's frame batch at :meth:`points`, read-only and built
        once, on first use: every ``frames`` and ``tangent frames`` row
        reads it, and a point whose frame fails is an incident of each."""
        if self._frames is None:
            self._frames = self.scenario.setup._frames(self.points())
        return self._frames

    def velocities(self) -> np.ndarray:
        """A velocity at each point of :meth:`points`, (count, n) and
        read-only: drawn once, on first use, from the sub-seed labelled
        "velocities", uniform in the box VELOCITY_BOX^n.  The curve checks
        read (points()[k], velocities()[k]) as the initial data of a
        geodesic."""
        if self._velocities is None:
            box = [VELOCITY_BOX] * self.scenario.dim
            self._velocities = sample_box(box, self.count, subseed(self.seed, "velocities"))
            self._velocities.flags.writeable = False
        return self._velocities

    def curves(self) -> dict:
        """Every geodesic job's outcome in name order: its Trajectory, or
        the :class:`SubgeoError` that ended it.  ``geodesic_energy`` reads
        them.

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


# What a check can need of its scenario: the words of its skip row, and
# how to read it off the scenario.  The first need of a kernel row is the
# subject its kernel maps.
NEEDS = {
    "manifold": ("manifold", lambda sc: sc.space),
    "curvature": ("reference curvature constant",
                  lambda sc: None if sc.curvature_k is None else (sc.space, sc.curvature_k)),
    "submersion": ("submersion", lambda sc: sc.setup),
    "bundle": ("tangent bundle", lambda sc: sc.bundle),
    "bundle submersion": ("tangent bundle", lambda sc: sc.bundle and sc.bundle.setup),
    "geodesic jobs": ("geodesic jobs", lambda sc: sc.geodesic_jobs or None),
}
STACKS = ("points", "frames", "tangent frames")


def _run_kernel(spec, scenario, ctx, tol) -> CheckResult:
    """The driver of a kernel row: its stack over the suite's points (a
    point that fails to build is an incident), mapped by its kernel, read
    off its module at each run, folded and judged.  A ``frames`` kernel
    takes the suite's frame batch, a ``tangent frames`` kernel that and
    the velocities of its rows."""
    subject, kernel = NEEDS[spec.needs[0]][1](scenario), getattr(*spec.kernel)
    if spec.stack == "points":
        items = build_rows(lambda x: kernel(subject, x), ctx.points())
    else:
        frames = ctx.frames()
        args = (frames,)
        if spec.stack == "tangent frames":
            args += (np.delete(ctx.velocities(), sorted(frames.errors), axis=0),)
        items = (kernel(*args) if len(frames) else {}), frames.errors
    return spec.rule(fold(*items, keys=spec.keys), tol, subject)


@dataclass
class CheckSpec:
    """A check: the section anchor it reports under, its default tolerance,
    a short description and what it ``needs`` (NEEDS, gated in order).  A
    pointwise check names its ``stack`` (STACKS), its row ``kernel`` as
    (module, function name), its verdict ``rule`` (a bound, a bound with a
    premise, or a biconditional over the fold) and the named residuals
    ``keys`` the fold reports as 0.0 when no item evaluates; any other
    check names its ``driver``, (scenario, ctx, tol) -> CheckResult."""

    name: str
    paper_ref: str
    tolerance: float
    description: str
    needs: tuple
    stack: str = ""
    kernel: tuple = ()
    rule: object = None
    keys: tuple = ()
    driver: object = None

    def __post_init__(self):
        if self.driver is None:
            self.driver = functools.partial(_run_kernel, self)


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


def _fd_crosscheck(scenario, ctx, tol):
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


def _projectable(scenario, ctx, tol):
    return fold(*submersion.projectable_rows(scenario.setup, ctx.points())).summarize(tol)


def _geodesic_energy(scenario, ctx, tol):
    curves = ctx.curves()
    drifts, errors = collect(
        curves.values(),
        lambda c: geodesics.energy_drift(scenario.space.metric, geodesics.trajectory(c)))
    return fold(list(drifts.values()), errors).summarize(tol, details={"jobs": sorted(curves)})


# -- verdict rules: a fold, the tolerance and the subject -> CheckResult --------


def _bound(s, tol, subject):
    return s.summarize(tol)


def _bound_each(s, tol, subject):
    """A bound that reports the worst of each named residual."""
    return s.summarize(tol, s.worst)


def _projection_criterion(s, tol, setup):
    """A bound on the theorem's pointwise equality, with how many points
    meet the condition, how many project to a base geodesic, and how many
    of those two verdicts disagree."""
    cond, base = (s.named.get(k, np.zeros(0)) <= tol for k in ("condition", "base_residual"))
    return s.summarize(tol, {"condition_holds": int(cond.sum()), "base_geodesic": int(base.sum()),
                             "disagree": int((cond != base).sum())}, ("equality",))


def _curvature_model(s, tol, curved):
    return s.summarize(tol, {"k": float(curved[1])})


def _semi_riemannian(s, tol, setup):
    return s.summarize(tol, {"fiber_metric_degenerate": s.worst["degenerate"] == math.inf})


def _induced_statistical(s, tol, setup):
    """A bound on the induced structure, premised on the total space's."""
    return s.summarize(tol, {"premise_residual": s.worst["premise"],
                             "proof_identity_residual": s.worst["identity"]},
                       ("statistical", "identity"), s.worst["premise"])


def _remark_complete(s, tol, bundle):
    """A bound on the lifted pair, premised on the base pair."""
    return s.summarize(tol, {"premise_residual": s.worst["premise"]}, ("statistical",),
                       s.worst["premise"])


def _dual_conformal_pair(s, tol, setup):
    primal, dual = s.worst["primal"], s.worst["dual"]
    return s.biconditional(primal, dual, tol, {"primal_max": primal, "dual_max": dual})


def _theorem(s, tol):
    """Per-condition maxima and both verdicts of the four-condition theorem."""
    details = {k: s.worst[k] for k in CONDITIONS}
    conditions_max, direct = peak(details.values()), s.worst["total_space"]
    details.update(total_space_residual=direct, conditions_pass=conditions_max <= tol,
                   total_space_pass=direct <= tol,
                   biconditional_holds=agree(conditions_max, direct, tol))
    return details, conditions_max


def _four_conditions(s, tol, setup):
    """The four conditions hold, and iff the total space is statistical."""
    details, conditions_max = _theorem(s, tol)
    holds = details["conditions_pass"] and details["biconditional_holds"]
    return s.result(tol, s.verdict(holds), conditions_max, details)


def _tm_statistical(s, tol, setup):
    details, conditions_max = _theorem(s, tol)
    details.update((k, s.worst[k]) for k in TM_COMPONENTS)
    return s.biconditional(conditions_max, s.worst["total_space"], tol, details, conditions_max)


def _remark_horizontal(s, tol, bundle):
    """Its residual is both sides' worst when their verdicts agree, else the smaller."""
    left, right = s.worst["bundle"], s.worst["base"]
    left_pass, right_pass = left <= tol, right <= tol
    return s.biconditional(
        left, right, tol,
        {"bundle_residual": left, "base_nabla_g": right,
         "bundle_pass": left_pass, "base_metric_pass": right_pass},
        peak((left, right)) if left_pass == right_pass else min(left, right))


THEOREM_KEYS = CONDITIONS + ("total_space",)

CHECK_TABLE = {s.name: s for s in [
    CheckSpec("is_statistical", "§2 Definition", 1e-8,
              "torsion-freeness and total symmetry of the cubic form nabla g",
              ("manifold",), "points", (geometry, "statistical_rows"), _bound),
    CheckSpec("dual_involution", "§2 Definition", 1e-9,
              "taking the metric dual twice returns the original connection",
              ("manifold",), "points", (geometry, "dual_involution_rows"), _bound),
    CheckSpec("curvature_duality", "§2", 1e-8,
              "curvatures of a dual pair are skew-adjoint through the metric",
              ("manifold",), "points", (geometry, "curvature_duality_rows"), _bound),
    CheckSpec("constant_curvature", "§2 Example", 1e-8,
              "R(X,Y)Z matches k (g(Y,Z)X - g(X,Z)Y) for the scenario's k",
              ("curvature",), "points", (geometry, "constant_curvature_rows"), _curvature_model),
    CheckSpec("fd_crosscheck", "numerics hygiene", 1e-4,
              "jet gradients and hessians agree with central differences",
              ("manifold",), driver=_fd_crosscheck),
    CheckSpec("split_identities", "§2", 1e-9,
              "projector algebra of the vertical/horizontal splitting",
              ("submersion",), "frames", (submersion, "split_identity_residuals"), _bound),
    CheckSpec("tensoriality", "§2", 1e-8,
              "fundamental tensors are pointwise in both arguments",
              ("submersion",), "frames", (submersion, "tensoriality_residuals"), _bound),
    CheckSpec("gauss_weingarten", "§2", 1e-8,
              "Gauss-Weingarten split of covariant derivatives along the fibers",
              ("submersion",), "frames", (submersion, "gauss_weingarten_residuals"), _bound_each),
    CheckSpec("semi_riemannian", "§2 Definition", 1e-8,
              "horizontal lifts are isometric and fibers stay nondegenerate",
              ("submersion",), "points", (submersion, "semi_riemannian_residuals"),
              _semi_riemannian, ("lengths", "degenerate")),
    CheckSpec("conformal_metric", "§3 Definition", 1e-8,
              "lifted metric equals e^(2 phi) times the base metric",
              ("submersion",), "frames", (submersion, "conformal_metric_residuals"), _bound),
    CheckSpec("conformal_defect", "§3 Theorem 3.2", 1e-8,
              "conformal submersion defect of the total connection over the base",
              ("submersion",), "frames", (submersion, "conformal_defect"), _bound),
    CheckSpec("affine_hd", "§2 Definition", 1e-8,
              "horizontal part of lifted covariant derivatives matches the base",
              ("submersion",), "frames", (submersion, "affine_hd_residuals"), _bound),
    CheckSpec("dual_conformal_pair", "§3 Proposition", 1e-8,
              "primal and dual connections are conformal over the base together",
              ("submersion",), "frames", (submersion, "conformal_pair_residuals"),
              _dual_conformal_pair, ("primal", "dual")),
    CheckSpec("lemma_components", "§3 Lemma", 1e-7,
              "six component identities for nabla g on mixed lift arguments",
              ("submersion",), "frames", (submersion, "lemma_components"), _bound_each,
              tuple(sorted(LEMMA_KEYS))),
    CheckSpec("four_conditions", "§3 Theorem", 1e-8,
              "the four split conditions hold iff the total space is statistical",
              ("submersion",), "frames", (submersion, "four_conditions_at"), _four_conditions,
              THEOREM_KEYS),
    CheckSpec("projectable", "§2", 1e-8,
              "induced base connection is constant along every fiber",
              ("submersion",), driver=_projectable),
    CheckSpec("induced_statistical", "§2 Theorem 2.1", 1e-7,
              "projected structure on the base is statistical when the total is",
              ("submersion",), "frames", (submersion, "induced_statistical_residuals"),
              _induced_statistical, ("premise", "statistical", "identity")),
    CheckSpec("geodesic_projection", "§3.1 Theorem", 1e-6,
              "base acceleration of a projected geodesic equals minus the criterion",
              ("submersion",), "tangent frames", (geodesics, "projection_condition_residuals"),
              _projection_criterion, ("equality", "condition", "base_residual")),
    CheckSpec("curve_decomposition", "§3.1 Theorem", 1e-8,
              "horizontal/vertical decomposition of derivatives along geodesics",
              ("submersion",), "tangent frames", (geodesics, "curve_decomposition_residuals"),
              _bound_each, CURVE_KEYS),
    CheckSpec("sigma_second", "§3.1 Corollary", 1e-5,
              "second-derivative split of a geodesic through the submersion",
              ("submersion",), "tangent frames", (geodesics, "sigma_second_residuals"),
              _bound_each, CURVE_KEYS),
    CheckSpec("geodesic_energy", "integrator hygiene", 1e-6,
              "kinetic energy drift along integrated geodesics",
              ("geodesic jobs",), driver=_geodesic_energy),
    CheckSpec("tb_defining_rules", "§4 Definitions", 1e-8,
              "lifted metrics and connections reproduce their frame rules",
              ("bundle",), "points", (tangent_bundle, "defining_rule_residuals"), _bound_each),
    CheckSpec("prop41", "§4 Proposition 4.1", 1e-8,
              "bundle projection is affine with the horizontal distribution",
              ("bundle submersion",), "frames", (submersion, "affine_hd_residuals"), _bound),
    CheckSpec("prop42", "§4 Proposition 4.2", 1e-8,
              "bundle projection is a semi-Riemannian submersion for sasaki",
              ("bundle submersion",), "points", (submersion, "semi_riemannian_residuals"),
              _semi_riemannian, ("lengths", "degenerate")),
    CheckSpec("tm_statistical", "§4 Theorem", 1e-7,
              "split conditions on TM agree with direct statisticity of the lift",
              ("bundle submersion",), "frames", (tangent_bundle, "tm_statistical_residuals"),
              _tm_statistical, THEOREM_KEYS + tuple(TM_COMPONENTS)),
    CheckSpec("remark_complete_metric", "§4 Remark (a)", 1e-8,
              "complete lift pair stays statistical when the base pair is",
              ("bundle",), "points", (tangent_bundle, "remark_complete_residuals"),
              _remark_complete, ("premise", "statistical")),
    CheckSpec("remark_dual_complete", "§4 Remark (b)", 1e-8,
              "dual of the complete lift equals the complete lift of the dual",
              ("bundle",), "points", (tangent_bundle, "remark_dual_residuals"), _bound),
    CheckSpec("remark_horizontal", "§4 Remark (c)", 1e-7,
              "horizontal lift statisticity tracks metric compatibility below",
              ("bundle",), "points", (tangent_bundle, "remark_horizontal_residuals"),
              _remark_horizontal, ("bundle", "base")),
]}


def run_check(name: str, scenario: Scenario, ctx: RunContext, tol=None) -> CheckResult:
    """The check ``name`` of CHECK_TABLE on ``scenario``, over the points
    and curves of ``ctx``, at ``tol`` (the row's default when None).

    A scenario that lacks what the check needs gives a skip row; a
    :class:`SubgeoError` that escapes the check's driver gives an
    inconclusive row naming it.  Any other exception is a bug and
    propagates."""
    spec = CHECK_TABLE[name]
    tol = spec.tolerance if tol is None else tol
    for need in spec.needs:
        what, get = NEEDS[need]
        if get(scenario) is None:
            return CheckResult(samples=0, max_residual=math.inf, tolerance=0.0,
                               status=INCONCLUSIVE, details={"skipped": f"scenario has no {what}"})
    try:
        return spec.driver(scenario, ctx, tol)
    except SubgeoError as exc:
        return fold([], {0: exc}).result(tol, INCONCLUSIVE, math.inf, {"error": str(exc)})


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
    for name, tol in sorted(requested):
        start = time.perf_counter()
        result = run_check(name, scenario, ctx, tol)
        wall = time.perf_counter() - start
        rows.append({
            "name": name,
            "paper_ref": CHECK_TABLE[name].paper_ref,
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
